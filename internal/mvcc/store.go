package mvcc

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"repro/internal/storage"
)

// entry is one write to a row: who made it and the bytes the row held
// immediately before (nil if the row did not exist). The store owns
// pre — callers must hand over bytes that nothing else mutates.
//
// moved records that the write changed the row's index identity
// relative to pre: a delete, the old slot of a relocation, or an update
// that changed a key of some index. Across a write that did not move,
// pre and the newer version carry the same keys at the same RID.
type entry struct {
	writer *Txn
	pre    []byte
	moved  bool
}

// VersionStore holds the version chains of one table, keyed by RID.
// A chain's entries run oldest to newest; the newest bytes of the row
// live on the heap page itself. Reading a row for a snapshot walks the
// chain newest-first: stop at the first visible writer (the current
// bytes are theirs), otherwise step back to that entry's pre-image.
//
// Mutating calls happen while the caller holds the table's latch
// exclusively (the apply phase of a DML statement, or its undo); reads
// run under at least the shared latch. WaitCheckWrites is the one
// latch-free entry point — it only inspects chains and parks, so the
// internal mutex alone keeps it coherent against concurrent appliers.
//
// Chains split in two by their entries' moved flags. A stable chain
// (no moved entry) belongs to a row that the heap and every index
// still hold at the keys every one of its versions carries, so a scan
// that reaches the row resolves it on the spot. A moved chain may hold
// a version the physical structures no longer lead to (or lead to
// under another key); readers enumerate those — MovedRIDs — and check
// each visible version against their key range themselves.
type VersionStore struct {
	mu     sync.Mutex
	mgr    *Manager
	chains map[storage.RID][]entry
	moved  map[storage.RID]struct{} // chains with at least one moved entry

	// signal wakes conflict waiters parked on an aborted-but-not-yet-
	// undone entry: PopWrite and GC close it (close-and-renew) whenever
	// they remove entries. Lazily allocated — nil while nobody waits.
	signal chan struct{}
}

// NewStore returns an empty store. mgr may be nil in tests; then no
// automatic GC registration happens.
func NewStore(mgr *Manager) *VersionStore {
	return &VersionStore{
		mgr:    mgr,
		chains: make(map[storage.RID][]entry),
		moved:  make(map[storage.RID]struct{}),
	}
}

// HasVersions reports whether any chain exists. Statements use it to
// skip the versioned read path entirely when no transaction has
// in-flight or recently committed writes on the table.
func (s *VersionStore) HasVersions() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.chains) > 0
}

// HasChain reports whether rid has a version chain.
func (s *VersionStore) HasChain(rid storage.RID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.chains[rid]
	return ok
}

// Pinned reports whether rid's heap slot must not be reused by a fresh
// insert. Any chain pins its slot: reusing it would splice an
// unrelated row into the middle of a version chain.
func (s *VersionStore) Pinned(rid storage.RID) bool { return s.HasChain(rid) }

// CheckWrite applies first-updater-wins: writing rid is allowed iff
// the newest version entry (if any) is visible to tx — tx's own write,
// or a commit at or before tx's snapshot. Everything else (active
// writer, aborted-but-not-yet-undone writer, commit after tx began)
// is ErrWriteConflict.
func (s *VersionStore) CheckWrite(tx *Txn, rid storage.RID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := s.chains[rid]
	if len(ch) == 0 {
		return nil
	}
	if !tx.Visible(ch[len(ch)-1].writer) {
		return ErrWriteConflict
	}
	return nil
}

// RecordWrite appends a version entry for tx's write to rid, taking
// ownership of pre. The caller has already passed CheckWrite (or the
// write is an insert into a fresh slot, which cannot conflict). moved
// says whether the write changed the row's index identity (see entry);
// it is conservative — true is always correct and only costs readers
// an enumeration — so a caller that cannot compare keys passes true
// for anything but an insert.
func (s *VersionStore) RecordWrite(tx *Txn, rid storage.RID, pre []byte, moved bool) {
	s.mu.Lock()
	s.chains[rid] = append(s.chains[rid], entry{writer: tx, pre: pre, moved: moved})
	if moved {
		s.moved[rid] = struct{}{}
	}
	s.mu.Unlock()
	if s.mgr != nil {
		s.mgr.markDirty(s)
	}
}

// NewestWriter returns the transaction behind the newest version entry
// of rid, or ok=false when rid has no chain.
func (s *VersionStore) NewestWriter(rid storage.RID) (*Txn, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := s.chains[rid]
	if len(ch) == 0 {
		return nil, false
	}
	return ch[len(ch)-1].writer, true
}

// PopWrite removes the newest entry of rid's chain, which must belong
// to tx — the undo path for a rolled-back write.
func (s *VersionStore) PopWrite(tx *Txn, rid storage.RID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := s.chains[rid]
	if len(ch) == 0 || ch[len(ch)-1].writer != tx {
		return // already collected (aborted entries are GC-eligible)
	}
	s.setChainLocked(rid, ch[:len(ch)-1])
	s.bumpLocked()
}

// setChainLocked installs what is left of rid's chain after entries
// were removed, keeping the moved set exact: a flag leaves with its
// entry. Called with s.mu held.
func (s *VersionStore) setChainLocked(rid storage.RID, ch []entry) {
	if len(ch) == 0 {
		delete(s.chains, rid)
		delete(s.moved, rid)
		return
	}
	s.chains[rid] = ch
	if _, was := s.moved[rid]; !was {
		return
	}
	for _, e := range ch {
		if e.moved {
			return
		}
	}
	delete(s.moved, rid)
}

// signalLocked returns the current waiter-wakeup channel, allocating
// it on first use. Called with s.mu held.
func (s *VersionStore) signalLocked() <-chan struct{} {
	if s.signal == nil {
		s.signal = make(chan struct{})
	}
	return s.signal
}

// bumpLocked wakes every waiter parked on the store by closing the
// signal channel and renewing it lazily. Called with s.mu held by any
// path that removes chain entries.
func (s *VersionStore) bumpLocked() {
	if s.signal != nil {
		close(s.signal)
		s.signal = nil
	}
}

// WaitCheckWrites is first-updater-wins with bounded wait-then-abort:
// for each rid it checks the newest chain entry like CheckWrite, but
// when the blocking holder has not settled — it is active, holds a
// reserved commit timestamp, or aborted with its undo still pending
// (the entry is about to be popped) — the caller parks until the holder
// resolves or the shared budget expires. A holder that committed after
// tx's snapshot conflicts at once with ErrNewerCommit: no wait changes
// that outcome, a later snapshot does. The caller holds no table latch;
// the apply phase rechecks under the exclusive latch, so a holder that
// slips in after this returns is still caught.
func (s *VersionStore) WaitCheckWrites(tx *Txn, rids []storage.RID, budget time.Duration) error {
	if s.mgr == nil {
		for _, rid := range rids {
			if err := s.CheckWrite(tx, rid); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		timer  *time.Timer
		parked time.Time
	)
	defer func() {
		if timer != nil {
			timer.Stop()
		}
		if !parked.IsZero() {
			s.mgr.rowWaitNanos.Add(time.Since(parked).Nanoseconds())
		}
	}()
	for _, rid := range rids {
		for {
			s.mu.Lock()
			ch := s.chains[rid]
			if len(ch) == 0 || tx.Visible(ch[len(ch)-1].writer) {
				s.mu.Unlock()
				break
			}
			holder := ch[len(ch)-1].writer
			word := holder.word.Load()
			if word != 0 && word != abortedWord {
				// Committed after tx began: waiting cannot clear this.
				s.mu.Unlock()
				s.mgr.immediateConflicts.Add(1)
				return ErrNewerCommit
			}
			var wake <-chan struct{}
			if word == abortedWord {
				wake = s.signalLocked() // undo pop is imminent
			} else {
				wake = holder.done // active or reserved: settled at publish/abort
			}
			s.mu.Unlock()
			if budget <= 0 {
				s.mgr.immediateConflicts.Add(1)
				return ErrWriteConflict
			}
			if timer == nil {
				// One timer with the full budget, shared across every rid:
				// the statement's total parked time is bounded, not each
				// row's. timer.C is consumed at most once — a timeout
				// returns immediately below.
				timer = time.NewTimer(budget)
				parked = time.Now()
				s.mgr.rowWaits.Add(1)
			}
			select {
			case <-wake:
				// Re-check the chain: the wake may be for another rid's
				// entry, or the holder may have resolved against us.
			case <-timer.C:
				s.mgr.rowWaitTimeouts.Add(1)
				return ErrWriteConflict
			}
		}
	}
	if !parked.IsZero() {
		s.mgr.rowWaitRescues.Add(1)
	}
	return nil
}

// Resolve returns the bytes of rid visible to reader, given cur — the
// current heap bytes (nil if the slot is dead). The second result is
// false when no version is visible (the row does not exist in the
// reader's snapshot). The returned bytes may alias cur or an immutable
// store-owned pre-image, so a caller may resolve in place under a heap
// view. A RID without a chain resolves to cur: the lookup is live, and
// that is safe against concurrent GC because a chain is collected only
// once every live snapshot sees exactly the heap bytes.
func (s *VersionStore) Resolve(reader *Txn, rid storage.RID, cur []byte) ([]byte, bool) {
	s.mu.Lock()
	ch := s.chains[rid]
	for i := len(ch) - 1; i >= 0; i-- {
		if reader.Visible(ch[i].writer) {
			break
		}
		cur = ch[i].pre
	}
	stable := false
	if len(ch) > 0 {
		_, moved := s.moved[rid]
		stable = !moved
	}
	s.mu.Unlock()
	if stable && s.mgr != nil {
		s.mgr.chainedRowsResolved.Add(1)
	}
	return cur, cur != nil
}

// RIDs returns every chained RID in (page, slot) order.
func (s *VersionStore) RIDs() []storage.RID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedRIDs(s.chains)
}

// MovedRIDs returns the RIDs of the moved chains in (page, slot) order:
// the rows a snapshot read cannot reach through the heap or an index
// at the keys their visible version carries. A statement captures the
// set once, skips exactly these RIDs physically and enumerates them
// through Resolve, so GC emptying a chain mid-statement cannot hand a
// row to both halves (or neither). The result counts toward
// VersionsEnumerated.
func (s *VersionStore) MovedRIDs() []storage.RID {
	s.mu.Lock()
	out := sortedRIDs(s.moved)
	s.mu.Unlock()
	if s.mgr != nil {
		s.mgr.versionsEnumerated.Add(int64(len(out)))
	}
	return out
}

func sortedRIDs[V any](m map[storage.RID]V) []storage.RID {
	out := make([]storage.RID, 0, len(m))
	for rid := range m {
		out = append(out, rid)
	}
	slices.SortFunc(out, func(a, b storage.RID) int {
		return cmp.Or(cmp.Compare(a.Page, b.Page), cmp.Compare(a.Slot, b.Slot))
	})
	return out
}

// UncommittedPreImages calls fn for every pre-image that a transaction
// which has not committed (active, or aborted with its undo still
// pending) moved away from, stopping early if fn returns false.
// Unique-key checks use it to detect keys that are physically absent
// from an index but would reappear if the uncommitted writer rolled
// back; only a moved entry's pre-image can carry such a key, so the
// walk covers the moved chains alone.
func (s *VersionStore) UncommittedPreImages(fn func(rid storage.RID, writer *Txn, pre []byte) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for rid := range s.moved {
		for _, e := range s.chains[rid] {
			if !e.moved || e.pre == nil || e.writer.Committed() {
				continue
			}
			if !fn(rid, e.writer, e.pre) {
				return
			}
		}
	}
}

// GC drops entries no snapshot can need: from the oldest end of each
// chain, remove entries whose writer aborted or committed at or before
// horizon (the oldest active snapshot). It stops at the first entry
// that must stay — chain order guarantees nothing newer is collectable
// either. Returns true when the store is left empty.
func (s *VersionStore) GC(horizon uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := false
	for rid, ch := range s.chains {
		i := 0
		for i < len(ch) {
			w := ch[i].writer.word.Load()
			if w == abortedWord || (w != 0 && w <= horizon) {
				i++
				continue
			}
			break
		}
		if i > 0 {
			s.setChainLocked(rid, append([]entry(nil), ch[i:]...))
			changed = true
		}
	}
	if changed {
		s.bumpLocked()
	}
	return len(s.chains) == 0
}
