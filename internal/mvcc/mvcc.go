// Package mvcc provides the transaction timestamps and row-version
// bookkeeping behind snapshot-isolation reads and first-updater-wins
// write-conflict detection.
//
// The design deliberately keeps the on-page row format untouched: a
// heap page always holds the *newest* bytes of every row, and an
// in-memory side store (VersionStore, one per table) keeps the chain
// of pre-images that older snapshots still need. A chain exists only
// while some transaction needs it — entries are garbage-collected once
// every active snapshot is newer than the writer that created them —
// so a database with no open interactive transactions carries zero
// versioning overhead on the read path.
//
// Timestamps: the Manager keeps a logical commit clock split in two.
// ReserveCommit assigns the next clock value to a committing
// transaction before its log sync, fixing the commit order; the
// timestamp is *published* (made visible to snapshots) only after the
// group-commit sync reports the commit record durable, and strictly in
// reservation order, so the published clock never exposes a gap. A
// transaction's snapshot is the published clock at Begin; a write is
// visible to a reader iff the reader made it, or the writer published
// at or before the reader's snapshot. This is the commit pipeline:
// while one transaction's commit record is being synced, later
// transactions reserve their own timestamps and append their commit
// records behind it, and one shared fsync publishes the whole batch.
package mvcc

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrWriteConflict is returned when first-updater-wins detects that a
// row targeted by a write was already written by a transaction that is
// not visible to the writer (still active, aborted but not yet undone,
// or committed after the writer's snapshot). The losing transaction
// must abort; under bounded wait-then-abort the loser first waits a
// short deadline for holders that may still release the row.
var ErrWriteConflict = errors.New("mvcc: write-write conflict")

// abortedWord is the commit-word value marking an aborted transaction.
const abortedWord = ^uint64(0)

// gcEvery amortizes version-store garbage collection: a full sweep of
// the dirty stores runs once per this many transaction terminations
// (instead of on every one), plus whenever the system goes idle so the
// no-transactions state returns to zero versioning overhead.
const gcEvery = 32

// Manager issues transactions and owns the commit clock.
type Manager struct {
	mu        sync.Mutex
	ts        uint64 // last RESERVED commit timestamp (clock head)
	published uint64 // newest published timestamp (snapshot clock)
	nextID    uint64
	active    map[uint64]*Txn
	pending   []*Txn // reserved commits awaiting durability, in ts order

	dirtyMu sync.Mutex
	dirty   map[*VersionStore]struct{}

	finishes atomic.Int64 // terminations since startup (drives amortized GC)

	// Contention telemetry (see ContentionStats).
	rowWaits           atomic.Int64
	rowWaitNanos       atomic.Int64
	rowWaitTimeouts    atomic.Int64
	rowWaitRescues     atomic.Int64
	immediateConflicts atomic.Int64
	publishBatches     atomic.Int64
	publishedTxns      atomic.Int64
	pipelineMax        atomic.Int64

	// Read-side telemetry (see ContentionStats).
	versionsEnumerated  atomic.Int64
	chainedRowsResolved atomic.Int64
}

// NewManager returns an empty transaction manager.
func NewManager() *Manager {
	return &Manager{
		active: make(map[uint64]*Txn),
		dirty:  make(map[*VersionStore]struct{}),
	}
}

// Begin starts a transaction whose snapshot is the published clock:
// reserved-but-unsynced commits are not yet durable, so they must not
// be visible to it. The snapshot is pinned immediately — callers may
// observe it straight away.
func (m *Manager) Begin() *Txn { return m.begin(true) }

// BeginLazy is Begin with the snapshot left provisional: the caller
// promises to Pin before the transaction observes anything through it.
// Until then the snapshot retains no versions (see sweep) and a Pin
// re-stamps it at the then-current published clock, so a transaction
// that idles between BEGIN and its first statement neither blocks GC
// nor conflicts with commits that landed in the gap.
func (m *Manager) BeginLazy() *Txn { return m.begin(false) }

func (m *Manager) begin(pinned bool) *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	tx := &Txn{
		id:      m.nextID,
		beginTS: m.published,
		pinned:  pinned,
		mgr:     m,
		done:    make(chan struct{}),
	}
	m.active[tx.id] = tx
	return tx
}

// Pin fixes tx's snapshot at the current published clock, once.
// BeginLazy gives a transaction a provisional snapshot, but until the
// transaction observes anything through it the snapshot is unobservable
// state — so the engine re-stamps it at the first statement (lazy
// snapshot pinning). Advancing an unobserved snapshot is indistinguishable from
// the transaction simply having begun later, which a client that has
// not yet run a statement cannot rule out; once pinned, the snapshot
// never moves again. The practical effect under contention: a
// transaction that waited for write admission starts from a snapshot
// that already includes the previous holder's commit instead of
// conflicting with it.
//
// Pin must be called by the transaction's own goroutine. beginTS is
// written under m.mu because the GC sweep reads active transactions'
// snapshots under the same lock.
func (m *Manager) Pin(tx *Txn) {
	if tx.pinned {
		return
	}
	m.mu.Lock()
	tx.pinned = true
	tx.beginTS = m.published
	m.mu.Unlock()
}

// ActiveCount reports how many transactions are begun but not yet
// finished (reserved-but-unpublished commits count as active: their
// outcome is not settled, so the engine's DDL fence must still see
// them). The engine uses it to fence DDL off from open transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// PinnedCount reports how many active transactions hold a pinned
// snapshot — the transactions that constrain the GC horizon. The
// server's drain check uses it: after every connection is reaped it
// must be zero, or a disconnect leaked a snapshot and version chains
// can never be collected past it.
func (m *Manager) PinnedCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, a := range m.active {
		if a.pinned {
			n++
		}
	}
	return n
}

// Horizon reports the current GC horizon: the oldest snapshot any
// pinned active transaction holds, or the published clock when none
// is. Tests use it to prove a disconnect released its snapshot (the
// horizon advances past it).
func (m *Manager) Horizon() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.published
	for _, a := range m.active {
		if a.pinned && a.beginTS < h {
			h = a.beginTS
		}
	}
	return h
}

// ReserveCommit assigns tx the next commit timestamp and queues it for
// publication. The caller then makes the commit record durable and
// calls MarkDurable (success) or ResolveAbort (failed sync/append).
// Reserving before the log sync is what pipelines commits: the clock's
// critical section is a counter increment, and the sync itself runs
// outside it, shared with every other commit in the same batch.
func (m *Manager) ReserveCommit(tx *Txn) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if tx.reserved.Load() {
		return
	}
	m.ts++
	tx.ts = m.ts
	tx.reserved.Store(true)
	m.pending = append(m.pending, tx)
	if d := int64(len(m.pending)); d > m.pipelineMax.Load() {
		m.pipelineMax.Store(d)
	}
}

// MarkDurable records that tx's commit record survived its log sync
// and publishes the longest durable prefix of the reservation queue,
// then blocks until tx's own timestamp is published (an earlier
// reservation may still be syncing). Publication is strictly in
// reservation order so the published clock never exposes t without
// every commit older than t.
func (m *Manager) MarkDurable(tx *Txn) {
	m.mu.Lock()
	tx.durable = true
	m.publishPrefixLocked()
	m.mu.Unlock()
	<-tx.done
	m.maybeGC()
}

// StampDDL burns one commit timestamp through the full pipeline and
// returns it published. A schema version published under this stamp is
// strictly newer than every snapshot begun before the call (their
// beginTS is at most the previously published clock), so those
// snapshots keep resolving the prior schema version — the same
// visibility rule rows get, applied to catalog entries. The call may
// briefly block behind commits already mid-sync (publication is in
// reservation order), which is the only "wait" an online ALTER performs
// beyond its table latch.
func (m *Manager) StampDDL() uint64 {
	tx := m.Begin()
	m.ReserveCommit(tx)
	m.MarkDurable(tx)
	return tx.word.Load()
}

// ResolveAbort withdraws tx's commit reservation after a failed
// durability step: its queue slot is skipped (the timestamp is burned,
// which snapshots never notice) so the pipeline behind it keeps
// flowing, and the transaction returns to the plain active-aborting
// state — conflict waiters go back to waiting for its rollback instead
// of treating it as a certain commit. The caller still runs the undo
// and Abort.
func (m *Manager) ResolveAbort(tx *Txn) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !tx.reserved.Load() {
		return
	}
	tx.skipped = true
	tx.reserved.Store(false)
	m.publishPrefixLocked()
}

// publishPrefixLocked pops the queue head while it is resolved:
// durable entries publish (commit word stored, snapshot clock
// advanced, waiters released), skipped entries are dropped. Called
// with m.mu held.
func (m *Manager) publishPrefixLocked() {
	n, pub := 0, 0
	for _, p := range m.pending {
		if p.skipped {
			n++
			continue
		}
		if !p.durable {
			break
		}
		p.word.Store(p.ts)
		m.published = p.ts
		p.reserved.Store(false)
		delete(m.active, p.id)
		close(p.done)
		n++
		pub++
	}
	if n > 0 {
		m.pending = m.pending[n:]
	}
	if pub > 0 {
		m.publishBatches.Add(1)
		m.publishedTxns.Add(int64(pub))
		m.finishes.Add(int64(pub))
	}
}

// markDirty records that a store holds version chains so the GC sweep
// knows where to collect.
func (m *Manager) markDirty(s *VersionStore) {
	m.dirtyMu.Lock()
	m.dirty[s] = struct{}{}
	m.dirtyMu.Unlock()
}

// maybeGC runs the version-store sweep on an amortized schedule: once
// per gcEvery terminations while transactions are in flight (the sweep
// is O(total chains), far too expensive per commit), and on every
// termination that leaves the system idle, so quiescence always
// returns to the zero-chains state the unversioned fast paths assume.
func (m *Manager) maybeGC() {
	n := m.finishes.Load()
	if n%gcEvery != 0 {
		m.mu.Lock()
		idle := len(m.active) == 0
		m.mu.Unlock()
		if !idle {
			return
		}
	}
	m.sweep()
}

// sweep garbage-collects every dirty store against the current
// horizon: the oldest snapshot any active PINNED transaction holds, or
// the published clock when none is. An unpinned transaction has not
// observed its provisional snapshot and never will — its pin re-stamps
// it at the then-current published clock, which is at least this
// sweep's horizon (Pin and the horizon read serialize on m.mu) — so it
// retains nothing. Reserved-but-unpublished writers keep a zero commit
// word, so their entries are never collected regardless of the
// horizon.
func (m *Manager) sweep() {
	m.mu.Lock()
	horizon := m.published
	for _, a := range m.active {
		if a.pinned && a.beginTS < horizon {
			horizon = a.beginTS
		}
	}
	m.mu.Unlock()

	m.dirtyMu.Lock()
	stores := make([]*VersionStore, 0, len(m.dirty))
	for s := range m.dirty {
		stores = append(stores, s)
	}
	m.dirtyMu.Unlock()
	for _, s := range stores {
		if s.GC(horizon) {
			m.dirtyMu.Lock()
			// Re-check under the lock: a concurrent write may have re-added
			// chains after GC reported the store empty.
			if !s.HasVersions() {
				delete(m.dirty, s)
			}
			m.dirtyMu.Unlock()
		}
	}
}

// ContentionStats is a snapshot of the manager's write-conflict and
// commit-pipeline telemetry.
type ContentionStats struct {
	// RowWaits counts statements that parked in bounded wait-then-abort
	// at least once; RowWaitNanos is their total parked time.
	// RowWaitTimeouts are waits that expired into a conflict abort;
	// RowWaitRescues are waits after which every contended row had
	// resolved and the write proceeded. ImmediateConflicts are
	// first-updater-wins conflicts no wait could clear (the holder
	// already committed too new, or holds a reserved commit timestamp)
	// or that arrived with waiting disabled.
	RowWaits           int64
	RowWaitNanos       int64
	RowWaitTimeouts    int64
	RowWaitRescues     int64
	ImmediateConflicts int64
	// PipelineDepth is the current number of reserved commits awaiting
	// publication; PipelineMax its high-water mark. PublishBatches
	// counts publication rounds that released at least one commit, and
	// PublishedTxns the commits they released (PublishedTxns /
	// PublishBatches is the mean pipeline batch).
	PipelineDepth  int64
	PipelineMax    int64
	PublishBatches int64
	PublishedTxns  int64
	// What version chains cost snapshot reads. VersionsEnumerated counts
	// moved chains captured by statements — rows read outside the heap
	// or index scan that found nothing of them; it grows with in-flight
	// deletes and key changes on the tables a statement reads, whoever
	// made them. ChainedRowsResolved counts rows a scan reached that had
	// a stable chain and were resolved where they were found.
	VersionsEnumerated  int64
	ChainedRowsResolved int64
}

// Contention returns current contention telemetry.
func (m *Manager) Contention() ContentionStats {
	m.mu.Lock()
	depth := int64(len(m.pending))
	m.mu.Unlock()
	return ContentionStats{
		RowWaits:           m.rowWaits.Load(),
		RowWaitNanos:       m.rowWaitNanos.Load(),
		RowWaitTimeouts:    m.rowWaitTimeouts.Load(),
		RowWaitRescues:     m.rowWaitRescues.Load(),
		ImmediateConflicts: m.immediateConflicts.Load(),
		PipelineDepth:      depth,
		PipelineMax:        m.pipelineMax.Load(),
		PublishBatches:     m.publishBatches.Load(),
		PublishedTxns:      m.publishedTxns.Load(),

		VersionsEnumerated:  m.versionsEnumerated.Load(),
		ChainedRowsResolved: m.chainedRowsResolved.Load(),
	}
}

// Txn is one transaction. The zero commit word means active (or
// reserved); ^0 means aborted; any other value is the published commit
// timestamp.
type Txn struct {
	id      uint64
	beginTS uint64
	pinned  bool // owner goroutine only: snapshot observed, beginTS frozen
	mgr     *Manager
	word    atomic.Uint64

	// reserved is set between ReserveCommit and publication (or
	// ResolveAbort). Conflict waiters use it to classify the holder: a
	// reserved timestamp was issued after any live snapshot began, so
	// if it publishes it is certainly too new — waiting is pointless.
	reserved atomic.Bool
	ts       uint64 // reserved commit timestamp; valid once reserved
	durable  bool   // under mgr.mu: commit record survived its sync
	skipped  bool   // under mgr.mu: reservation withdrawn (failed commit)
	// done is closed when the transaction's outcome is settled AND
	// acted on: at publication, or at the abort mark (which the engine
	// only sets after the rollback finished popping version entries).
	done chan struct{}
}

// ID returns the manager-assigned transaction id (1-based).
func (t *Txn) ID() uint64 { return t.id }

// BeginTS returns the snapshot timestamp.
func (t *Txn) BeginTS() uint64 { return t.beginTS }

// Aborted reports whether the transaction has been marked aborted.
func (t *Txn) Aborted() bool { return t.word.Load() == abortedWord }

// Committed reports whether the transaction committed (published). A
// reserved-but-unpublished commit reports false: its durability is not
// settled, so nothing may depend on it committing.
func (t *Txn) Committed() bool {
	w := t.word.Load()
	return w != 0 && w != abortedWord
}

// Reserved reports whether the transaction holds a reserved commit
// timestamp that has not yet published.
func (t *Txn) Reserved() bool { return t.reserved.Load() }

// Visible reports whether writer w's writes are visible to reader t:
// t wrote them itself, or w published at or before t's snapshot.
func (t *Txn) Visible(w *Txn) bool {
	if w == t {
		return true
	}
	word := w.word.Load()
	return word != 0 && word != abortedWord && word <= t.beginTS
}

// Commit commits synchronously: reserve (if the caller has not
// already), mark durable, and wait for publication. Durability (WAL
// commit) must already be settled by the caller: publication makes the
// writes visible. Callers that pipeline use ReserveCommit before their
// log sync and MarkDurable after instead; Commit then just completes
// the publication.
func (t *Txn) Commit() {
	t.mgr.ReserveCommit(t)
	t.mgr.MarkDurable(t)
}

// Abort marks the transaction aborted, deregisters it, and releases
// any conflict waiters. The caller must have finished undoing the
// transaction's writes first (and ResolveAbort-ed a failed commit
// reservation): marking makes its remaining chain entries GC-eligible,
// so a not-yet-undone row could lose the chain that redirects readers
// away from its pre-undo page bytes.
//
// Aborts sweep the version stores eagerly rather than on the commit
// path's amortized schedule: an abort is off the throughput-critical
// path, and an aborting reader is often the oldest snapshot — the one
// whose departure makes every retained chain collectable at once.
func (t *Txn) Abort() {
	m := t.mgr
	m.mu.Lock()
	t.word.Store(abortedWord)
	delete(m.active, t.id)
	close(t.done)
	m.mu.Unlock()
	m.finishes.Add(1)
	m.sweep()
}
