package wal

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// ErrCrashed is returned by every log operation after a (simulated)
// crash; the engine surfaces it to the session that hit the crash.
var ErrCrashed = errors.New("wal: log crashed")

// FaultOp distinguishes the log operations the crash harness can target.
type FaultOp uint8

const (
	// OpAppend is a record append into the volatile tail.
	OpAppend FaultOp = iota
	// OpSync is a durability barrier moving the tail into the durable
	// prefix. A fault here may leave a torn prefix of the tail durable.
	OpSync
)

func (op FaultOp) String() string {
	if op == OpSync {
		return "sync"
	}
	return "append"
}

// FaultFn inspects an imminent log operation; a non-nil return fails
// it. For OpSync the hook may return a *PartialSyncError to model a
// torn sync: that many tail bytes become durable before the failure.
type FaultFn func(op FaultOp, seq int64) error

// PartialSyncError is the torn-sync verdict: the sync crashes after
// Bytes bytes of the tail reached the durable prefix.
type PartialSyncError struct{ Bytes int }

func (e *PartialSyncError) Error() string { return "wal: injected torn sync" }

// Config parameterizes a Log.
type Config struct {
	// SyncLatency is added to every sync, modeling the fsync cost that
	// makes group commit worthwhile. Zero keeps unit tests fast.
	SyncLatency time.Duration
	// NoGroupCommit makes every commit issue its own sync instead of
	// piggybacking on an in-flight one (the benchmark's baseline mode).
	NoGroupCommit bool
}

// Stats is a snapshot of the log's durability counters.
type Stats struct {
	BytesAppended int64
	Records       int64
	Syncs         int64
	Commits       int64
	// BatchSizes histograms commits made durable per sync: buckets for
	// batch sizes 1, 2-3, 4-7, and 8+.
	BatchSizes [4]int64
	// Checkpoints counts KCheckpoint records appended.
	Checkpoints int64
	// TruncatedBytes counts log bytes reclaimed by checkpoints.
	TruncatedBytes int64
	// DurableBytes is the current durable log length (not reset).
	DurableBytes int64
}

// BatchBucket returns the BatchSizes index for a batch of n commits.
func BatchBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n <= 3:
		return 1
	case n <= 7:
		return 2
	default:
		return 3
	}
}

// Log is the write-ahead log. It is safe for concurrent use; appends
// from concurrent statements interleave, each record tagged with its
// statement ID.
type Log struct {
	cfg Config

	// pool is the buffer pool whose pages the scopes stamp. Set once at
	// engine start via AttachPool; wal→storage is the only dependency
	// direction, so the mutual wiring lives here rather than in storage.
	pool *storage.BufferPool

	mu      sync.Mutex
	cond    *sync.Cond // broadcast when a sync finishes
	durable []byte     // the prefix a crash preserves
	tail    []byte     // appended but not yet synced
	base    LSN        // stream offset of durable[0]
	crashed bool
	syncing bool

	nextTxn uint64
	active  map[uint64]LSN // stmt id -> begin-record LSN

	pendingCommits []LSN // commit records awaiting durability
	bytesSinceCkpt int64

	fault    FaultFn
	faultSeq atomic.Int64

	stats Stats
}

// New creates an empty log. The stream starts at LSN 1 so that LSN 0
// stays free to mean "never logged" on pages.
func New(cfg Config) *Log {
	l := &Log{cfg: cfg, base: 1, active: make(map[uint64]LSN)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// AttachPool wires the buffer pool whose pages statement scopes stamp
// with record LSNs.
func (l *Log) AttachPool(pool *storage.BufferPool) { l.pool = pool }

// SetFault installs (or removes) the fault hook. The operation sequence
// counter restarts on every install. A CrashPlan that needs one counter
// across disk and log operations keeps its own and ignores seq.
func (l *Log) SetFault(fn FaultFn) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fault = fn
	l.faultSeq.Store(0)
}

func (l *Log) checkFaultLocked(op FaultOp) error {
	if l.fault == nil {
		return nil
	}
	return l.fault(op, l.faultSeq.Add(1))
}

func (l *Log) durableEndLocked() LSN { return l.base + LSN(len(l.durable)) }
func (l *Log) headLocked() LSN       { return l.durableEndLocked() + LSN(len(l.tail)) }

// DurableLSN returns the LSN through which the log is durable: a record
// is crash-safe iff its LSN is <= DurableLSN().
func (l *Log) DurableLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableEndLocked()
}

// Base returns the LSN of the first byte still retained by the log —
// the truncation point, and the frame start of the first record
// DurableRecords returns.
func (l *Log) Base() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// Head returns the LSN just past the last appended (possibly volatile)
// record.
func (l *Log) Head() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.headLocked()
}

// OldestActiveLSN returns the begin LSN of the oldest in-flight
// statement, or storage.InfiniteLSN when none is active. The buffer
// pool's no-steal gate keys off this.
func (l *Log) OldestActiveLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	oldest := storage.InfiniteLSN
	for _, lsn := range l.active {
		if lsn < oldest {
			oldest = lsn
		}
	}
	return oldest
}

// Append adds a record to the volatile tail and returns its LSN (the
// offset just past its frame). Nothing is durable until a sync covers
// it.
func (l *Log) Append(r *Record) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(r)
}

// append is Append plus the frame's start offset, which scopes hand to
// StampLSN as the page's recLSN (the truncation bound that keeps the
// record replayable).
func (l *Log) append(r *Record) (start, lsn LSN, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start = l.headLocked()
	lsn, err = l.appendLocked(r)
	if err != nil {
		return 0, 0, err
	}
	return start, lsn, nil
}

func (l *Log) appendLocked(r *Record) (LSN, error) {
	if l.crashed {
		return 0, ErrCrashed
	}
	if err := l.checkFaultLocked(OpAppend); err != nil {
		// A crash verdict downs the whole log; any other injected error
		// fails just this append.
		if errors.Is(err, ErrCrashed) {
			l.crashed = true
			l.cond.Broadcast()
		}
		return 0, err
	}
	before := len(l.tail)
	l.tail = appendFrame(l.tail, r.encode(nil))
	n := int64(len(l.tail) - before)
	l.stats.BytesAppended += n
	l.stats.Records++
	l.bytesSinceCkpt += n
	r.LSN = l.headLocked()
	return r.LSN, nil
}

// Sync forces everything appended so far into the durable prefix.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

// SyncTo forces the log durable through at least lsn (the storage
// WALGate hook; the buffer pool calls it before writing back a page
// whose pageLSN is past the durable horizon).
func (l *Log) SyncTo(lsn LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.durableEndLocked() >= lsn {
		return nil
	}
	return l.syncLocked()
}

// syncLocked moves the tail into the durable prefix. The caller holds
// l.mu. A torn-sync fault moves only a prefix and crashes the log.
func (l *Log) syncLocked() error {
	if l.crashed {
		return ErrCrashed
	}
	if err := l.checkFaultLocked(OpSync); err != nil {
		var partial *PartialSyncError
		if errors.As(err, &partial) {
			n := partial.Bytes
			if n > len(l.tail) {
				n = len(l.tail)
			}
			l.extendDurableLocked(l.tail[:n])
			l.tail = l.tail[n:]
		}
		l.crashed = true
		l.cond.Broadcast()
		return err
	}
	if l.cfg.SyncLatency > 0 {
		l.mu.Unlock()
		time.Sleep(l.cfg.SyncLatency)
		l.mu.Lock()
		if l.crashed {
			return ErrCrashed
		}
	}
	l.extendDurableLocked(l.tail)
	l.tail = l.tail[:0]
	l.stats.Syncs++
	l.settleCommitsLocked()
	l.cond.Broadcast()
	return nil
}

// extendDurableLocked appends b to the durable prefix, doubling the
// buffer when it is full. A checkpoint truncates only up to the oldest
// record a still-dirty page needs, so with a pool that never evicts the
// prefix grows for as long as the process runs; the runtime's 1.25×
// policy for large slices then re-copies it (and faults in a fresh
// region) five times over per byte kept, where doubling does it twice.
func (l *Log) extendDurableLocked(b []byte) {
	if need := len(l.durable) + len(b); need > cap(l.durable) {
		l.durable = append(make([]byte, 0, max(2*cap(l.durable), need)), l.durable...)
	}
	l.durable = append(l.durable, b...)
}

// settleCommitsLocked moves newly durable commits out of the pending
// list and records the group-commit batch size.
func (l *Log) settleCommitsLocked() {
	end := l.durableEndLocked()
	kept := l.pendingCommits[:0]
	settled := 0
	for _, lsn := range l.pendingCommits {
		if lsn <= end {
			settled++
		} else {
			kept = append(kept, lsn)
		}
	}
	l.pendingCommits = kept
	if settled > 0 {
		l.stats.BatchSizes[BatchBucket(settled)]++
	}
}

// Commit waits until the log is durable through lsn (a commit record's
// LSN). With group commit, concurrent commits share one sync: the first
// waiter becomes the leader and syncs the whole tail — including
// records appended by statements that arrived while the leader slept in
// its fsync — and the followers find their LSN already durable.
func (l *Log) Commit(lsn LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Commits++
	l.pendingCommits = append(l.pendingCommits, lsn)
	if l.cfg.NoGroupCommit {
		// Baseline mode: every commit pays its own sync.
		for l.syncing {
			l.cond.Wait()
		}
		if l.crashed {
			return ErrCrashed
		}
		l.syncing = true
		err := l.syncLocked()
		l.syncing = false
		l.cond.Broadcast()
		return err
	}
	for {
		if l.durableEndLocked() >= lsn {
			return nil
		}
		if l.crashed {
			return ErrCrashed
		}
		if !l.syncing {
			break
		}
		l.cond.Wait()
	}
	l.syncing = true
	err := l.syncLocked()
	l.syncing = false
	l.cond.Broadcast()
	if err != nil {
		return err
	}
	if l.durableEndLocked() < lsn {
		return ErrCrashed
	}
	return nil
}

// Begin opens a transaction scope (one autocommit statement or one
// interactive multi-statement transaction): appends the begin record
// and registers the scope as active for the no-steal gate and for
// checkpoint truncation (an open scope's records must survive until
// its terminator is durable).
func (l *Log) Begin() (*Scope, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed {
		return nil, ErrCrashed
	}
	l.nextTxn++
	id := l.nextTxn
	lsn, err := l.appendLocked(&Record{Kind: KBegin, Txn: id})
	if err != nil {
		return nil, err
	}
	l.active[id] = lsn
	return &Scope{l: l, id: id}, nil
}

func (l *Log) endTxn(id uint64) {
	l.mu.Lock()
	delete(l.active, id)
	l.mu.Unlock()
}

// AppendCheckpoint writes a checkpoint record carrying the serialized
// catalog snapshot and dirty-page table. It returns the LSN of the
// frame's first byte (the truncation bound that keeps the record) and
// the record's LSN.
func (l *Log) AppendCheckpoint(payload []byte) (start, lsn LSN, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start = l.headLocked()
	lsn, err = l.appendLocked(&Record{Kind: KCheckpoint, Data: payload})
	if err != nil {
		return 0, 0, err
	}
	l.stats.Checkpoints++
	l.bytesSinceCkpt = 0
	return start, lsn, nil
}

// BytesSinceCheckpoint returns the log bytes appended since the last
// checkpoint (the engine's auto-checkpoint trigger).
func (l *Log) BytesSinceCheckpoint() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytesSinceCkpt
}

// TruncateTo discards durable log bytes before lsn. The bound must not
// exceed the durable horizon; truncation never touches the tail.
func (l *Log) TruncateTo(lsn LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn <= l.base {
		return
	}
	end := l.durableEndLocked()
	if lsn > end {
		lsn = end
	}
	n := int(lsn - l.base)
	l.stats.TruncatedBytes += int64(n)
	// Compact in place and keep the capacity: the buffer settles at the
	// size one checkpoint interval needs instead of regrowing from the
	// retained suffix after every checkpoint. Nothing outside l.mu may
	// alias l.durable for this to be sound — every reader copies out.
	l.durable = l.durable[:copy(l.durable, l.durable[n:])]
	l.base = lsn
}

// Crashed reports whether the log is down (explicit Crash or a fault
// verdict). The engine checks it before logging rollback compensations:
// on a dead log the physical undo still runs, unlogged — recovery will
// classify the transaction by the durable records alone.
func (l *Log) Crashed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.crashed
}

// Crash drops the volatile tail and fails every subsequent operation,
// modeling power loss. The durable prefix survives for recovery.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.crashed = true
	l.cond.Broadcast()
}

// Reopen readies a crashed log for recovery: the volatile tail and any
// torn durable suffix are discarded, the fault hook is cleared, and
// operations work again. Active-statement bookkeeping resets — those
// statements died with the crash.
func (l *Log) Reopen() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.crashed = false
	l.tail = l.tail[:0]
	l.fault = nil
	l.syncing = false
	l.active = make(map[uint64]LSN)
	l.pendingCommits = nil
	_, end := decodeFrames(l.durable, l.base)
	l.durable = l.durable[:end-l.base]
}

// DurableRecords decodes the durable prefix, stopping at the first torn
// or corrupt frame. The result is what recovery has to work with. The
// records' Key and Data point into a private copy of the prefix, not
// into the log (TruncateTo compacts that in place).
func (l *Log) DurableRecords() []*Record {
	l.mu.Lock()
	buf := append([]byte(nil), l.durable...)
	base := l.base
	l.mu.Unlock()
	recs, _ := decodeFrames(buf, base)
	return recs
}

// Stats returns a snapshot of the counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.DurableBytes = int64(len(l.durable))
	return s
}

// ResetStats zeroes the counters (DurableBytes is recomputed).
func (l *Log) ResetStats() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats = Stats{}
}
