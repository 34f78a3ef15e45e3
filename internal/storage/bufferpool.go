package storage

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// PoolStats is a snapshot of buffer-pool counters, split by page
// category the way the paper reports them (Table 2, Fig 7c). For a
// sharded pool the snapshot is the sum over all shards, so the totals
// are identical to what a single-mutex pool would have counted: every
// page access increments exactly one shard's counters.
type PoolStats struct {
	LogicalReads  [2]int64 // indexed by Category
	PhysicalReads [2]int64
	Evictions     int64
	// GateStalls counts eviction attempts where every unpinned victim was
	// held back by the no-steal gate, forcing the shard to grow past its
	// frame budget until the gating statement finishes.
	GateStalls int64
	Capacity   int // frames
	Resident   int // frames currently cached
}

// HitRatio returns the buffer hit ratio for a category in [0,1];
// it returns 1 when there were no reads.
func (s PoolStats) HitRatio(c Category) float64 {
	lr := s.LogicalReads[c]
	if lr == 0 {
		return 1
	}
	return 1 - float64(s.PhysicalReads[c])/float64(lr)
}

// TotalLogicalReads sums logical reads across categories.
func (s PoolStats) TotalLogicalReads() int64 {
	return s.LogicalReads[CatData] + s.LogicalReads[CatIndex]
}

// TotalPhysicalReads sums physical reads across categories.
func (s PoolStats) TotalPhysicalReads() int64 {
	return s.PhysicalReads[CatData] + s.PhysicalReads[CatIndex]
}

type frame struct {
	id    PageID
	data  []byte
	pins  int
	dirty bool
	cat   Category

	// prev and next link the frame into its shard's LRU list; both are
	// nil while the frame is pinned.
	prev, next *frame

	// lsn is the page's pageLSN: the LSN of the last log record applied
	// to it (NoLSN when it has never been mutated under WAL). recLSN is
	// the frame-start LSN of the FIRST record since the page was last
	// clean — the dirty-page-table entry that bounds log truncation.
	lsn    LSN
	recLSN LSN

	// ready is closed once the page content is loaded; concurrent
	// fetchers of a page that is still being read from disk wait on it
	// (the I/O latch). loadErr records a failed load.
	ready   chan struct{}
	loadErr error
}

// lruList is the LRU order of a shard's unpinned frames, linked through
// the frames themselves (a ring around root), so that taking a frame
// out and putting it back on every page visit allocates nothing.
type lruList struct{ root frame }

func (l *lruList) init() { l.root.prev, l.root.next = &l.root, &l.root }

func (l *lruList) empty() bool { return l.root.next == &l.root }

func (l *lruList) pushBack(f *frame) {
	f.prev, f.next = l.root.prev, &l.root
	f.prev.next, l.root.prev = f, f
}

func (l *lruList) remove(f *frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// poolShard is one independently locked slice of the pool: its own
// frame map, LRU list, byte budget, and counters.
type poolShard struct {
	mu       sync.Mutex
	disk     *Disk
	gate     WALGate // nil when running without a WAL
	frames   map[PageID]*frame
	lru      lruList // front = LRU victim candidate, back = most recent
	capacity int     // max resident frames in this shard

	stats PoolStats
}

// BufferPool caches disk pages with LRU replacement. Its capacity is
// expressed in bytes so the engine can charge the per-table meta-data
// tax (4 KB per table, per the paper's DB2 figure) against the same
// memory budget: more tables -> smaller pool -> the §5 degradation.
//
// The pool is split into power-of-two shards selected by PageID hash
// so concurrent sessions do not serialize on a single mutex; tiny
// configurations collapse to one shard so frame-exhaustion behaviour
// matches an unsharded pool.
type BufferPool struct {
	disk   *Disk
	shards []*poolShard
	mask   uint64

	// fetchFault, when set, is consulted at the top of every Fetch and
	// NewPage; a non-nil return fails the access before any state
	// changes. Unlike Disk.SetFault it fires on cache hits too, which
	// makes it the deterministic hook for fault-injection tests.
	fetchFault atomic.Pointer[FetchFaultFn]
}

// SetWALGate installs the write-ahead log's gate on every shard. Wire
// it before the pool serves traffic (the engine does so at Open); a nil
// gate restores the WAL-free behaviour.
func (p *BufferPool) SetWALGate(g WALGate) {
	for _, s := range p.shards {
		s.mu.Lock()
		s.gate = g
		s.mu.Unlock()
	}
}

// StampLSN records that the log record ending at lsn (whose frame
// starts at recLSN) has been applied to the page. Called by the WAL
// statement scope right after appending the record, while the mutated
// page is still pinned. A missing frame is ignored — it can only mean
// the page was already evicted, which requires it to have been clean
// and stamped on disk.
func (p *BufferPool) StampLSN(id PageID, lsn, recLSN LSN) {
	s := p.shard(id)
	s.mu.Lock()
	if f, ok := s.frames[id]; ok {
		f.lsn = lsn
		if f.recLSN == NoLSN {
			f.recLSN = recLSN
		}
	}
	s.mu.Unlock()
}

// SetFetchFault installs (or, with nil, removes) a logical-access
// fault hook. See BufferPool.fetchFault.
func (p *BufferPool) SetFetchFault(fn FetchFaultFn) {
	if fn == nil {
		p.fetchFault.Store(nil)
		return
	}
	p.fetchFault.Store(&fn)
}

func (p *BufferPool) checkFetchFault(id PageID, cat Category) error {
	if fp := p.fetchFault.Load(); fp != nil {
		return (*fp)(id, cat)
	}
	return nil
}

// ErrPoolExhausted is returned when every frame is pinned and a new page
// must be brought in.
var ErrPoolExhausted = errors.New("storage: buffer pool exhausted (all frames pinned)")

// errAllGated is the internal verdict of an eviction pass that found
// unpinned victims but every one was held back by the no-steal gate.
// Unlike ErrPoolExhausted it is not an error to callers: the shard
// grows past its budget and retries once the gating statement ends.
var errAllGated = errors.New("storage: all eviction victims gated by no-steal")

// closedChan is a pre-closed ready channel for frames born loaded.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// minShardFrames is the smallest initial per-shard frame budget; pools
// too small to give every shard this many frames use fewer shards.
const minShardFrames = 8

// shardCount picks the number of shards: a power of two, at most
// min(16, GOMAXPROCS*2), reduced until every shard starts with at
// least minShardFrames frames (a 8-frame pool gets exactly one shard,
// preserving single-pool pin/exhaustion semantics).
func shardCount(totalFrames int) int {
	limit := runtime.GOMAXPROCS(0) * 2
	if limit > 16 {
		limit = 16
	}
	n := 1
	for n*2 <= limit {
		n *= 2
	}
	for n > 1 && totalFrames/n < minShardFrames {
		n /= 2
	}
	return n
}

// totalFramesFor converts a byte budget into a frame count (minimum 8
// frames so tiny configurations still function).
func (p *BufferPool) totalFramesFor(capacityBytes int64) int {
	frames := int(capacityBytes / int64(p.disk.PageSize()))
	if frames < 8 {
		frames = 8
	}
	return frames
}

// NewBufferPool creates a pool over disk holding at most capacityBytes
// of pages (minimum 8 frames so tiny configurations still function).
func NewBufferPool(disk *Disk, capacityBytes int64) *BufferPool {
	p := &BufferPool{disk: disk}
	total := p.totalFramesFor(capacityBytes)
	n := shardCount(total)
	p.mask = uint64(n - 1)
	p.shards = make([]*poolShard, n)
	for i := range p.shards {
		p.shards[i] = &poolShard{disk: disk, frames: make(map[PageID]*frame)}
		p.shards[i].lru.init()
	}
	for i, c := range splitCapacity(total, n) {
		p.shards[i].capacity = c
	}
	return p
}

// splitCapacity distributes totalFrames over n shards: base share plus
// one extra for the first remainder shards, with a minimum of one frame
// per shard (rounding up so tiny budgets never starve a shard).
func splitCapacity(totalFrames, n int) []int {
	out := make([]int, n)
	base, rem := totalFrames/n, totalFrames%n
	for i := range out {
		c := base
		if i < rem {
			c++
		}
		if c < 1 {
			c = 1
		}
		out[i] = c
	}
	return out
}

// shard selects the home shard of a page. The Fibonacci multiplier
// spreads sequential PageIDs (heap pages are allocated in runs) evenly
// across shards.
func (p *BufferPool) shard(id PageID) *poolShard {
	return p.shards[(uint64(id)*0x9E3779B97F4A7C15>>32)&p.mask]
}

// NumShards reports the shard count (for tests and diagnostics).
func (p *BufferPool) NumShards() int { return len(p.shards) }

// SetCapacityBytes resizes the pool, redistributing the byte budget
// across shards; shrinking evicts unpinned pages immediately. If every
// page of a shard is pinned the shrink is deferred: the shard stays
// over budget and the next Unpin that releases a page retries the
// eviction. The catalog calls this when tables are created or dropped
// to keep the meta-data budget accounting current.
func (p *BufferPool) SetCapacityBytes(capacityBytes int64) error {
	caps := splitCapacity(p.totalFramesFor(capacityBytes), len(p.shards))
	for i, s := range p.shards {
		s.mu.Lock()
		s.capacity = caps[i]
		err := s.shrinkLocked()
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// shrinkLocked evicts until the shard is within budget. A fully pinned
// shard is not an error: the shrink is deferred to the next Unpin.
// I/O failures writing back dirty victims are reported.
func (s *poolShard) shrinkLocked() error {
	for len(s.frames) > s.capacity {
		if err := s.evictOneLocked(); err != nil {
			if errors.Is(err, ErrPoolExhausted) || errors.Is(err, errAllGated) {
				return nil // every remaining page pinned or gated; retried later
			}
			return err
		}
	}
	return nil
}

// PageSize returns the page size of the underlying disk.
func (p *BufferPool) PageSize() int { return p.disk.PageSize() }

// Capacity returns the pool size in frames (summed over shards).
func (p *BufferPool) Capacity() int {
	total := 0
	for _, s := range p.shards {
		s.mu.Lock()
		total += s.capacity
		s.mu.Unlock()
	}
	return total
}

// Fetch pins the page and returns its in-memory buffer. The caller must
// Unpin it. cat tags the page for hit-ratio accounting on first load.
func (p *BufferPool) Fetch(id PageID, cat Category) ([]byte, error) {
	if id == InvalidPageID {
		return nil, fmt.Errorf("storage: fetch of invalid page")
	}
	if err := p.checkFetchFault(id, cat); err != nil {
		return nil, err
	}
	s := p.shard(id)
	s.mu.Lock()
	s.stats.LogicalReads[cat]++
	if f, ok := s.frames[id]; ok {
		f.pins++
		if f.next != nil {
			s.lru.remove(f)
		}
		ready := f.ready
		s.mu.Unlock()
		// Wait for a concurrent loader to finish filling the frame.
		<-ready
		if err := f.loadErr; err != nil {
			s.mu.Lock()
			f.pins--
			if f.pins == 0 {
				delete(s.frames, id)
			}
			s.mu.Unlock()
			return nil, err
		}
		return f.data, nil
	}
	s.stats.PhysicalReads[cat]++
	if err := s.makeRoomLocked(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	f := &frame{id: id, data: make([]byte, p.disk.PageSize()), pins: 1, cat: cat,
		ready: make(chan struct{})}
	s.frames[id] = f
	s.mu.Unlock()
	// Read outside the lock: the page is pinned and not in the LRU so it
	// cannot be evicted concurrently; simulated latency must not stall
	// other sessions (real databases overlap I/O the same way).
	err := p.disk.Read(id, f.data)
	s.mu.Lock()
	f.loadErr = err
	if err == nil {
		f.lsn = p.disk.PageLSN(id)
	}
	close(f.ready)
	if err != nil {
		f.pins--
		if f.pins == 0 {
			delete(s.frames, id)
		}
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return f.data, nil
}

// NewPage allocates a fresh page on disk, pins it, and returns its ID
// and buffer.
func (p *BufferPool) NewPage(cat Category) (PageID, []byte, error) {
	if err := p.checkFetchFault(InvalidPageID, cat); err != nil {
		return InvalidPageID, nil, err
	}
	id := p.disk.AllocCat(cat)
	s := p.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.makeRoomLocked(); err != nil {
		return InvalidPageID, nil, err
	}
	f := &frame{id: id, data: make([]byte, p.disk.PageSize()), pins: 1, dirty: true, cat: cat,
		ready: closedChan}
	s.frames[id] = f
	return id, f.data, nil
}

// Unpin releases one pin; dirty marks the page for write-back on
// eviction or flush. Releasing the last pin also retries any shrink
// that was deferred because every page was pinned.
func (p *BufferPool) Unpin(id PageID, dirty bool) {
	s := p.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frames[id]
	if !ok || f.pins <= 0 {
		panic(fmt.Sprintf("storage: unpin of unpinned page %d", id))
	}
	f.pins--
	if dirty {
		f.dirty = true
	}
	if f.pins == 0 {
		s.lru.pushBack(f)
		if len(s.frames) > s.capacity {
			// Deferred shrink: the pool was resized below its resident
			// count while everything was pinned. Best effort — an I/O
			// error here just leaves the page for the next retry.
			_ = s.shrinkLocked()
		}
	}
}

func (s *poolShard) makeRoomLocked() error {
	for len(s.frames) >= s.capacity {
		if err := s.evictOneLocked(); err != nil {
			if errors.Is(err, errAllGated) {
				// No-steal outranks the frame budget: admit the page and
				// let the deferred shrink reclaim the excess when the
				// gating statement finishes.
				s.stats.GateStalls++
				return nil
			}
			return err
		}
	}
	return nil
}

// evictOneLocked writes back and drops one unpinned frame, walking the
// LRU list from cold to hot. Under a WAL gate a dirty victim must be
// committed work only (no-steal: pageLSN below the oldest active
// statement's begin LSN) and the log must be durable through its
// pageLSN before the write-back (WAL-before-data).
func (s *poolShard) evictOneLocked() error {
	if s.lru.empty() {
		return ErrPoolExhausted
	}
	oldestActive := InfiniteLSN
	if s.gate != nil {
		oldestActive = s.gate.OldestActiveLSN()
	}
	for f := s.lru.root.next; f != &s.lru.root; f = f.next {
		if f.dirty && s.gate != nil && f.lsn != NoLSN && f.lsn >= oldestActive {
			continue // may carry uncommitted work; redo could not undo it
		}
		if f.dirty {
			if s.gate != nil && f.lsn > s.gate.DurableLSN() {
				if err := s.gate.SyncTo(f.lsn); err != nil {
					return err
				}
			}
			if err := s.disk.WriteLSN(f.id, f.data, f.lsn); err != nil {
				return err
			}
		}
		s.lru.remove(f)
		delete(s.frames, f.id)
		s.stats.Evictions++
		return nil
	}
	return errAllGated
}

// FlushAll writes every dirty resident page back to disk without
// evicting anything. Under a WAL gate each write-back honours
// WAL-before-data; pages gated by no-steal (mutated by a still-active
// statement) are skipped and stay dirty.
func (p *BufferPool) FlushAll() error {
	for _, s := range p.shards {
		s.mu.Lock()
		oldestActive := InfiniteLSN
		if s.gate != nil {
			oldestActive = s.gate.OldestActiveLSN()
		}
		for _, f := range s.frames {
			if !f.dirty {
				continue
			}
			if s.gate != nil && f.lsn != NoLSN && f.lsn >= oldestActive {
				continue
			}
			if s.gate != nil && f.lsn > s.gate.DurableLSN() {
				if err := s.gate.SyncTo(f.lsn); err != nil {
					s.mu.Unlock()
					return err
				}
			}
			if err := s.disk.WriteLSN(f.id, f.data, f.lsn); err != nil {
				s.mu.Unlock()
				return err
			}
			f.dirty = false
			f.recLSN = NoLSN
		}
		s.mu.Unlock()
	}
	return nil
}

// DropAll flushes dirty pages and empties the cache — the "flush the
// buffer pool and the disk cache between runs" step of the paper's
// cold-cache Test 5. It fails if any page is pinned. All shards are
// locked together so the drop is atomic with respect to fetchers.
func (p *BufferPool) DropAll() error {
	for _, s := range p.shards {
		s.mu.Lock()
	}
	defer func() {
		for _, s := range p.shards {
			s.mu.Unlock()
		}
	}()
	for _, s := range p.shards {
		for _, f := range s.frames {
			if f.pins > 0 {
				return fmt.Errorf("storage: DropAll with pinned page %d", f.id)
			}
		}
	}
	for _, s := range p.shards {
		for _, f := range s.frames {
			if f.dirty {
				if s.gate != nil && f.lsn > s.gate.DurableLSN() {
					if err := s.gate.SyncTo(f.lsn); err != nil {
						return err
					}
				}
				if err := s.disk.WriteLSN(f.id, f.data, f.lsn); err != nil {
					return err
				}
			}
		}
		s.frames = make(map[PageID]*frame)
		s.lru.init()
	}
	return nil
}

// Crash discards every resident frame without writing anything back —
// the volatile half of power loss. Pins are ignored: the sessions that
// held them died with the machine. The disk and the WAL's durable
// prefix are all that survive.
func (p *BufferPool) Crash() {
	for _, s := range p.shards {
		s.mu.Lock()
		s.frames = make(map[PageID]*frame)
		s.lru.init()
		s.mu.Unlock()
	}
}

// DirtyPageTable snapshots the recLSN of every dirty resident page —
// the table a fuzzy checkpoint records so recovery knows how far back
// replay must start.
func (p *BufferPool) DirtyPageTable() map[PageID]LSN {
	out := make(map[PageID]LSN)
	for _, s := range p.shards {
		s.mu.Lock()
		for id, f := range s.frames {
			if f.dirty && f.recLSN != NoLSN {
				out[id] = f.recLSN
			}
		}
		s.mu.Unlock()
	}
	return out
}

// OldestRecLSN returns the smallest recLSN among dirty pages, or
// InfiniteLSN when none is dirty. Log truncation must not pass it.
func (p *BufferPool) OldestRecLSN() LSN {
	oldest := InfiniteLSN
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.dirty && f.recLSN != NoLSN && f.recLSN < oldest {
				oldest = f.recLSN
			}
		}
		s.mu.Unlock()
	}
	return oldest
}

// FreePage removes a page from the cache (if resident) and releases it
// on disk. The page must not be pinned.
func (p *BufferPool) FreePage(id PageID) error {
	s := p.shard(id)
	s.mu.Lock()
	if f, ok := s.frames[id]; ok {
		if f.pins > 0 {
			s.mu.Unlock()
			return fmt.Errorf("storage: FreePage of pinned page %d", id)
		}
		if f.next != nil {
			s.lru.remove(f)
		}
		delete(s.frames, id)
	}
	s.mu.Unlock()
	p.disk.Free(id)
	return nil
}

// Stats returns a snapshot of the pool counters, aggregated over
// shards so the totals match the pre-shard single-pool accounting.
func (p *BufferPool) Stats() PoolStats {
	var out PoolStats
	for _, s := range p.shards {
		s.mu.Lock()
		for c := 0; c < 2; c++ {
			out.LogicalReads[c] += s.stats.LogicalReads[c]
			out.PhysicalReads[c] += s.stats.PhysicalReads[c]
		}
		out.Evictions += s.stats.Evictions
		out.GateStalls += s.stats.GateStalls
		out.Capacity += s.capacity
		out.Resident += len(s.frames)
		s.mu.Unlock()
	}
	return out
}

// ResetStats zeroes the counters (capacity/resident are recomputed).
func (p *BufferPool) ResetStats() {
	for _, s := range p.shards {
		s.mu.Lock()
		s.stats = PoolStats{}
		s.mu.Unlock()
	}
}
