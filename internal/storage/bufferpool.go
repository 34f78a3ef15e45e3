package storage

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
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
	// held back by the no-steal gate (or was still loading), forcing the
	// shard to grow past its frame budget until the gating statement
	// finishes.
	GateStalls int64
	Capacity   int // frames
	Resident   int // frames currently cached

	// Prefetches counts loads started by a hint (each is also a physical
	// read of its category, never a logical one). Every one ends as
	// exactly one of: PrefetchJoined — a demand Fetch found the page
	// loading, or loaded and not yet touched; PrefetchWasted — the frame
	// was evicted (or dropped by DropAll) untouched; PrefetchFailed — the
	// read failed, or the page was freed or the pool crashed under it; or
	// it is still resident untouched.
	Prefetches     int64
	PrefetchJoined int64
	PrefetchWasted int64
	PrefetchFailed int64
	// PrefetchDropped counts hints refused because maxInflight loads
	// were already running or no frame could be freed for them.
	PrefetchDropped int64
	// PeakInflight is the most hinted loads ever running at once.
	PeakInflight int
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
	// (the I/O latch). loadErr records a failed load. loading is true
	// until then: a loading frame is never evicted, dropped or freed.
	// loading is cleared and loadErr written in one critical section of
	// the shard mutex, so whoever holds it and reads loading false has the
	// load's outcome without touching ready — which a frame born loaded
	// (NewPage) does not have.
	ready   chan struct{}
	loadErr error
	loading bool

	// hinted marks a frame a Prefetch installed and no Fetch has touched
	// yet. It sits in the LRU list unpinned, at the position it took when
	// the hint was issued.
	hinted bool
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
	hinted   int     // frames with the hinted mark set

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

	// inflight counts the hinted loads running now, peak the most there
	// have been.
	inflight, peak atomic.Int64
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

// ErrPoolExhausted is returned when every frame of a shard is pinned and
// a new page must be brought in (unless a shrink left the shard below
// minShardFrames: see makeRoomLocked).
var ErrPoolExhausted = errors.New("storage: buffer pool exhausted (all frames pinned)")

// errAllGated is the internal verdict of an eviction pass that found
// unpinned victims but every one was held back by the no-steal gate.
// Unlike ErrPoolExhausted it is not an error to callers: the shard
// grows past its budget and retries once the gating statement ends.
var errAllGated = errors.New("storage: all eviction victims gated by no-steal")

// minShardFrames is the smallest initial per-shard frame budget; pools
// too small to give every shard this many frames use fewer shards.
const minShardFrames = 8

// maxShards bounds the shard count. Sixteen mutexes are enough that two
// sessions on unrelated pages meet on one fetch in sixteen, and cost a
// small pool nothing: shardCount gives it fewer.
const maxShards = 16

// shardCount picks the number of shards: the largest power of two up to
// maxShards that starts every shard with at least minShardFrames frames
// (an 8-frame pool gets exactly one shard, preserving single-pool
// pin/exhaustion semantics). It is a function of the pool's frames
// alone, not of the core count, so that which pages share a shard's
// frame budget and hint cap — and with them eviction order, page counts
// and dropped hints — are the same on every machine.
func shardCount(totalFrames int) int {
	n := maxShards
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
				return nil // every remaining page pinned, gated or loading; retried later
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
	for {
		f, ok := s.frames[id]
		if !ok {
			break
		}
		f.pins++
		if f.next != nil {
			s.lru.remove(f)
		}
		s.unhintLocked(f, &s.stats.PrefetchJoined)
		if !f.loading && f.loadErr == nil {
			// The hit: one lock, and nothing shared with other pages.
			s.mu.Unlock()
			return f.data, nil
		}
		ready := f.ready
		s.mu.Unlock()
		// Wait for a concurrent loader to finish filling the frame (a
		// failed load's frame, kept by its earlier waiters, is not waited
		// for: its latch is open).
		<-ready
		err := f.loadErr
		if err == nil {
			return f.data, nil
		}
		s.mu.Lock()
		if err == errHintFailed {
			continue // its loader already removed the frame; read the page ourselves
		}
		f.pins--
		if f.pins == 0 {
			s.forgetLocked(f)
		}
		s.mu.Unlock()
		return nil, err
	}
	f, err := s.installLocked(id, cat, false)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	f.pins = 1
	s.mu.Unlock()
	if err := p.load(s, f, false, p.disk.ReadLatency); err != nil {
		return nil, err
	}
	return f.data, nil
}

// maxInflight caps the hinted loads one pool runs at once; a hint past
// it is dropped and counted. It is a constant because it only has to
// exceed what a few statements announce together (a read-ahead window,
// a write set), and because a result that needs more would rest on the
// disk model's unbounded queue depth.
const maxInflight = 64

// errHintFailed is the loadErr of a frame whose hinted read failed. No
// caller ever sees it: the frame is already gone, and a Fetch that was
// waiting on it reads the page itself and reports what that read finds.
var errHintFailed = errors.New("storage: prefetch failed")

// Prefetch announces that the caller is about to Fetch the page. It is
// a hint: it never waits for the read, never fails, is no logical read
// and does not consult the fetch-fault hook. A page that is resident or
// already loading costs one shard-map lookup. Otherwise the frame is
// installed as a Fetch miss installs it, takes its LRU position now —
// at issue, in program order, so single-client eviction sequences
// repeat — and a goroutine runs the read; a later Fetch joins the load
// instead of starting it. A device with no read latency has nothing to
// overlap, so there every hint is dropped before it takes a lock.
func (p *BufferPool) Prefetch(id PageID, cat Category) {
	latency := p.disk.ReadLatency
	if id == InvalidPageID || latency <= 0 {
		return
	}
	s := p.shard(id)
	s.mu.Lock()
	if _, ok := s.frames[id]; ok {
		s.mu.Unlock()
		return
	}
	var f *frame
	n := p.inflight.Add(1)
	if n <= maxInflight && s.hinted < s.capacity/2 {
		f, _ = s.installLocked(id, cat, true)
	}
	if f == nil {
		// Over the pool's cap or the shard's (hinted pages nobody has
		// touched yet may fill half of it: past that a read-ahead window
		// would evict its own head), or no frame could be freed: every
		// victim pinned, gated or loading, or its write-back failed (the
		// demand fetch will report that).
		p.inflight.Add(-1)
		s.stats.PrefetchDropped++
		s.mu.Unlock()
		return
	}
	for {
		peak := p.peak.Load()
		if n <= peak || p.peak.CompareAndSwap(peak, n) {
			break
		}
	}
	f.hinted = true
	s.hinted++
	s.stats.Prefetches++
	s.lru.pushBack(f)
	s.mu.Unlock()
	go p.load(s, f, true, latency) // a failed hint is silent
}

// Prefetching reports whether hints are live: the device has a read
// latency to overlap. Callers that would do work to compute a hint
// (walk a RID batch, search the free-space cache) ask first; the others
// just call Prefetch, which returns before it takes a lock.
func (p *BufferPool) Prefetching() bool { return p.disk.ReadLatency > 0 }

// installLocked makes room for and registers an empty, loading frame:
// the one miss path of Fetch and Prefetch. The caller pins the frame or
// links it into the LRU list before it releases the shard, then runs
// load.
func (s *poolShard) installLocked(id PageID, cat Category, forHint bool) (*frame, error) {
	if err := s.makeRoomLocked(forHint); err != nil {
		return nil, err
	}
	s.stats.PhysicalReads[cat]++
	size := cmp.Or(s.disk.SizeOf(id), s.disk.PageSize()) // 0: unallocated, the read fails
	f := &frame{id: id, data: make([]byte, size), cat: cat,
		ready: make(chan struct{}), loading: true}
	s.frames[id] = f
	return f, nil
}

// load reads f's page outside the shard mutex — the frame is loading,
// so it cannot be evicted, and simulated latency must not stall other
// sessions (real databases overlap I/O the same way) — then opens the
// frame's I/O latch. A failed demand load leaves its frame to the last
// waiter; a failed hint removes its frame at once and tells nobody.
// latency is the device's, as the session goroutine saw it: a hint's
// goroutine may outlive its statement by this one read, and harnesses
// reassign Disk.ReadLatency between runs.
func (p *BufferPool) load(s *poolShard, f *frame, hint bool, latency time.Duration) error {
	err := p.disk.read(f.id, f.data, latency)
	s.mu.Lock()
	f.loading = false
	switch {
	case err == nil:
		f.lsn = p.disk.PageLSN(f.id)
	case hint:
		err = errHintFailed
		s.forgetLocked(f)
	default:
		f.pins--
		if f.pins == 0 {
			s.forgetLocked(f)
		}
	}
	f.loadErr = err
	close(f.ready)
	if hint {
		p.inflight.Add(-1)
		if len(s.frames) > s.capacity {
			// A shrink that found only loading frames was deferred to here.
			_ = s.shrinkLocked()
		}
	}
	s.mu.Unlock()
	return err
}

// unhintLocked clears f's hinted mark, if set, and counts the one
// outcome every started hint has.
func (s *poolShard) unhintLocked(f *frame, outcome *int64) {
	if f.hinted {
		f.hinted = false
		s.hinted--
		*outcome++
	}
}

// forgetLocked takes f out of the shard if it is still the frame
// registered for its page: Crash orphans frames under their loaders and
// pin holders, and an orphan's links lead into a ring that no longer
// exists. A hinted frame that leaves this way served nobody.
func (s *poolShard) forgetLocked(f *frame) {
	s.unhintLocked(f, &s.stats.PrefetchFailed)
	if s.frames[f.id] != f {
		return
	}
	if f.next != nil {
		s.lru.remove(f)
	}
	delete(s.frames, f.id)
}

// NewPage allocates a fresh page on disk, pins it, and returns its ID
// and buffer.
func (p *BufferPool) NewPage(cat Category) (PageID, []byte, error) {
	return p.newPage(cat, p.disk.PageSize())
}

// newPage is NewPage for a page of size bytes (see Disk.Resize).
func (p *BufferPool) newPage(cat Category, size int) (PageID, []byte, error) {
	if err := p.checkFetchFault(InvalidPageID, cat); err != nil {
		return InvalidPageID, nil, err
	}
	id := p.disk.AllocCat(cat, size)
	s := p.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.makeRoomLocked(false); err != nil {
		return InvalidPageID, nil, err
	}
	f := &frame{id: id, data: make([]byte, size), pins: 1, dirty: true, cat: cat}
	s.frames[id] = f
	return id, f.data, nil
}

// errGrowShared refuses a grow of a page another caller holds pinned.
var errGrowShared = errors.New("storage: page pinned by more than its grower")

// Grow resizes page id, which the caller alone holds pinned, to size
// bytes on disk and in its frame, and returns the frame's new, dirty
// buffer: the old bytes first, zeros after.
func (p *BufferPool) Grow(id PageID, size int) ([]byte, error) {
	s := p.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.frames[id]
	if f == nil || f.pins != 1 {
		return nil, fmt.Errorf("storage: grow of page %d: %w", id, errGrowShared)
	}
	if err := p.disk.Resize(id, size); err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	copy(buf, f.data)
	f.data, f.dirty = buf, true
	return buf, nil
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

// makeRoomLocked evicts until one more frame fits. For a hint it gives
// up where a demand fetch would grow the shard.
func (s *poolShard) makeRoomLocked(forHint bool) error {
	for len(s.frames) >= s.capacity {
		err := s.evictOneLocked()
		switch {
		case err == nil:
			continue
		case forHint:
		case errors.Is(err, errAllGated):
			// No-steal outranks the frame budget: admit the page and
			// let the deferred shrink reclaim the excess when the
			// gating statement finishes.
			s.stats.GateStalls++
			return nil
		case errors.Is(err, ErrPoolExhausted) && s.capacity < minShardFrames:
			// Every frame pinned in a shard that a shrink left smaller
			// than any shard starts: too few for the pages one
			// statement holds at once (an index-NL join holds its outer
			// scan's leaf, its own leaf and heap page). Admit the page
			// the same way; the deferred shrink runs at Unpin.
			return nil
		}
		return err
	}
	return nil
}

// evictOneLocked writes back and drops one unpinned frame, walking the
// LRU list from cold to hot. Under a WAL gate a dirty victim must be
// committed work only (no-steal: pageLSN below the oldest active
// statement's begin LSN) and the log must be durable through its
// pageLSN before the write-back (WAL-before-data). A frame still
// loading is held back like a gated one.
func (s *poolShard) evictOneLocked() error {
	if s.lru.empty() {
		return ErrPoolExhausted
	}
	oldestActive := InfiniteLSN
	if s.gate != nil {
		oldestActive = s.gate.OldestActiveLSN()
	}
	for f := s.lru.root.next; f != &s.lru.root; f = f.next {
		if f.loading {
			continue
		}
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
		s.unhintLocked(f, &s.stats.PrefetchWasted)
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
// locked together so the drop is atomic with respect to fetchers; a
// load in flight is waited for, not failed on.
func (p *BufferPool) DropAll() error {
	p.lockQuiet()
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
		for _, f := range s.frames {
			s.unhintLocked(f, &s.stats.PrefetchWasted)
		}
		s.frames = make(map[PageID]*frame)
		s.lru.init()
	}
	return nil
}

// lockQuiet locks every shard at a moment when no frame is loading.
func (p *BufferPool) lockQuiet() {
	for {
		var loading *frame
		for _, s := range p.shards {
			s.mu.Lock()
			for _, f := range s.frames {
				if f.loading {
					loading = f
				}
			}
		}
		if loading == nil {
			return
		}
		for _, s := range p.shards {
			s.mu.Unlock()
		}
		<-loading.ready
	}
}

// Crash discards every resident frame without writing anything back —
// the volatile half of power loss. Pins are ignored: the sessions that
// held them died with the machine. Loads in flight are orphaned: their
// loaders find the frame no longer registered and leave the shard alone.
// The disk and the WAL's durable prefix are all that survive.
func (p *BufferPool) Crash() {
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			s.unhintLocked(f, &s.stats.PrefetchFailed)
		}
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
// on disk. The page must not be pinned; a load of it in flight is
// waited for.
func (p *BufferPool) FreePage(id PageID) error {
	s := p.shard(id)
	s.mu.Lock()
	for f := s.frames[id]; f != nil; f = s.frames[id] {
		if f.loading {
			s.mu.Unlock()
			<-f.ready
			s.mu.Lock()
			continue
		}
		if f.pins > 0 {
			s.mu.Unlock()
			return fmt.Errorf("storage: FreePage of pinned page %d", id)
		}
		s.forgetLocked(f)
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
		out.Prefetches += s.stats.Prefetches
		out.PrefetchJoined += s.stats.PrefetchJoined
		out.PrefetchWasted += s.stats.PrefetchWasted
		out.PrefetchFailed += s.stats.PrefetchFailed
		out.PrefetchDropped += s.stats.PrefetchDropped
		out.Capacity += s.capacity
		out.Resident += len(s.frames)
		s.mu.Unlock()
	}
	out.PeakInflight = int(p.peak.Load())
	return out
}

// ResetStats zeroes the counters (capacity/resident are recomputed).
func (p *BufferPool) ResetStats() {
	for _, s := range p.shards {
		s.mu.Lock()
		s.stats = PoolStats{}
		s.mu.Unlock()
	}
	p.peak.Store(p.inflight.Load())
}
