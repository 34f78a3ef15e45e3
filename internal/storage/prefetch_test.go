package storage

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const hintPageSize = 128

// hintPool builds a pool of the given frame count over n cold pages
// (page i holds byte i) on a disk with a read latency, so hints are live.
func hintPool(t testing.TB, frames, n int) (*BufferPool, *Disk, []PageID) {
	t.Helper()
	d := NewDisk(hintPageSize)
	pool := NewBufferPool(d, hintPageSize*int64(frames))
	ids := make([]PageID, n)
	for i := range ids {
		id, buf, err := pool.NewPage(CatData)
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = byte(i)
		pool.Unpin(id, true)
		ids[i] = id
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	d.ResetCounters()
	d.ReadLatency = 20 * time.Microsecond
	return pool, d, ids
}

// holdReads installs a hook that holds every physical read until the
// returned release is called.
func holdReads(d *Disk) (release func()) {
	gate := make(chan struct{})
	d.SetFault(func(fi FaultInfo) error {
		if fi.Op == FaultRead {
			<-gate
		}
		return nil
	})
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

// waitFor polls cond, which depends on a loader goroutine finishing.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func waitIdle(t testing.TB, pool *BufferPool) {
	t.Helper()
	waitFor(t, "hinted loads to finish", func() bool { return pool.inflight.Load() == 0 })
}

// checkFrames asserts the structural invariants: the LRU ring holds
// exactly the registered, unpinned frames, and every started hint is
// accounted for exactly once.
func checkFrames(t testing.TB, pool *BufferPool) {
	t.Helper()
	untouched := int64(0)
	for _, s := range pool.shards {
		s.mu.Lock()
		ring := 0
		for f := s.lru.root.next; f != &s.lru.root; f = f.next {
			ring++
			if s.frames[f.id] != f {
				t.Errorf("page %d: frame in the LRU ring but not registered", f.id)
			}
			if f.pins != 0 {
				t.Errorf("page %d: pinned frame in the LRU ring", f.id)
			}
		}
		unpinned, hinted := 0, 0
		for _, f := range s.frames {
			if f.pins == 0 {
				unpinned++
			}
			if f.hinted {
				hinted++
			}
		}
		if ring != unpinned {
			t.Errorf("LRU ring holds %d frames, %d registered frames are unpinned", ring, unpinned)
		}
		if hinted != s.hinted {
			t.Errorf("shard counts %d hinted frames, has %d", s.hinted, hinted)
		}
		untouched += int64(hinted)
		s.mu.Unlock()
	}
	st := pool.Stats()
	if sum := st.PrefetchJoined + st.PrefetchWasted + st.PrefetchFailed + untouched; st.Prefetches != sum {
		t.Errorf("%d hints started, %d joined + %d wasted + %d failed + %d resident untouched = %d",
			st.Prefetches, st.PrefetchJoined, st.PrefetchWasted, st.PrefetchFailed, untouched, sum)
	}
}

func mustFetch(t testing.TB, pool *BufferPool, id PageID, want byte) {
	t.Helper()
	buf, err := pool.Fetch(id, CatData)
	if err != nil {
		t.Fatalf("fetch %d: %v", id, err)
	}
	if buf[0] != want {
		t.Errorf("page %d holds %d, want %d", id, buf[0], want)
	}
	pool.Unpin(id, false)
}

// TestPrefetchIsJoinedNotRepeated: a hinted page is read once; the hint
// is a physical read at issue and never a logical one; the Fetch that
// follows is a logical read and a hit.
func TestPrefetchIsJoinedNotRepeated(t *testing.T) {
	pool, d, ids := hintPool(t, 64, 4)
	pool.Prefetch(ids[1], CatIndex)
	st := pool.Stats()
	if st.Prefetches != 1 || st.PhysicalReads[CatIndex] != 1 || st.TotalLogicalReads() != 0 {
		t.Fatalf("after the hint: %+v", st)
	}
	pool.Prefetch(ids[1], CatIndex) // already loading or resident: nothing
	mustFetch(t, pool, ids[1], 1)
	mustFetch(t, pool, ids[1], 1)
	st = pool.Stats()
	if st.Prefetches != 1 || st.PrefetchJoined != 1 || st.TotalPhysicalReads() != 1 || st.LogicalReads[CatData] != 2 {
		t.Errorf("after the fetches: %+v", st)
	}
	if got := d.PhysReads(); got != 1 {
		t.Errorf("disk served %d reads, want 1", got)
	}
	if st.PeakInflight != 1 {
		t.Errorf("peak inflight %d, want 1", st.PeakInflight)
	}
	checkFrames(t, pool)
}

// TestPrefetchNeverBlocksNorConsultsFetchFault: with every read held and
// every logical access failing, Prefetch still returns and still starts
// its load.
func TestPrefetchNeverBlocksNorConsultsFetchFault(t *testing.T) {
	pool, _, ids := hintPool(t, 64, 4)
	release := holdReads(pool.disk)
	defer release()
	pool.SetFetchFault(func(PageID, Category) error { return ErrInjectedFault })
	pool.Prefetch(ids[0], CatData)
	pool.Prefetch(InvalidPageID, CatData)
	pool.SetFetchFault(nil)
	if st := pool.Stats(); st.Prefetches != 1 || st.Resident != 1 {
		t.Fatalf("hint did not start a load: %+v", st)
	}
	release()
	mustFetch(t, pool, ids[0], 0)
	waitIdle(t, pool)
	checkFrames(t, pool)
}

// TestPrefetchZeroLatencyDropsHints: a device with nothing to overlap
// takes no hints, so zero-latency fetch sequences are untouched.
func TestPrefetchZeroLatencyDropsHints(t *testing.T) {
	pool, d, ids := hintPool(t, 64, 4)
	d.ReadLatency = 0
	pool.Prefetch(ids[0], CatData)
	if st := pool.Stats(); st != (PoolStats{Capacity: 64}) {
		t.Errorf("hint at zero latency left a trace: %+v", st)
	}
}

// TestLatencyReassignedUnderHint: harnesses reassign Disk.ReadLatency
// between runs, when every session has finished but a hinted read may
// not have. The loader goroutine must not read the field (under -race
// this test fails if it does) and sleeps what its hint was issued at.
func TestLatencyReassignedUnderHint(t *testing.T) {
	pool, d, ids := hintPool(t, 64, 4)
	release := holdReads(d)
	pool.Prefetch(ids[0], CatData)
	pool.Prefetch(ids[1], CatData)
	release()
	d.ReadLatency = 0 // unordered with the loaders' reads of the device
	waitIdle(t, pool)
	mustFetch(t, pool, ids[0], 0)
	mustFetch(t, pool, ids[1], 1)
	if st := pool.Stats(); st.PrefetchJoined != 2 || st.TotalPhysicalReads() != 2 {
		t.Errorf("%+v", st)
	}
	checkFrames(t, pool)
}

// TestPrefetchFailureIsSilent: a hint whose read fails — fault hook,
// crashed disk, freed page — removes its frame; the demand Fetch reads
// again and reports what it finds.
func TestPrefetchFailureIsSilent(t *testing.T) {
	t.Run("fault before the fetch", func(t *testing.T) {
		pool, d, ids := hintPool(t, 64, 4)
		d.SetFault(FailNth(1, MatchOp(FaultRead)))
		pool.Prefetch(ids[2], CatData)
		waitFor(t, "the hint to fail", func() bool { return pool.Stats().PrefetchFailed == 1 })
		if st := pool.Stats(); st.Resident != 0 {
			t.Fatalf("failed hint left its frame: %+v", st)
		}
		mustFetch(t, pool, ids[2], 2)
		waitIdle(t, pool)
		checkFrames(t, pool)
	})
	t.Run("fault under a waiting fetch", func(t *testing.T) {
		pool, d, ids := hintPool(t, 64, 4)
		gate, parked := make(chan struct{}), make(chan struct{})
		var n atomic.Int32
		d.SetFault(func(fi FaultInfo) error {
			if n.Add(1) == 1 {
				close(parked)
				<-gate
				return ErrInjectedFault
			}
			return nil
		})
		pool.Prefetch(ids[2], CatData)
		<-parked
		fetched := make(chan error, 1)
		go func() { // joins the doomed load, then reads the page itself
			buf, err := pool.Fetch(ids[2], CatData)
			if err == nil && buf[0] == 2 {
				pool.Unpin(ids[2], false)
			}
			fetched <- err
		}()
		waitFor(t, "the fetch to join", func() bool { return pool.Stats().PrefetchJoined == 1 })
		close(gate)
		if err := <-fetched; err != nil {
			t.Fatalf("fetch: %v", err)
		}
		if st := pool.Stats(); st.PrefetchFailed != 0 || st.TotalPhysicalReads() != 2 {
			t.Errorf("%+v", st)
		}
		waitIdle(t, pool)
		checkFrames(t, pool)
	})
	t.Run("crashed disk", func(t *testing.T) {
		pool, d, ids := hintPool(t, 64, 4)
		d.SetCrashed(true)
		pool.Prefetch(ids[0], CatData)
		waitFor(t, "the hint to fail", func() bool { return pool.Stats().PrefetchFailed == 1 })
		if _, err := pool.Fetch(ids[0], CatData); !errors.Is(err, ErrDiskCrashed) {
			t.Errorf("fetch on a crashed disk: %v", err)
		}
		checkFrames(t, pool)
	})
	t.Run("freed page", func(t *testing.T) {
		pool, d, ids := hintPool(t, 64, 4)
		d.Free(ids[3])
		pool.Prefetch(ids[3], CatData)
		waitFor(t, "the hint to fail", func() bool { return pool.Stats().PrefetchFailed == 1 })
		if _, err := pool.Fetch(ids[3], CatData); err == nil || !strings.Contains(err.Error(), "unallocated") {
			t.Errorf("fetch of a freed page: %v", err)
		}
		checkFrames(t, pool)
	})
}

// TestDropAllAndFreePageWaitForLoads: a load in flight holds neither
// operation up for good nor fails it.
func TestDropAllAndFreePageWaitForLoads(t *testing.T) {
	for _, op := range []string{"DropAll", "FreePage"} {
		t.Run(op, func(t *testing.T) {
			pool, d, ids := hintPool(t, 64, 4)
			release := holdReads(d)
			defer release()
			pool.Prefetch(ids[0], CatData)
			done := make(chan error, 1)
			go func() {
				if op == "DropAll" {
					done <- pool.DropAll()
				} else {
					done <- pool.FreePage(ids[0])
				}
			}()
			select {
			case err := <-done:
				t.Fatalf("%s returned (%v) while the load was in flight", op, err)
			case <-time.After(5 * time.Millisecond):
			}
			release()
			if err := <-done; err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			st := pool.Stats()
			if st.Resident != 0 || st.PrefetchWasted+st.PrefetchFailed != 1 {
				t.Errorf("%+v", st)
			}
			if op == "FreePage" && d.Allocated(ids[0]) {
				t.Error("page still allocated")
			}
			checkFrames(t, pool)
		})
	}
}

// TestCrashOrphansLoads: the pool forgets a loading frame at Crash, and
// the loader that completes later — successfully or not — leaves the
// ring and the page's new frame alone.
func TestCrashOrphansLoads(t *testing.T) {
	for _, fail := range []bool{false, true} {
		pool, d, ids := hintPool(t, 8, 12)
		gate, parked := make(chan struct{}), make(chan struct{})
		var n atomic.Int32
		d.SetFault(func(fi FaultInfo) error {
			if n.Add(1) == 1 {
				close(parked)
				<-gate
				if fail {
					return ErrInjectedFault
				}
			}
			return nil
		})
		pool.Prefetch(ids[0], CatData)
		<-parked
		pool.Crash()
		mustFetch(t, pool, ids[0], 0) // the page's new, live frame
		reads := pool.Stats().TotalPhysicalReads()
		close(gate)
		waitIdle(t, pool)
		checkFrames(t, pool)
		mustFetch(t, pool, ids[0], 0)
		if pool.Stats().TotalPhysicalReads() != reads {
			t.Errorf("fail=%v: the orphaned loader took the live frame with it", fail)
		}
		for i, id := range ids { // evictions walk the whole ring
			mustFetch(t, pool, id, byte(i))
		}
		checkFrames(t, pool)
		if st := pool.Stats(); st.PrefetchFailed != 1 || st.Resident > st.Capacity {
			t.Errorf("fail=%v: %+v", fail, st)
		}
	}
}

// TestLoadingFrameIsNotEvictable: demand traffic that cycles every shard
// past a loading frame, and a shrink on top, leave it in place; once the
// load completes the page is served without a second read and the pool
// is within its budget.
func TestLoadingFrameIsNotEvictable(t *testing.T) {
	pool, d, ids := hintPool(t, 32, 80)
	gate := make(chan struct{})
	d.SetFault(func(fi FaultInfo) error {
		if fi.ID == ids[0] {
			<-gate
		}
		return nil
	})
	pool.Prefetch(ids[0], CatData)
	for i := 1; i < 80; i++ {
		mustFetch(t, pool, ids[i], byte(i))
	}
	if err := pool.SetCapacityBytes(hintPageSize * 8); err != nil {
		t.Fatal(err)
	}
	s := pool.shard(ids[0])
	s.mu.Lock()
	f := s.frames[ids[0]]
	s.mu.Unlock()
	if f == nil {
		t.Fatal("the loading frame was evicted")
	}
	close(gate)
	waitIdle(t, pool)
	reads := d.PhysReads()
	mustFetch(t, pool, ids[0], 0)
	if d.PhysReads() != reads {
		t.Error("the hinted page was read twice in one residency")
	}
	if st := pool.Stats(); st.Resident > st.Capacity || st.PrefetchWasted != 0 {
		t.Errorf("%+v", st)
	}
	checkFrames(t, pool)
}

// TestPrefetchTakesLRUPositionAtIssue: two hints whose reads complete in
// the opposite order are evicted in the order they were issued.
func TestPrefetchTakesLRUPositionAtIssue(t *testing.T) {
	pool, d, ids := hintPool(t, 8, 12)
	for i := 2; i < 8; i++ {
		mustFetch(t, pool, ids[i], byte(i))
	}
	gates := map[PageID]chan struct{}{ids[0]: make(chan struct{}), ids[1]: make(chan struct{})}
	d.SetFault(func(fi FaultInfo) error {
		if g := gates[fi.ID]; g != nil {
			<-g
		}
		return nil
	})
	pool.Prefetch(ids[0], CatData)
	pool.Prefetch(ids[1], CatData)
	close(gates[ids[1]])
	waitFor(t, "the second hint to load", func() bool { return pool.inflight.Load() == 1 })
	close(gates[ids[0]])
	waitIdle(t, pool)
	// Six demand misses evict pages 2..7; the seventh takes a hint's.
	for _, i := range []int{8, 9, 10, 11, 2, 3, 4} {
		mustFetch(t, pool, ids[i], byte(i))
	}
	if st := pool.Stats(); st.PrefetchWasted != 1 {
		t.Fatalf("wasted %d, want 1: %+v", st.PrefetchWasted, st)
	}
	reads := d.PhysReads()
	mustFetch(t, pool, ids[1], 1)
	if d.PhysReads() != reads {
		t.Error("the later hint was evicted before the earlier one")
	}
	checkFrames(t, pool)
}

// TestPrefetchWindowWiderThanShard: untouched hinted pages may fill half
// a shard and no more, so a read-ahead larger than the pool drops its
// tail instead of evicting its own head and reading it twice.
func TestPrefetchWindowWiderThanShard(t *testing.T) {
	pool, d, ids := hintPool(t, 8, 12)
	for _, id := range ids {
		pool.Prefetch(id, CatData)
	}
	waitIdle(t, pool)
	st := pool.Stats()
	if st.Prefetches != 4 || st.PrefetchDropped != 8 || st.PrefetchWasted != 0 {
		t.Fatalf("%+v", st)
	}
	// A scan's shape from here on: consume a page, hint one further on.
	for i := range ids {
		mustFetch(t, pool, ids[i], byte(i))
		if i+4 < len(ids) {
			pool.Prefetch(ids[i+4], CatData)
		}
	}
	waitIdle(t, pool)
	if got, st := d.PhysReads(), pool.Stats(); got != int64(len(ids)) || st.PrefetchWasted != 0 {
		t.Errorf("%d disk reads for %d pages: %+v", got, len(ids), st)
	}
	checkFrames(t, pool)
}

// TestPrefetchCap: hints past maxInflight are dropped and counted.
func TestPrefetchCap(t *testing.T) {
	pool, d, ids := hintPool(t, 256, maxInflight+6)
	release := holdReads(d)
	defer release()
	for _, id := range ids {
		pool.Prefetch(id, CatData)
	}
	st := pool.Stats()
	if st.Prefetches != maxInflight || st.PrefetchDropped != 6 || st.PeakInflight != maxInflight {
		t.Errorf("%+v", st)
	}
	release()
	waitIdle(t, pool)
	checkFrames(t, pool)
}

// TestPrefetchResidentAllocatesNothing holds BenchmarkPrefetchResident's
// claim: a hint for a resident page is one shard-map lookup.
func TestPrefetchResidentAllocatesNothing(t *testing.T) {
	pool, _, ids := hintPool(t, 64, 4)
	mustFetch(t, pool, ids[0], 0)
	if n := testing.AllocsPerRun(100, func() { pool.Prefetch(ids[0], CatData) }); n != 0 {
		t.Errorf("%v allocations per resident hint, want 0", n)
	}
}

func BenchmarkPrefetchResident(b *testing.B) {
	pool, _, ids := hintPool(b, 64, 4)
	mustFetch(b, pool, ids[0], 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Prefetch(ids[0], CatData)
	}
}

// TestPrefetchConcurrentStress: hints, demand fetches, frees, capacity
// churn, drops and crashes from 8 goroutines on a 16-frame pool (run
// under -race), then the structural and counter invariants.
func TestPrefetchConcurrentStress(t *testing.T) {
	pool, _, ids := hintPool(t, 16, 64)
	// A crash voids pins, so it may only run while nobody holds one;
	// loads in flight are what it is meant to meet.
	var pins sync.RWMutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 600; i++ {
				id := ids[r.Intn(len(ids))]
				switch op := r.Intn(100); {
				case op < 45:
					pool.Prefetch(id, Category(r.Intn(2)))
				case op < 85:
					pins.RLock()
					buf, err := pool.Fetch(id, CatData)
					if err == nil {
						_ = buf[0]
						pool.Unpin(id, false)
					} else if !errors.Is(err, ErrPoolExhausted) && !strings.Contains(err.Error(), "unallocated") {
						t.Errorf("fetch: %v", err)
					}
					pins.RUnlock()
				case op < 86:
					if err := pool.FreePage(id); err != nil && !strings.Contains(err.Error(), "pinned") {
						t.Errorf("FreePage: %v", err)
					}
				case op < 94:
					if err := pool.SetCapacityBytes(hintPageSize * int64(8+8*r.Intn(2))); err != nil {
						t.Errorf("SetCapacityBytes: %v", err)
					}
				case op < 98:
					if err := pool.DropAll(); err != nil && !strings.Contains(err.Error(), "pinned") {
						t.Errorf("DropAll: %v", err)
					}
				default:
					pins.Lock()
					pool.Crash()
					pins.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	waitIdle(t, pool)
	if err := pool.SetCapacityBytes(hintPageSize * 16); err != nil {
		t.Fatal(err)
	}
	checkFrames(t, pool)
	st := pool.Stats()
	if st.Resident > st.Capacity {
		t.Errorf("resident %d exceeds capacity %d with no pins", st.Resident, st.Capacity)
	}
	if st.PeakInflight > maxInflight {
		t.Errorf("peak inflight %d exceeds the cap", st.PeakInflight)
	}
	if st.Prefetches == 0 || st.PrefetchJoined == 0 {
		t.Errorf("the stress never exercised hints: %+v", st)
	}
}

// coldHeap fills a heap file with n records of recLen bytes and leaves
// the cache cold over a device with read latency.
func coldHeap(t *testing.T, mode InsertMode, n, recLen int) *HeapFile {
	t.Helper()
	h := newTestHeap(t, mode)
	for i := 0; i < n; i++ {
		if _, err := h.Insert(make([]byte, recLen)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	h.pool.ResetStats()
	h.pool.disk.ReadLatency = 20 * time.Microsecond
	return h
}

// TestHeapScannerReadAhead: a scan hints every page exactly once, each
// hint is joined by the scan's own fetch, and the window in front of it
// never exceeds readAhead.
func TestHeapScannerReadAhead(t *testing.T) {
	h := coldHeap(t, InsertBestFit, 200, 40)
	pages := int64(h.NumPages())
	if pages < 3*readAhead {
		t.Fatalf("fixture heap has %d pages", pages)
	}
	sc := h.Scanner()
	seen := 0
	for {
		_, recs, ok, err := sc.NextPage()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		seen += len(recs)
		st := h.pool.Stats()
		if ahead := st.Prefetches - st.PrefetchJoined; ahead > readAhead-1 {
			t.Fatalf("%d pages hinted ahead of the scan, window is %d", ahead, readAhead)
		}
	}
	st := h.pool.Stats()
	if seen != 200 || st.Prefetches != pages || st.PrefetchJoined != pages || st.TotalPhysicalReads() != pages ||
		st.PrefetchWasted != 0 || st.PeakInflight > readAhead {
		t.Errorf("%d records, %d pages: %+v", seen, pages, st)
	}
}

// TestHeapPrefetchInsertFollowsPlacement: the hinted page is the one
// Insert then writes to, under both placement policies.
func TestHeapPrefetchInsertFollowsPlacement(t *testing.T) {
	for _, mode := range []InsertMode{InsertBestFit, InsertAppend} {
		h := coldHeap(t, mode, 42, 40)
		rec := make([]byte, 40)
		h.PrefetchInsert(len(rec))
		if _, err := h.Insert(rec); err != nil {
			t.Fatal(err)
		}
		waitIdle(t, h.pool)
		if st := h.pool.Stats(); st.Prefetches != 1 || st.PrefetchJoined != 1 || st.TotalPhysicalReads() != 1 {
			t.Errorf("mode %d: %+v", mode, st)
		}
	}
}

// TestHeapPrefetchSmallAndRIDs: the whole-heap hint stops at its page
// limit, and a RID batch hints each of its pages once.
func TestHeapPrefetchSmallAndRIDs(t *testing.T) {
	h := coldHeap(t, InsertBestFit, 40, 40)
	pages := h.Pages()
	h.PrefetchSmall(len(pages) - 1)
	if st := h.pool.Stats(); st.Prefetches != 0 {
		t.Fatalf("a heap over the limit was hinted: %+v", st)
	}
	h.PrefetchSmall(len(pages))
	if st := h.pool.Stats(); st.Prefetches != int64(len(pages)) {
		t.Fatalf("%d pages: %+v", len(pages), st)
	}
	waitIdle(t, h.pool)
	if err := h.pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	h.pool.ResetStats()
	h.PrefetchRIDs([]RID{{Page: pages[1]}, {Page: pages[1], Slot: 1}, {Page: pages[3]}, {Page: pages[1], Slot: 2}})
	waitIdle(t, h.pool)
	if st := h.pool.Stats(); st.Prefetches != 2 || st.TotalPhysicalReads() != 2 {
		t.Errorf("%+v", st)
	}
}
