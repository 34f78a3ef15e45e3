package storage

import (
	"errors"
	"sync"
	"testing"
)

// TestFetchAfterFailedLoadStillPinned: a demand load fails while an
// earlier waiter still holds its pin, so the frame stays registered with
// loading false and loadErr set. A Fetch that arrives then takes the
// shard mutex once like any hit, and must come back with the error, not
// with the frame's never-filled bytes; when the waiter lets go the frame
// is gone and the page reads normally.
func TestFetchAfterFailedLoadStillPinned(t *testing.T) {
	pool, d, ids := hintPool(t, 64, 4)
	id := ids[1]
	gate, parked := make(chan struct{}), make(chan struct{})
	d.SetFault(func(fi FaultInfo) error {
		close(parked)
		<-gate
		return ErrInjectedFault
	})
	loaded := make(chan error, 1)
	go func() {
		_, err := pool.Fetch(id, CatData)
		loaded <- err
	}()
	<-parked
	// The earlier waiter, stopped between its pin and its wake-up: what
	// Fetch does to a loading frame before it waits, done by hand.
	s := pool.shard(id)
	s.mu.Lock()
	f := s.frames[id]
	f.pins++
	s.mu.Unlock()
	close(gate)
	if err := <-loaded; !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("the loader's fetch: %v", err)
	}
	d.SetFault(nil)

	for i := 0; i < 2; i++ {
		if buf, err := pool.Fetch(id, CatData); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("fetch %d of a frame whose load failed: buf %v, err %v", i, buf != nil, err)
		}
	}
	s.mu.Lock()
	if s.frames[id] != f || f.pins != 1 || f.loading {
		t.Errorf("the failed frame: registered %v, pins %d, loading %v; want the waiter's one pin", s.frames[id] == f, f.pins, f.loading)
	}
	// The waiter wakes, sees the error and leaves, as Fetch's tail does.
	f.pins--
	s.forgetLocked(f)
	s.mu.Unlock()

	mustFetch(t, pool, id, 1)
	if st := pool.Stats(); st.PhysicalReads[CatData] != 2 || st.LogicalReads[CatData] != 4 {
		t.Errorf("reads %+v, want 2 physical (the failed one and the last) of 4 logical", st)
	}
	checkFrames(t, pool)
}

// TestFetchResidentAllocatesNothing holds BenchmarkFetchResidentParallel's
// claim on the page a warm bed is made of, one born through NewPage.
func TestFetchResidentAllocatesNothing(t *testing.T) {
	pool := NewBufferPool(NewDisk(hintPageSize), hintPageSize*64)
	id, _, err := pool.NewPage(CatIndex)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id, true)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := pool.Fetch(id, CatIndex); err != nil {
			t.Fatal(err)
		}
		pool.Unpin(id, false)
	}); n != 0 {
		t.Errorf("%v allocations per resident Fetch + Unpin, want 0", n)
	}
}

// BenchmarkFetchResidentParallel is the cost the -cpu 1 benchmarks
// cannot see: two goroutines, each fetching and unpinning a resident
// page, on one page (an index root under two sessions: one shard mutex,
// as it must be) and on two pages of different shards (nothing shared:
// before the hit stopped reading a ready channel, every page born
// through NewPage shared one). An op is one Fetch + Unpin.
func BenchmarkFetchResidentParallel(b *testing.B) {
	pool := NewBufferPool(NewDisk(hintPageSize), hintPageSize*1024)
	var ids []PageID
	for len(ids) < 2 {
		id, _, err := pool.NewPage(CatIndex)
		if err != nil {
			b.Fatal(err)
		}
		pool.Unpin(id, true)
		if len(ids) == 0 || pool.shard(id) != pool.shard(ids[0]) {
			ids = append(ids, id)
		}
	}
	for _, bc := range []struct {
		name  string
		pages [2]PageID
	}{{"same_page", [2]PageID{ids[0], ids[0]}}, {"different_pages", [2]PageID{ids[0], ids[1]}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var wg sync.WaitGroup
			for g, id := range bc.pages {
				wg.Add(1)
				go func(g int, id PageID) {
					defer wg.Done()
					for i := g; i < b.N; i += 2 {
						if _, err := pool.Fetch(id, CatIndex); err != nil {
							b.Error(err)
							return
						}
						pool.Unpin(id, false)
					}
				}(g, id)
			}
			wg.Wait()
		})
	}
}

// TestShardCountFollowsFrames: the largest power of two up to 16 that
// leaves every shard minShardFrames frames, whatever the machine.
func TestShardCountFollowsFrames(t *testing.T) {
	for frames, want := range map[int]int{1: 1, 8: 1, 15: 1, 16: 2, 31: 2, 32: 4, 64: 8, 127: 8, 128: 16, 1 << 20: 16} {
		if got := shardCount(frames); got != want {
			t.Errorf("shardCount(%d) = %d, want %d", frames, got, want)
		}
	}
}
