package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSlottedInsertGet(t *testing.T) {
	buf := make([]byte, 256)
	p := InitSlotted(buf)
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	var slots []uint16
	for _, r := range recs {
		s, err := p.Insert(r)
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		slots = append(slots, s)
	}
	for i, s := range slots {
		got, err := p.Get(s)
		if err != nil || !bytes.Equal(got, recs[i]) {
			t.Errorf("Get(%d) = %q, %v; want %q", s, got, err, recs[i])
		}
	}
	if p.NumSlots() != 3 {
		t.Errorf("NumSlots = %d", p.NumSlots())
	}
}

func TestSlottedFull(t *testing.T) {
	buf := make([]byte, 64)
	p := InitSlotted(buf)
	big := make([]byte, 100)
	if _, err := p.Insert(big); !errors.Is(err, ErrPageFull) {
		t.Errorf("want ErrPageFull, got %v", err)
	}
	small := make([]byte, 10)
	for {
		if _, err := p.Insert(small); err != nil {
			if !errors.Is(err, ErrPageFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
	}
}

func TestSlottedDeleteReuse(t *testing.T) {
	buf := make([]byte, 128)
	p := InitSlotted(buf)
	s0, _ := p.Insert([]byte("one"))
	s1, _ := p.Insert([]byte("two"))
	if err := p.Delete(s0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(s0); err == nil {
		t.Error("Get of deleted slot should fail")
	}
	if err := p.Delete(s0); err == nil {
		t.Error("double delete should fail")
	}
	// Reinsert should reuse the tombstoned slot.
	s2, err := p.Insert([]byte("three"))
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s0 {
		t.Errorf("expected slot reuse: got %d want %d", s2, s0)
	}
	if got, _ := p.Get(s1); !bytes.Equal(got, []byte("two")) {
		t.Error("surviving record corrupted")
	}
}

func TestSlottedUpdateInPlaceAndGrow(t *testing.T) {
	buf := make([]byte, 128)
	p := InitSlotted(buf)
	s, _ := p.Insert([]byte("abcdef"))
	if err := p.Update(s, []byte("xy")); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Get(s); !bytes.Equal(got, []byte("xy")) {
		t.Errorf("shrunken update: %q", got)
	}
	if err := p.Update(s, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Get(s); !bytes.Equal(got, []byte("0123456789")) {
		t.Errorf("grown update: %q", got)
	}
}

func TestSlottedCompactReclaimsSpace(t *testing.T) {
	buf := make([]byte, 128)
	p := InitSlotted(buf)
	s0, _ := p.Insert(bytes.Repeat([]byte("a"), 40))
	s1, _ := p.Insert(bytes.Repeat([]byte("b"), 40))
	if err := p.Delete(s0); err != nil {
		t.Fatal(err)
	}
	// Without compaction there is not room for another 40-byte record
	// plus the reused slot; the update path compacts internally, and an
	// insert that reuses the tombstone succeeds after manual Compact.
	p.Compact()
	s2, err := p.Insert(bytes.Repeat([]byte("c"), 40))
	if err != nil {
		t.Fatalf("insert after compact: %v", err)
	}
	if got, _ := p.Get(s1); !bytes.Equal(got, bytes.Repeat([]byte("b"), 40)) {
		t.Error("compaction corrupted survivor")
	}
	if got, _ := p.Get(s2); !bytes.Equal(got, bytes.Repeat([]byte("c"), 40)) {
		t.Error("post-compaction insert corrupted")
	}
}

func TestSlottedRandomOpsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		buf := make([]byte, 512)
		p := InitSlotted(buf)
		model := map[uint16][]byte{}
		for op := 0; op < 200; op++ {
			switch r.Intn(3) {
			case 0: // insert
				rec := make([]byte, 1+r.Intn(40))
				r.Read(rec)
				s, err := p.Insert(rec)
				if errors.Is(err, ErrPageFull) {
					continue
				}
				if err != nil {
					return false
				}
				model[s] = append([]byte(nil), rec...)
			case 1: // delete random live slot
				for s := range model {
					if p.Delete(s) != nil {
						return false
					}
					delete(model, s)
					break
				}
			case 2: // update random live slot
				for s := range model {
					rec := make([]byte, 1+r.Intn(40))
					r.Read(rec)
					err := p.Update(s, rec)
					if errors.Is(err, ErrPageFull) {
						break
					}
					if err != nil {
						return false
					}
					model[s] = append([]byte(nil), rec...)
					break
				}
			}
			// verify
			for s, want := range model {
				got, err := p.Get(s)
				if err != nil || !bytes.Equal(got, want) {
					return false
				}
			}
		}
		live := 0
		p.LiveRecords(func(slot uint16, rec []byte) bool {
			if !bytes.Equal(rec, model[slot]) {
				t.Errorf("LiveRecords mismatch at slot %d", slot)
			}
			live++
			return true
		})
		return live == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDiskAllocReadWrite(t *testing.T) {
	d := NewDisk(128)
	id := d.Alloc()
	src := bytes.Repeat([]byte{7}, 128)
	if err := d.Write(id, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 128)
	if err := d.Read(id, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Error("read != write")
	}
	if d.PhysReads() != 1 || d.PhysWrites() != 1 {
		t.Errorf("counters: %d reads %d writes", d.PhysReads(), d.PhysWrites())
	}
	d.Free(id)
	if err := d.Read(id, dst); err == nil {
		t.Error("read of freed page should fail")
	}
}

func TestBufferPoolHitMiss(t *testing.T) {
	d := NewDisk(128)
	pool := NewBufferPool(d, 128*8)
	id, buf, err := pool.NewPage(CatData)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 42
	pool.Unpin(id, true)

	// First fetch after NewPage is a hit (resident).
	got, err := pool.Fetch(id, CatData)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Error("lost write")
	}
	pool.Unpin(id, false)
	s := pool.Stats()
	if s.LogicalReads[CatData] != 1 || s.PhysicalReads[CatData] != 0 {
		t.Errorf("stats after hit: %+v", s)
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	got, err = pool.Fetch(id, CatData)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Error("dirty page lost on DropAll")
	}
	pool.Unpin(id, false)
	s = pool.Stats()
	if s.PhysicalReads[CatData] != 1 {
		t.Errorf("expected one miss, stats %+v", s)
	}
}

func TestBufferPoolEviction(t *testing.T) {
	d := NewDisk(128)
	pool := NewBufferPool(d, 128*8) // 8 frames
	var ids []PageID
	for i := 0; i < 20; i++ {
		id, buf, err := pool.NewPage(CatData)
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = byte(i)
		pool.Unpin(id, true)
		ids = append(ids, id)
	}
	// All pages must survive eviction via write-back.
	for i, id := range ids {
		buf, err := pool.Fetch(id, CatData)
		if err != nil {
			t.Fatalf("fetch %d: %v", id, err)
		}
		if buf[0] != byte(i) {
			t.Errorf("page %d corrupted: %d", id, buf[0])
		}
		pool.Unpin(id, false)
	}
	if pool.Stats().Evictions == 0 {
		t.Error("expected evictions")
	}
}

// TestBufferPoolEvictionOrder pins the victim sequence of one shard:
// least recently unpinned first, pinned frames never, frames gated by
// no-steal skipped (and, when nothing else is left, a stall that grows
// the shard until an Unpin retries the deferred shrink).
func TestBufferPoolEvictionOrder(t *testing.T) {
	d := NewDisk(128)
	pool := NewBufferPool(d, 128*8) // 8 frames, one shard
	gate := &fakeGate{}
	gate.set(0, InfiniteLSN) // no active statement: nothing is gated
	pool.SetWALGate(gate)
	s := pool.shards[0]

	var p []PageID
	newPage := func() {
		t.Helper()
		id, _, err := pool.NewPage(CatData)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(id, false)
		p = append(p, id)
	}
	// resident lists which of p are cached, as indexes into p.
	resident := func() []int {
		var out []int
		for i, id := range p {
			if _, ok := s.frames[id]; ok {
				out = append(out, i)
			}
		}
		return out
	}
	expect := func(step string, want ...int) {
		t.Helper()
		if got := resident(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: resident %v, want %v", step, got, want)
		}
	}
	touch := func(i int) {
		t.Helper()
		if _, err := pool.Fetch(p[i], CatData); err != nil {
			t.Fatal(err)
		}
		pool.Unpin(p[i], false)
	}

	for i := 0; i < 8; i++ {
		newPage()
	}
	touch(0) // LRU order is now 1 2 3 4 5 6 7 0
	if _, err := pool.Fetch(p[1], CatData); err != nil {
		t.Fatal(err) // 1 stays pinned: not a victim
	}
	newPage() // p8 evicts 2
	expect("pinned frame skipped", 0, 1, 3, 4, 5, 6, 7, 8)

	// 3 carries work of a statement that is still active: skipped.
	if _, err := pool.Fetch(p[3], CatData); err != nil {
		t.Fatal(err)
	}
	pool.StampLSN(p[3], 70, 70)
	pool.Unpin(p[3], true) // order: 4 5 6 7 0 8 3
	gate.set(0, 50)
	newPage() // p9 evicts 4
	expect("next coldest", 0, 1, 3, 5, 6, 7, 8, 9)
	pool.Unpin(p[1], false) // order: 5 6 7 0 8 3 9 1
	newPage()               // p10 evicts 5
	newPage()               // p11 evicts 6
	newPage()               // p12 evicts 7
	newPage()               // p13 evicts 0
	expect("in unpin order", 1, 3, 8, 9, 10, 11, 12, 13)
	newPage() // p14 evicts 8, stepping over gated 3
	expect("gated frame skipped", 1, 3, 9, 10, 11, 12, 13, 14)

	// Pin everything but 3: the only candidate is gated, so the shard
	// stalls and grows past its budget.
	for _, i := range []int{1, 9, 10, 11, 12, 13, 14} {
		if _, err := pool.Fetch(p[i], CatData); err != nil {
			t.Fatal(err)
		}
	}
	id, _, err := pool.NewPage(CatData) // p15, kept pinned
	if err != nil {
		t.Fatal(err)
	}
	p = append(p, id)
	expect("stall grows the shard", 1, 3, 9, 10, 11, 12, 13, 14, 15)
	if got := pool.Stats().GateStalls; got != 1 {
		t.Fatalf("GateStalls = %d, want 1", got)
	}
	// The statement ends; the next Unpin runs the deferred shrink, and
	// the coldest frame is still 3, ahead of the one just released.
	gate.set(0, InfiniteLSN)
	pool.Unpin(p[15], false)
	expect("deferred shrink", 1, 9, 10, 11, 12, 13, 14, 15)
	// Frames are born dirty, so every eviction wrote its page back.
	if st := pool.Stats(); st.Evictions != 8 || d.PhysWrites() != 8 {
		t.Fatalf("Evictions = %d, PhysWrites = %d, want 8 and 8", st.Evictions, d.PhysWrites())
	}
}

// TestUnpinColdIsNextVictim: a page released by UnpinCold — how index
// maintenance on a one-page table releases the leaf it wrote — is its
// shard's next victim, ahead of pages released earlier; only its last
// pin decides, and a later Fetch and Unpin make it hot again.
func TestUnpinColdIsNextVictim(t *testing.T) {
	d := NewDisk(128)
	pool := NewBufferPool(d, 128*8) // 8 frames, one shard
	s := pool.shards[0]
	var p []PageID
	newPage := func() {
		t.Helper()
		id, _, err := pool.NewPage(CatData)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(id, false)
		p = append(p, id)
	}
	resident := func(i int) bool { _, ok := s.frames[p[i]]; return ok }
	fetch := func(i int) {
		t.Helper()
		if _, err := pool.Fetch(p[i], CatIndex); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		newPage()
	}
	fetch(5)
	pool.UnpinCold(p[5], true) // order: 5 0 1 2 3 4 6 7
	newPage()                  // p8 evicts 5
	if resident(5) || !resident(0) {
		t.Fatalf("the cold page is not the victim: 5 resident %v, 0 resident %v", resident(5), resident(0))
	}
	fetch(6)
	fetch(6)
	pool.UnpinCold(p[6], false) // still pinned: not in the list
	pool.Unpin(p[6], false)     // the last pin releases it hot
	fetch(7)
	pool.UnpinCold(p[7], false) // order: 7 0 1 2 3 4 8 6
	fetch(7)
	pool.Unpin(p[7], false) // touched again: 0 1 2 3 4 8 6 7
	newPage()               // p9 evicts 0
	newPage()               // p10 evicts 1
	if resident(0) || resident(1) || !resident(6) || !resident(7) {
		t.Fatalf("cold release outlived its page's next use: resident 0 %v, 1 %v, 6 %v, 7 %v",
			resident(0), resident(1), resident(6), resident(7))
	}
	if d.PhysWrites() != 3 { // frames are born dirty: 5, 0 and 1 were written back
		t.Fatalf("PhysWrites = %d, want 3", d.PhysWrites())
	}
}

func TestBufferPoolExhaustion(t *testing.T) {
	d := NewDisk(128)
	pool := NewBufferPool(d, 0) // clamps to 8 frames
	var pinned []PageID
	for i := 0; i < 8; i++ {
		id, _, err := pool.NewPage(CatData)
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, id)
	}
	if _, _, err := pool.NewPage(CatData); !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("want ErrPoolExhausted, got %v", err)
	}
	for _, id := range pinned {
		pool.Unpin(id, false)
	}
	if _, _, err := pool.NewPage(CatData); err != nil {
		t.Errorf("after unpin: %v", err)
	}
}

func TestBufferPoolShrinkGrow(t *testing.T) {
	d := NewDisk(128)
	pool := NewBufferPool(d, 128*64)
	var ids []PageID
	for i := 0; i < 32; i++ {
		id, _, _ := pool.NewPage(CatData)
		pool.Unpin(id, true)
		ids = append(ids, id)
	}
	if err := pool.SetCapacityBytes(128 * 8); err != nil {
		t.Fatal(err)
	}
	if got := pool.Stats().Resident; got > 8 {
		t.Errorf("resident %d after shrink to 8", got)
	}
	for _, id := range ids {
		buf, err := pool.Fetch(id, CatData)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(id, false)
		_ = buf
	}
}

func TestHitRatioAccounting(t *testing.T) {
	var s PoolStats
	s.LogicalReads[CatIndex] = 100
	s.PhysicalReads[CatIndex] = 25
	if got := s.HitRatio(CatIndex); got != 0.75 {
		t.Errorf("HitRatio = %v", got)
	}
	if got := s.HitRatio(CatData); got != 1 {
		t.Errorf("HitRatio with no reads = %v", got)
	}
}

func newTestHeap(t *testing.T, mode InsertMode) *HeapFile {
	t.Helper()
	d := NewDisk(256)
	pool := NewBufferPool(d, 256*1024)
	return NewHeapFile(pool, mode)
}

func TestHeapInsertGetDelete(t *testing.T) {
	h := newTestHeap(t, InsertBestFit)
	var rids []RID
	for i := 0; i < 100; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("record-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if h.NumRows() != 100 {
		t.Errorf("NumRows = %d", h.NumRows())
	}
	for i, rid := range rids {
		rec, err := h.Get(rid)
		if err != nil || string(rec) != fmt.Sprintf("record-%03d", i) {
			t.Errorf("Get(%v) = %q, %v", rid, rec, err)
		}
	}
	if err := h.Delete(rids[50]); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rids[50]); err == nil {
		t.Error("Get of deleted record should fail")
	}
	if h.NumRows() != 99 {
		t.Errorf("NumRows after delete = %d", h.NumRows())
	}
}

func TestHeapScan(t *testing.T) {
	h := newTestHeap(t, InsertAppend)
	want := map[string]bool{}
	for i := 0; i < 50; i++ {
		s := fmt.Sprintf("row-%d", i)
		if _, err := h.Insert([]byte(s)); err != nil {
			t.Fatal(err)
		}
		want[s] = true
	}
	got := map[string]bool{}
	err := h.Scan(func(rid RID, rec []byte) (bool, error) {
		got[string(rec)] = true
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("scan saw %d rows, want %d", len(got), len(want))
	}
	// Early stop.
	n := 0
	h.Scan(func(rid RID, rec []byte) (bool, error) {
		n++
		return n < 10, nil
	})
	if n != 10 {
		t.Errorf("early stop at %d", n)
	}
}

func TestHeapUpdateRelocates(t *testing.T) {
	h := newTestHeap(t, InsertBestFit)
	// Fill a page nearly full.
	var rids []RID
	for i := 0; i < 5; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte{byte(i)}, 40))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	big := bytes.Repeat([]byte{0xEE}, 200)
	newRID, err := h.Update(rids[0], big)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := h.Get(newRID)
	if err != nil || !bytes.Equal(rec, big) {
		t.Errorf("after relocation: %v", err)
	}
	if h.NumRows() != 5 {
		t.Errorf("NumRows after relocating update = %d", h.NumRows())
	}
}

func TestHeapInsertModes(t *testing.T) {
	// Best-fit refills holes; append grows the file.
	bf := newTestHeap(t, InsertBestFit)
	ap := newTestHeap(t, InsertAppend)
	rec := bytes.Repeat([]byte{1}, 40)
	var bfRIDs, apRIDs []RID
	for i := 0; i < 20; i++ {
		r1, _ := bf.Insert(rec)
		r2, _ := ap.Insert(rec)
		bfRIDs = append(bfRIDs, r1)
		apRIDs = append(apRIDs, r2)
	}
	for i := 0; i < 10; i++ {
		bf.Delete(bfRIDs[i])
		ap.Delete(apRIDs[i])
	}
	bfPages, apPages := bf.NumPages(), ap.NumPages()
	for i := 0; i < 10; i++ {
		bf.Insert(rec)
		ap.Insert(rec)
	}
	if bf.NumPages() != bfPages {
		t.Errorf("best-fit grew from %d to %d pages", bfPages, bf.NumPages())
	}
	if ap.NumPages() <= apPages {
		t.Errorf("append should grow beyond %d pages, at %d", apPages, ap.NumPages())
	}
}

func TestHeapOversizedRecord(t *testing.T) {
	h := newTestHeap(t, InsertBestFit)
	if _, err := h.Insert(make([]byte, 1024)); err == nil {
		t.Error("oversized record should be rejected")
	}
}

func TestHeapDrop(t *testing.T) {
	d := NewDisk(256)
	pool := NewBufferPool(d, 256*64)
	h := NewHeapFile(pool, InsertBestFit)
	for i := 0; i < 50; i++ {
		h.Insert([]byte("some record data here"))
	}
	if d.NumPages() == 0 {
		t.Fatal("expected pages")
	}
	if err := h.Drop(); err != nil {
		t.Fatal(err)
	}
	if d.NumPages() != 0 {
		t.Errorf("drop left %d pages", d.NumPages())
	}
	if h.NumRows() != 0 {
		t.Error("rows after drop")
	}
}

func TestHeapScanner(t *testing.T) {
	h := newTestHeap(t, InsertBestFit)
	want := map[string]RID{}
	for i := 0; i < 120; i++ {
		s := fmt.Sprintf("rec-%03d", i)
		rid, err := h.Insert([]byte(s))
		if err != nil {
			t.Fatal(err)
		}
		want[s] = rid
	}
	// Delete a few to exercise tombstone skipping.
	for i := 0; i < 120; i += 10 {
		s := fmt.Sprintf("rec-%03d", i)
		if err := h.Delete(want[s]); err != nil {
			t.Fatal(err)
		}
		delete(want, s)
	}
	sc := h.Scanner()
	seen := 0
	for {
		rid, rec, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		wantRID, exists := want[string(rec)]
		if !exists {
			t.Fatalf("scanner returned deleted/unknown record %q", rec)
		}
		if rid != wantRID {
			t.Errorf("rid mismatch for %q", rec)
		}
		seen++
	}
	if seen != len(want) {
		t.Errorf("scanner saw %d records, want %d", seen, len(want))
	}
}

func TestBufferPoolFlushAllAndAccessors(t *testing.T) {
	d := NewDisk(0) // default page size
	if d.PageSize() != DefaultPageSize {
		t.Errorf("default page size: %d", d.PageSize())
	}
	pool := NewBufferPool(d, DefaultPageSize*16)
	if pool.PageSize() != DefaultPageSize || pool.Capacity() != 16 {
		t.Errorf("pool accessors: %d %d", pool.PageSize(), pool.Capacity())
	}
	id, buf, _ := pool.NewPage(CatData)
	buf[0] = 9
	pool.Unpin(id, true)
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// After flush the disk copy holds the data even without eviction.
	dst := make([]byte, DefaultPageSize)
	if err := d.Read(id, dst); err != nil || dst[0] != 9 {
		t.Errorf("flush: %v %d", err, dst[0])
	}
	pool.ResetStats()
	s := pool.Stats()
	if s.TotalLogicalReads() != 0 || s.TotalPhysicalReads() != 0 {
		t.Errorf("reset stats: %+v", s)
	}
	d.ResetCounters()
	if d.PhysReads() != 0 {
		t.Error("disk counters not reset")
	}
}

func TestDropAllWithPinnedPageFails(t *testing.T) {
	d := NewDisk(128)
	pool := NewBufferPool(d, 128*16)
	id, _, _ := pool.NewPage(CatData)
	if err := pool.DropAll(); err == nil {
		t.Error("DropAll with a pinned page should fail")
	}
	pool.Unpin(id, false)
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	if err := pool.FreePage(id); err != nil {
		t.Fatal(err)
	}
}

func TestRIDString(t *testing.T) {
	if got := (RID{Page: 3, Slot: 7}).String(); got != "(3,7)" {
		t.Errorf("RID.String = %q", got)
	}
}

func TestConcurrentFetchSamePage(t *testing.T) {
	// Regression for the I/O-latch race: concurrent fetches of a page
	// being loaded must wait for the loader, not observe a zeroed page.
	d := NewDisk(256)
	d.ReadLatency = 200 * time.Microsecond
	pool := NewBufferPool(d, 256*8)
	id, buf, _ := pool.NewPage(CatData)
	sp := InitSlotted(buf)
	if _, err := sp.Insert([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id, true)
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := pool.Fetch(id, CatData)
			if err != nil {
				errs <- err
				return
			}
			rec, err := Slotted(got).Get(0)
			if err != nil || string(rec) != "payload" {
				errs <- fmt.Errorf("torn read: %q %v", rec, err)
			}
			pool.Unpin(id, false)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
