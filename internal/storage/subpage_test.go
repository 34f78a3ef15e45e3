package storage

import (
	"bytes"
	"fmt"
	"testing"
)

// TestDiskPacksSubPages: quarter and half pages share extents with each
// other only, a growing sub-page takes its free buddy or moves to the
// first free run, and NumPages counts extents while PageIDs lists pages.
func TestDiskPacksSubPages(t *testing.T) {
	d := NewDisk(1024)
	census := func(step string, pages, extents, quarter, half, full int) {
		t.Helper()
		if c := d.Census(); c != [3]int{quarter, half, full} {
			t.Fatalf("%s: %v quarter, half and full pages, want %v", step, c, [3]int{quarter, half, full})
		}
		if n := d.NumPages(); n != extents {
			t.Fatalf("%s: NumPages %d, want the %d extents", step, n, extents)
		}
		if n := len(d.PageIDs()); n != pages {
			t.Fatalf("%s: PageIDs lists %d, want %d", step, n, pages)
		}
	}
	loc := func(id PageID) (int32, uint8) { m := d.meta[id]; return m.ext, m.bits }
	var q [5]PageID
	for i := range q {
		q[i] = d.AllocCat(CatData, 256)
	}
	census("five quarters", 5, 2, 5, 0, 0)
	full := d.Alloc()
	census("and a full page", 6, 3, 5, 0, 1)

	// q[0] sits at quarter 0 of extent 0 beside q[1]: no free buddy, so
	// it moves to the first free half, in extent 1 beside q[4].
	if err := d.Resize(q[0], 512); err != nil {
		t.Fatal(err)
	}
	if e, bits := loc(q[0]); e != 1 || bits != 0b1100 {
		t.Fatalf("q0 grew to extent %d quarters %04b, want 1, 1100", e, bits)
	}
	census("q0 moved", 6, 3, 4, 1, 1)
	// q[1] now has its buddy free and takes it: the half at quarter 0.
	if err := d.Resize(q[1], 512); err != nil {
		t.Fatal(err)
	}
	if e, bits := loc(q[1]); e != 0 || bits != 0b0011 {
		t.Fatalf("q1 grew to extent %d quarters %04b, want 0, 0011", e, bits)
	}
	census("q1 took its buddy", 6, 3, 3, 2, 1)
	// A half that grows to a full page leaves the shared extents.
	if err := d.Resize(q[1], 1024); err != nil {
		t.Fatal(err)
	}
	census("q1 full", 6, 4, 3, 1, 2)
	for _, size := range []int{700, 256, 128} {
		if err := d.Resize(q[2], size); err == nil {
			t.Fatalf("a resize of a quarter page to %d bytes succeeded", size)
		}
	}
	d.Free(q[2])
	d.Free(q[3])
	census("extent 0 empty", 4, 3, 1, 1, 2)
	// The freed extent is the first with room again.
	if id := d.AllocCat(CatData, 512); d.meta[id].ext != 0 {
		t.Fatalf("a new half page went to extent %d, want the freed 0", d.meta[id].ext)
	}
	census("refilled", 5, 4, 1, 2, 2)
	d.Free(full)
	census("full page freed", 4, 3, 1, 2, 1)

	// A replayed allocation names its size; one that is no size class
	// is refused before it reaches the extents.
	for _, size := range []int{300, 128, 2048, -256} {
		if err := d.AllocAt(100, CatData, size); err == nil {
			t.Fatalf("AllocAt of a %d-byte page succeeded", size)
		}
	}
	census("bad sizes refused", 4, 3, 1, 2, 1)
	if err := d.AllocAt(100, CatData, 256); err != nil {
		t.Fatal(err)
	}
	census("a replayed quarter", 5, 3, 2, 2, 1)
}

// TestPoolGrowKeepsBytes: a pinned page grows on disk and in its frame,
// keeping its bytes first; the grown frame is dirty, and written back it
// is the disk's image at the new size. A second pin refuses the grow.
func TestPoolGrowKeepsBytes(t *testing.T) {
	d := NewDisk(512)
	pool := NewBufferPool(d, 512*16)
	id, buf, err := pool.newPage(CatData, 128)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, "quarter")
	pool.Unpin(id, true)
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf, err = pool.Fetch(id, CatData)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Fetch(id, CatData); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Grow(id, 256); err == nil {
		t.Fatal("a grow under two pins succeeded")
	}
	pool.Unpin(id, false)
	grown, err := pool.Grow(id, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(grown) != 256 || !bytes.Equal(grown[:128], buf) || !bytes.Equal(grown[128:], make([]byte, 128)) {
		t.Fatalf("grown frame of %d bytes does not start with the old page", len(grown))
	}
	pool.Unpin(id, false) // the grow left it dirty
	if n := d.SizeOf(id); n != 256 {
		t.Fatalf("the disk records %d bytes, want 256", n)
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, 256)
	if err := d.Read(id, back); err != nil || !bytes.Equal(back[:7], []byte("quarter")) {
		t.Fatalf("read back %q (%v)", back[:7], err)
	}
}

// TestSettleUndoesUnwrittenGrow: a page grown but never written back
// takes its written size again at Settle, as a restart sees the disk.
func TestSettleUndoesUnwrittenGrow(t *testing.T) {
	d := NewDisk(512)
	pool := NewBufferPool(d, 512*16)
	id, _, err := pool.newPage(CatData, 128)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id, true)
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Fetch(id, CatData); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Grow(id, 512); err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id, false)
	pool.Crash()
	if n := d.SizeOf(id); n != 512 {
		t.Fatalf("the disk records %d bytes before Settle, want 512", n)
	}
	d.Settle()
	if n, c := d.SizeOf(id), d.Census(); n != 128 || c != [3]int{1, 0, 0} {
		t.Fatalf("after Settle the page is %d bytes, census %+v", n, c)
	}
	buf, err := pool.Fetch(id, CatData)
	if err != nil || len(buf) != 128 {
		t.Fatalf("fetched %d bytes (%v), want 128", len(buf), err)
	}
	pool.Unpin(id, false)
}

// TestHeapFirstPageDoubles: a heap's first page starts at a quarter and
// doubles in place, keeping its id and every slot, and the heap takes a
// second page only once the first is full; a first record too wide for
// a quarter starts the heap on a half.
func TestHeapFirstPageDoubles(t *testing.T) {
	h := newTestHeap(t, InsertBestFit)
	full := h.pool.PageSize()
	var rids []RID
	sizes := map[int]bool{}
	for i := 0; h.NumPages() < 2; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("record-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if h.NumPages() == 1 {
			sizes[h.pool.disk.SizeOf(rid.Page)] = true
			if _, room, _ := h.OnePage(); room != h.freeBytes[0] {
				t.Fatalf("OnePage reports %d bytes of room, the cache %d", room, h.freeBytes[0])
			}
		}
		if err := h.CheckPages(); err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if !sizes[full/4] || !sizes[full/2] || !sizes[full] || len(sizes) != 3 {
		t.Fatalf("the first page took sizes %v, want a quarter, a half and a full page", sizes)
	}
	first := h.Pages()[0]
	for i, rid := range rids[:len(rids)-1] {
		if rid.Page != first || rid.Slot != uint16(i) {
			t.Fatalf("record %d at %v, want page %d slot %d", i, rid, first, i)
		}
		if got, err := h.Get(rid); err != nil || string(got) != fmt.Sprintf("record-%03d", i) {
			t.Fatalf("record %d reads %q (%v)", i, got, err)
		}
	}

	wide := newTestHeap(t, InsertBestFit)
	rid, err := wide.Insert(bytes.Repeat([]byte{7}, full/4))
	if err != nil {
		t.Fatal(err)
	}
	if n := wide.pool.disk.SizeOf(rid.Page); n != full/2 {
		t.Fatalf("a first record of a quarter page's bytes starts the heap on %d bytes, want %d", n, full/2)
	}
}
