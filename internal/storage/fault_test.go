package storage

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestFailNthRead(t *testing.T) {
	d := NewDisk(128)
	id := d.Alloc()
	want := bytes.Repeat([]byte{0xAB}, 128)
	if err := d.Write(id, want); err != nil {
		t.Fatal(err)
	}
	d.SetFault(FailNth(1, MatchOp(FaultRead)))
	dst := make([]byte, 128)
	if err := d.Read(id, dst); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("first read: want ErrInjectedFault, got %v", err)
	}
	// The hook fires at most once: the retry must succeed.
	if err := d.Read(id, dst); err != nil {
		t.Fatalf("second read: %v", err)
	}
	if !bytes.Equal(dst, want) {
		t.Error("page contents corrupted by failed read")
	}
}

func TestFailNthWriteLeavesPageUnchanged(t *testing.T) {
	d := NewDisk(128)
	id := d.Alloc()
	orig := bytes.Repeat([]byte{0x01}, 128)
	if err := d.Write(id, orig); err != nil {
		t.Fatal(err)
	}
	d.SetFault(FailNth(1, MatchOp(FaultWrite)))
	if err := d.Write(id, bytes.Repeat([]byte{0x02}, 128)); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("want ErrInjectedFault, got %v", err)
	}
	d.SetFault(nil)
	dst := make([]byte, 128)
	if err := d.Read(id, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, orig) {
		t.Error("failed write must not alter the stored page")
	}
}

func TestFaultMatchCategory(t *testing.T) {
	d := NewDisk(128)
	dataID := d.Alloc()
	indexID := d.AllocCat(CatIndex, 128)
	buf := make([]byte, 128)
	if err := d.Write(dataID, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(indexID, buf); err != nil {
		t.Fatal(err)
	}
	d.SetFault(FailNth(1, MatchCat(CatIndex)))
	if err := d.Read(dataID, buf); err != nil {
		t.Fatalf("data read should pass the index-only fault: %v", err)
	}
	if err := d.Read(indexID, buf); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("index read: want ErrInjectedFault, got %v", err)
	}
}

func TestFaultSeqCountsAcrossOps(t *testing.T) {
	d := NewDisk(128)
	id := d.Alloc()
	var seen []int64
	d.SetFault(func(fi FaultInfo) error {
		seen = append(seen, fi.Seq)
		return nil
	})
	buf := make([]byte, 128)
	if err := d.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Errorf("Seq should be 1,2 across write+read, got %v", seen)
	}
	// Re-arming resets the sequence.
	seen = nil
	d.SetFault(func(fi FaultInfo) error {
		seen = append(seen, fi.Seq)
		return nil
	})
	if err := d.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != 1 {
		t.Errorf("Seq should restart at 1 after SetFault, got %v", seen)
	}
}

// Reading an unallocated page must fail immediately, without paying the
// simulated read latency (the bug fixed in this change slept first and
// only then discovered the page did not exist).
func TestReadUnallocatedSkipsLatency(t *testing.T) {
	d := NewDisk(128)
	d.ReadLatency = 300 * time.Millisecond
	start := time.Now()
	err := d.Read(PageID(999), make([]byte, 128))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("read of unallocated page should fail")
	}
	if elapsed >= d.ReadLatency {
		t.Errorf("unallocated read paid the %v latency (took %v)", d.ReadLatency, elapsed)
	}
}

func TestFetchFaultFiresOnCacheHit(t *testing.T) {
	d := NewDisk(128)
	pool := NewBufferPool(d, 128*64)
	id, _, err := pool.NewPage(CatData)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id, true)
	if _, err := pool.Fetch(id, CatData); err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id, false)
	// The page is resident, so a disk-level fault could never reach it;
	// the pool-level hook must still fire.
	pool.SetFetchFault(FailNthFetch(1, CatData))
	if _, err := pool.Fetch(id, CatData); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("cached fetch: want ErrInjectedFault, got %v", err)
	}
	if _, err := pool.Fetch(id, CatData); err != nil {
		t.Fatalf("hook must fire at most once: %v", err)
	}
	pool.Unpin(id, false)
}

func TestFetchFaultFiresOnNewPage(t *testing.T) {
	d := NewDisk(128)
	pool := NewBufferPool(d, 128*64)
	pool.SetFetchFault(func(id PageID, cat Category) error {
		if id == InvalidPageID {
			return ErrInjectedFault
		}
		return nil
	})
	if _, _, err := pool.NewPage(CatData); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("NewPage: want ErrInjectedFault, got %v", err)
	}
	if d.NumPages() != 0 {
		t.Error("failed NewPage must not allocate a disk page")
	}
	pool.SetFetchFault(nil)
	if _, _, err := pool.NewPage(CatData); err != nil {
		t.Fatalf("NewPage after clearing hook: %v", err)
	}
}

func TestSlottedInsertAt(t *testing.T) {
	buf := make([]byte, 128)
	p := InitSlotted(buf)
	a := []byte("alpha-record")
	b := []byte("beta-record")
	sa, err := p.Insert(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Insert(b); err != nil {
		t.Fatal(err)
	}
	// InsertAt refuses live slots and out-of-range slots.
	if err := p.InsertAt(sa, a); err == nil {
		t.Error("InsertAt into a live slot should fail")
	}
	if err := p.InsertAt(99, a); err == nil {
		t.Error("InsertAt out of range should fail")
	}
	if err := p.Delete(sa); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertAt(sa, a); err != nil {
		t.Fatalf("InsertAt into tombstone: %v", err)
	}
	got, err := p.Get(sa)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, a) {
		t.Errorf("restored record = %q, want %q", got, a)
	}
}

// InsertAt must compact when contiguous free space ran out but dead
// bytes remain — the exact situation an undo hits after later inserts
// churned the page.
func TestSlottedInsertAtCompacts(t *testing.T) {
	buf := make([]byte, 128)
	p := InitSlotted(buf)
	rec := bytes.Repeat([]byte{'x'}, 30)
	s0, err := p.Insert(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Insert(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Insert(rec); err != nil {
		t.Fatal(err)
	}
	// Exhaust the contiguous free space, then tombstone s0: restoring it
	// can only succeed by reclaiming its dead bytes.
	filler := bytes.Repeat([]byte{'y'}, p.FreeSpace()-4)
	if _, err := p.Insert(filler); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete(s0); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertAt(s0, rec); err != nil {
		t.Fatalf("InsertAt should compact and fit: %v", err)
	}
	got, err := p.Get(s0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rec) {
		t.Error("restored record corrupted after compaction")
	}
}

// Shrinking a record in place and then restoring the original length
// must succeed on the same page: Update's fit check counts the record's
// own bytes as reclaimable, so an undo can always put back what was
// there before.
func TestSlottedUpdateRestoreAfterShrink(t *testing.T) {
	buf := make([]byte, 128)
	p := InitSlotted(buf)
	orig := bytes.Repeat([]byte{'o'}, 100)
	s, err := p.Insert(orig)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Update(s, []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if err := p.Update(s, orig); err != nil {
		t.Fatalf("restoring the original record must fit in place: %v", err)
	}
	got, err := p.Get(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig) {
		t.Error("restored record corrupted")
	}
}

func TestHeapReinsert(t *testing.T) {
	pool := NewBufferPool(NewDisk(256), 256*64)
	h := NewHeapFile(pool, InsertBestFit)
	var rids []RID
	for i := 0; i < 3; i++ {
		rid, err := h.Insert([]byte{byte('a' + i), byte('a' + i)})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	snap, err := h.Get(rids[1])
	if err != nil {
		t.Fatal(err)
	}
	snap = append([]byte(nil), snap...)
	if err := h.Reinsert(rids[1], snap); err == nil {
		t.Error("Reinsert over a live slot should fail")
	}
	if _, err := h.Delete(rids[1]); err != nil {
		t.Fatal(err)
	}
	if err := h.Reinsert(rids[1], snap); err != nil {
		t.Fatalf("Reinsert: %v", err)
	}
	got, err := h.Get(rids[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, snap) {
		t.Errorf("Reinsert returned %q, want %q", got, snap)
	}
	if h.NumRows() != 3 {
		t.Errorf("NumRows = %d, want 3", h.NumRows())
	}
}

// A relocation whose destination insert fails must leave the row at its
// original RID with its original bytes.
func TestHeapUpdateRelocationFaultKeepsOldRow(t *testing.T) {
	pool := NewBufferPool(NewDisk(128), 128*64)
	h := NewHeapFile(pool, InsertBestFit)
	orig := bytes.Repeat([]byte{'r'}, 60)
	rid, err := h.Insert(orig)
	if err != nil {
		t.Fatal(err)
	}
	// A second record fills the page so growing the first cannot happen
	// in place; the relocation needs a fresh page — fail that allocation.
	if _, err := h.Insert(bytes.Repeat([]byte{'s'}, 50)); err != nil {
		t.Fatal(err)
	}
	pool.SetFetchFault(func(id PageID, cat Category) error {
		if id == InvalidPageID {
			return ErrInjectedFault
		}
		return nil
	})
	big := bytes.Repeat([]byte{'R'}, 70)
	if _, _, err := h.Update(rid, big); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("relocating update: want ErrInjectedFault, got %v", err)
	}
	pool.SetFetchFault(nil)
	got, err := h.Get(rid)
	if err != nil {
		t.Fatalf("row lost after failed relocation: %v", err)
	}
	if !bytes.Equal(got, orig) {
		t.Error("row bytes changed after failed relocation")
	}
	if h.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2", h.NumRows())
	}
}
