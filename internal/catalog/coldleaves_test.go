package catalog

import (
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

// coldBed is t(id, a, b, pad) with indexes t_pk unique (id), t_a (a) and
// t_b (b), each one leaf, and rows rows of ~100 bytes (nine to a 1 KiB
// page), over a one-shard pool with no meta-data tax: which page a miss
// evicts follows one LRU list.
func coldBed(t *testing.T, rows int) (*Table, *storage.BufferPool) {
	t.Helper()
	const frames = 12
	pool := storage.NewBufferPool(storage.NewDisk(1024), frames*1024)
	if pool.NumShards() != 1 {
		t.Fatalf("%d shards", pool.NumShards())
	}
	c := New(pool, Config{MemoryBytes: frames*1024 + 64, MetaBytesPerTable: 1})
	tab, err := c.CreateTable("t", []Column{
		{Name: "id", Type: types.IntType, NotNull: true},
		{Name: "a", Type: types.IntType},
		{Name: "b", Type: types.IntType},
		{Name: "pad", Type: types.StringType},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []struct {
		name, col string
		unique    bool
	}{{"t_pk", "id", true}, {"t_a", "a", false}, {"t_b", "b", false}} {
		if _, err := c.CreateIndex("t", ix.name, []string{ix.col}, ix.unique); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rows; i++ {
		if _, err := tab.InsertRow(coldRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tab, pool
}

func coldRow(i int) []types.Value {
	return []types.Value{types.NewInt(int64(i)), types.NewInt(int64(i % 5)), types.NewInt(int64(i % 3)),
		types.NewString(strings.Repeat("p", 80))}
}

// bring reads n fresh pages into the pool, each released hot.
func bring(t *testing.T, pool *storage.BufferPool, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id, _, err := pool.NewPage(storage.CatData)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(id, false)
	}
}

// fill brings fresh pages until the pool is full, so every page resident
// before is colder than all of them.
func fill(t *testing.T, pool *storage.BufferPool) {
	t.Helper()
	bring(t, pool, pool.Capacity()-pool.Stats().Resident)
}

// missed fetches id and reports whether it had to be read.
func missed(t *testing.T, pool *storage.BufferPool, id storage.PageID, cat storage.Category) bool {
	t.Helper()
	before := pool.Stats().PhysicalReads[cat]
	if _, err := pool.Fetch(id, cat); err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id, false)
	return pool.Stats().PhysicalReads[cat] > before
}

// TestOnePageMaintenanceReleasesLeavesCold: on a table whose heap has
// one page, the index leaves an INSERT, a key-changing UPDATE or a
// DELETE writes leave the pool before any other page — every other page
// is resident while they are not — and on a table of two pages the same
// INSERT leaves them hot. A multi-row INSERT reads each leaf once.
func TestOnePageMaintenanceReleasesLeavesCold(t *testing.T) {
	leaf := func(tab *Table, name string) storage.PageID { return tab.Index(name).Tree.Root() }
	// evictedFirst brings one fresh page per leaf in cold and checks that
	// exactly those leaves left: the hits are asked first, since a miss
	// evicts.
	evictedFirst := func(t *testing.T, tab *Table, pool *storage.BufferPool, cold ...string) {
		t.Helper()
		bring(t, pool, len(cold))
		for _, id := range tab.Heap.Pages() {
			if missed(t, pool, id, storage.CatData) {
				t.Errorf("heap page %d left before the cold leaves", id)
			}
		}
		for _, ix := range tab.Indexes {
			if !strings.Contains(strings.Join(cold, " "), ix.Name) && missed(t, pool, ix.Tree.Root(), storage.CatIndex) {
				t.Errorf("%s left before the cold leaves", ix.Name)
			}
		}
		for _, name := range cold {
			if !missed(t, pool, leaf(tab, name), storage.CatIndex) {
				t.Errorf("%s stayed in the pool", name)
			}
		}
	}

	t.Run("insert", func(t *testing.T) {
		tab, pool := coldBed(t, 5)
		fill(t, pool)
		if _, err := tab.InsertRow(coldRow(100)); err != nil {
			t.Fatal(err)
		}
		evictedFirst(t, tab, pool, "t_pk", "t_a", "t_b")
	})
	t.Run("key-changing update", func(t *testing.T) {
		tab, pool := coldBed(t, 5)
		fill(t, pool)
		rid, err := tab.Index("t_pk").Tree.Get(tab.Index("t_pk").KeyFor(coldRow(2), storage.RID{}))
		if err != nil {
			t.Fatal(err)
		}
		newRow := coldRow(2)
		newRow[1] = types.NewInt(77)
		if err := tab.UpdateRowsDeferredTxn(nil, []storage.RID{rid}, [][]types.Value{coldRow(2)}, [][]types.Value{newRow}, &UndoLog{}); err != nil {
			t.Fatal(err)
		}
		evictedFirst(t, tab, pool, "t_a")
	})
	t.Run("delete", func(t *testing.T) {
		tab, pool := coldBed(t, 5)
		fill(t, pool)
		rid, err := tab.Index("t_pk").Tree.Get(tab.Index("t_pk").KeyFor(coldRow(3), storage.RID{}))
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.DeleteRow(rid, coldRow(3)); err != nil {
			t.Fatal(err)
		}
		evictedFirst(t, tab, pool, "t_pk", "t_a", "t_b")
	})
	t.Run("two-page table keeps them hot", func(t *testing.T) {
		tab, pool := coldBed(t, 12)
		if pages := tab.Heap.NumPages(); pages != 2 {
			t.Fatalf("%d heap pages", pages)
		}
		fill(t, pool)
		if _, err := tab.InsertRow(coldRow(100)); err != nil {
			t.Fatal(err)
		}
		bring(t, pool, len(tab.Indexes))
		for _, ix := range tab.Indexes {
			if missed(t, pool, ix.Tree.Root(), storage.CatIndex) {
				t.Errorf("%s left the pool", ix.Name)
			}
		}
	})
	t.Run("multi-row insert", func(t *testing.T) {
		tab, pool := coldBed(t, 5)
		bring(t, pool, pool.Capacity()) // every page of t is out
		before := pool.Stats().TotalPhysicalReads()
		n, err := tab.InsertRowsTxn(nil, [][]types.Value{coldRow(100), coldRow(101), coldRow(102)}, &UndoLog{})
		if err != nil || n != 3 {
			t.Fatalf("%d rows, %v", n, err)
		}
		if reads := pool.Stats().TotalPhysicalReads() - before; reads != int64(1+len(tab.Indexes)) {
			t.Errorf("%d reads for a heap page and %d leaves", reads, len(tab.Indexes))
		}
		evictedFirst(t, tab, pool, "t_pk", "t_a", "t_b")
	})
}
