package exec

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// bigFixture is a 50 000-row table big(id, grp, pad) whose pad is the
// same in every row and indexed, and a one-row table one(pad) holding
// that value.
func bigFixture(t *testing.T) (*storage.BufferPool, *catalog.Catalog) {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewDisk(0), 32<<20)
	cat := catalog.New(pool, catalog.Config{MemoryBytes: 32 << 20})
	big, err := cat.CreateTable("big", []catalog.Column{
		{Name: "id", Type: types.IntType, NotNull: true},
		{Name: "grp", Type: types.IntType},
		{Name: "pad", Type: types.StringType},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50000; i++ {
		if _, err := big.InsertRow([]types.Value{types.NewInt(int64(i)), types.NewInt(int64(i % 50)), types.NewString("padding-padding-padding")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cat.CreateIndex("big", "big_pad", []string{"pad"}, false); err != nil {
		t.Fatal(err)
	}
	one, err := cat.CreateTable("one", []catalog.Column{{Name: "pad", Type: types.StringType}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := one.InsertRow([]types.Value{types.NewString("padding-padding-padding")}); err != nil {
		t.Fatal(err)
	}
	return pool, cat
}

// heapInUse is the live heap after a collection.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestTreeKeepsCapacityNotRowSets: a tree that sorted, hashed,
// de-duplicated or materialized 50 000 rows goes back to its free list
// holding no more than the byte budget — measured on the heap, not by
// the tree's own accounting — and a tree whose batches themselves
// outgrew the budget (one outer row fanning out into 50 000 join rows)
// does not go back at all.
func TestTreeKeepsCapacityNotRowSets(t *testing.T) {
	_, cat := bigFixture(t)
	for _, q := range []string{
		"SELECT id, pad FROM big ORDER BY pad, id DESC",
		"SELECT DISTINCT id, pad FROM big",
		"SELECT a.id, b.id FROM big a, big b WHERE a.id = b.id",
		"SELECT id, COUNT(*) FROM big GROUP BY id",
		"SELECT grp FROM big WHERE id IN (SELECT id FROM big)",
	} {
		n := planQuery(t, cat, q)
		base := heapInUse()
		tree, err := Build(n)
		if err != nil {
			t.Fatal(err)
		}
		count, err := tree.Drain(nil, nil, nil)
		if err != nil || count != 50000 {
			t.Fatalf("%q: %d rows, %v", q, count, err)
		}
		kept := int64(heapInUse()) - int64(base)
		if !tree.Reusable() {
			t.Errorf("%q: tree not reusable after a clean execution", q)
		}
		// 50 000 buffered rows are 5 MB and up; a MB of slack covers what
		// else the runtime holds on to.
		if kept > treeBudget+1<<20 {
			t.Errorf("%q: %d bytes stay live with the tree, budget %d", q, kept, treeBudget)
		}
		runtime.KeepAlive(tree)
	}

	q := "SELECT b.id FROM one o, big b WHERE b.pad = o.pad"
	n := planQuery(t, cat, q)
	if _, ok := findNode[*plan.IndexNLJoin](n); !ok {
		t.Fatalf("%q is not an index-NL join", q)
	}
	tree, err := Build(n)
	if err != nil {
		t.Fatal(err)
	}
	if count, err := tree.Drain(nil, nil, nil); err != nil || count != 50000 {
		t.Fatalf("%q: %d rows, %v", q, count, err)
	}
	if tree.Reusable() {
		t.Errorf("%q: a 50 000-row batch fits the %d-byte budget", q, treeBudget)
	}
}

// TestTreeAfterFault kills an index-NL join's execution at each of its
// page fetches in turn: the execution fails with the injected error,
// leaves no page pinned — most faults land while the join holds its
// inner leaf and heap page, so the inner table's index is built even
// where its heap has one page — the tree refuses to be reused, and the
// plan's next execution — on a tree that ran cleanly before — is
// correct.
func TestTreeAfterFault(t *testing.T) {
	pool, cat := propFixture(t, 5, nil)
	account, err := cat.Table("account")
	if err != nil {
		t.Fatal(err)
	}
	if err := account.Build(); err != nil {
		t.Fatal(err)
	}
	n := planQuery(t, cat, "SELECT a.name, o.quantity FROM account a, opportunity o WHERE o.account_id = a.id AND o.quantity > ?")
	if _, ok := findNode[*plan.IndexNLJoin](n); !ok {
		t.Fatal("not an index-NL join")
	}
	params := []types.Value{types.NewInt(0)}
	good, err := Build(n)
	if err != nil {
		t.Fatal(err)
	}
	before := pool.Stats()
	want, err := good.Collect(params, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := pool.Stats()
	if err := pool.DropAll(); err != nil {
		t.Fatalf("after a clean Close: %v", err)
	}
	for _, cat := range []storage.Category{storage.CatData, storage.CatIndex} {
		fetches := after.LogicalReads[cat] - before.LogicalReads[cat]
		if fetches < 10 {
			t.Fatalf("category %v: only %d fetches to fail", cat, fetches)
		}
		for k := int64(1); k <= fetches; k++ {
			tree, err := Build(n)
			if err != nil {
				t.Fatal(err)
			}
			pool.SetFetchFault(storage.FailNthFetch(k, cat))
			_, err = tree.Collect(params, nil, nil)
			pool.SetFetchFault(nil)
			if !errors.Is(err, storage.ErrInjectedFault) {
				t.Fatalf("cat %v fetch %d: error %v", cat, k, err)
			}
			if tree.Reusable() {
				t.Fatalf("cat %v fetch %d: the failed tree is reusable", cat, k)
			}
			if err := pool.DropAll(); err != nil {
				t.Fatalf("cat %v fetch %d: %v", cat, k, err)
			}
			got, err := good.Collect(params, nil, nil)
			if err != nil || !sameResults(got, want) {
				t.Fatalf("cat %v fetch %d: next execution: %d rows, %v", cat, k, len(got), err)
			}
		}
	}
}

// TestJoinOnShrunkenPool runs an index-NL join over an index scan after
// the pool has shrunk to its 8-frame floor across the 16 shards it
// started with: one frame a shard. The join holds the scan's leaf, its
// own leaf and its heap page while it fetches a further page, and any
// two of those may share a shard. The fetch is admitted past the
// shard's budget, and the excess is evicted once the pages are released.
func TestJoinOnShrunkenPool(t *testing.T) {
	pool, cat := propFixture(t, 5, nil)
	n := planQuery(t, cat, "SELECT o.id, a.name FROM opportunity o, account a WHERE a.id = o.account_id AND o.id > ?")
	j, ok := findNode[*plan.IndexNLJoin](n)
	if !ok {
		t.Fatal("not an index-NL join")
	}
	if _, ok := findNode[*plan.IndexScan](j.Outer); !ok {
		t.Fatal("the join's outer input is not an index scan")
	}
	params := []types.Value{types.NewInt(10)}
	tree, err := Build(n)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tree.Collect(params, nil, nil)
	if err != nil || len(want) == 0 {
		t.Fatalf("full pool: %d rows, %v", len(want), err)
	}
	if err := pool.SetCapacityBytes(0); err != nil {
		t.Fatal(err)
	}
	if pool.NumShards() != 16 || pool.Capacity() != 16 {
		t.Fatalf("shrunken pool: %d frames over %d shards, want 16 over 16", pool.Capacity(), pool.NumShards())
	}
	got, err := tree.Collect(params, nil, nil)
	if err != nil || !sameResults(got, want) {
		t.Fatalf("shrunken pool: %d rows, %v; want %d rows", len(got), err, len(want))
	}
	if st := pool.Stats(); st.Resident > pool.Capacity() {
		t.Errorf("%d pages resident in a %d-frame pool", st.Resident, pool.Capacity())
	}
	if err := pool.DropAll(); err != nil {
		t.Fatalf("after the join: %v", err)
	}
}
