package exec

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/mvcc"
	"repro/internal/storage"
	"repro/internal/types"
)

// TestSnapshotReadCostIgnoresOtherRowsChains is the scaling gate: what
// a statement under a pinned transaction costs depends on the rows it
// touches, not on how many other rows of the shared table carry version
// chains. A point SELECT and a one-row UPDATE run against the same
// table with no chain at all and with 5 000 stable chains on other rows
// (another tenant's committed, not yet collectable updates) and must
// fetch the same pages and allocate the same, give or take the
// snapshot's own few objects. Enumerating every chain costs 5 000 extra
// heap fetches per statement here.
func TestSnapshotReadCostIgnoresOtherRowsChains(t *testing.T) {
	const rows, others = 5100, 5000
	mgr := mvcc.NewManager()
	pool := storage.NewBufferPool(storage.NewDisk(0), 16<<20)
	cat := catalog.New(pool, catalog.Config{MemoryBytes: 16 << 20, Versions: mgr})
	tab, err := cat.CreateTable("t", []catalog.Column{
		{Name: "id", Type: types.IntType, NotNull: true},
		{Name: "val", Type: types.IntType},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("t", "t_pk", []string{"id"}, true); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= rows; i++ {
		if _, err := tab.InsertRow([]types.Value{types.NewInt(int64(i)), types.NewInt(int64(10 * i))}); err != nil {
			t.Fatal(err)
		}
	}

	sel := planQuery(t, cat, "SELECT id, val FROM t WHERE id = 50")
	upd := planQuery(t, cat, "UPDATE t SET val = val + 1 WHERE id = 50")
	if !hasNode(sel, "IXSCAN") {
		t.Fatal("the point SELECT does not use the index")
	}

	type cost struct {
		fetches [2]int64 // logical, by storage.Category
		allocs  float64
	}
	measure := func(tx *mvcc.Txn, stmt func()) cost {
		stmt() // warm: the plan's lazily built parts, the pool
		before := pool.Stats().LogicalReads
		stmt()
		after := pool.Stats().LogicalReads
		return cost{
			fetches: [2]int64{after[0] - before[0], after[1] - before[1]},
			allocs:  testing.AllocsPerRun(20, stmt),
		}
	}
	run := func(tx *mvcc.Txn) (selCost, updCost cost) {
		selCost = measure(tx, func() {
			rows, err := runPlan(sel, nil, nil, tx, false)
			if err != nil || len(rows) != 1 || rows[0][1].Int != 500 {
				t.Fatalf("point SELECT: %v %v", rows, err)
			}
		})
		updCost = measure(tx, func() {
			undo := &catalog.UndoLog{}
			if n, err := runDML(upd, nil, tx, undo); err != nil || n != 1 {
				t.Fatalf("one-row UPDATE: %d %v", n, err)
			}
			if err := undo.Rollback(); err != nil {
				t.Fatal(err)
			}
		})
		return selCost, updCost
	}

	quiet := mgr.Begin()
	sel0, upd0 := run(quiet)
	quiet.Abort()
	if tab.Vers.HasVersions() {
		t.Fatal("chains left behind by the quiet run")
	}

	// Another tenant updates 5 000 other rows and commits; an old
	// snapshot keeps the chains from being collected.
	old := mgr.Begin()
	defer old.Abort()
	w := mgr.Begin()
	runDMLAs(t, cat, w, "UPDATE t SET val = val + 1 WHERE id > 100")
	w.Commit()
	if got := len(tab.Vers.RIDs()); got != others {
		t.Fatalf("%d chains, want %d", got, others)
	}
	if got := len(tab.Vers.MovedRIDs()); got != 0 {
		t.Fatalf("%d moved chains after non-key updates, want 0", got)
	}
	busy := mgr.Begin()
	defer busy.Abort()
	selN, updN := run(busy)

	const slack = 8 // the snapshot itself, not the chains
	for _, c := range []struct {
		name   string
		c0, cN cost
	}{{"point SELECT", sel0, selN}, {"one-row UPDATE", upd0, updN}} {
		if c.c0.fetches != c.cN.fetches {
			t.Errorf("%s: logical fetches (data, index) %v with no chains, %v with %d chains on other rows",
				c.name, c.c0.fetches, c.cN.fetches, others)
		}
		if c.cN.allocs > c.c0.allocs+slack {
			t.Errorf("%s: %.0f allocations with no chains, %.0f with %d chains on other rows",
				c.name, c.c0.allocs, c.cN.allocs, others)
		}
	}
}
