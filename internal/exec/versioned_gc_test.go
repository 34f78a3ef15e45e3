package exec

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/mvcc"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// versionedFixture builds a catalog wired to an MVCC manager with one
// indexed table of n rows: id dense 1..n unique, val = 10*id.
func versionedFixture(t *testing.T, n int) (*catalog.Catalog, *catalog.Table, *mvcc.Manager) {
	t.Helper()
	mgr := mvcc.NewManager()
	pool := storage.NewBufferPool(storage.NewDisk(0), 4<<20)
	cat := catalog.New(pool, catalog.Config{MemoryBytes: 4 << 20, Versions: mgr})
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
	for i := 1; i <= n; i++ {
		if _, err := tab.InsertRow([]types.Value{
			types.NewInt(int64(i)), types.NewInt(int64(10 * i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return cat, tab, mgr
}

// hasNode reports whether the plan tree contains a node with the label.
func hasNode(n plan.Node, label string) bool {
	if n.Label() == label {
		return true
	}
	for _, c := range n.Children() {
		if hasNode(c, label) {
			return true
		}
	}
	return false
}

// runDMLAs plans and runs one DML statement on behalf of tx.
func runDMLAs(t *testing.T, cat *catalog.Catalog, tx *mvcc.Txn, q string) {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	p, err := plan.New(cat, plan.Sophisticated).PlanStatement(st)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	if _, err := RunDMLTx(p, nil, nil, tx, &catalog.UndoLog{}); err != nil {
		t.Fatalf("dml %q: %v", q, err)
	}
}

// drainAfter opens the plan's iterator under r, runs between (modeling
// work that happens while the scan is mid-flight), then drains.
func drainAfter(t *testing.T, n plan.Node, r *mvcc.Txn, between func()) [][]types.Value {
	t.Helper()
	it, err := BuildTx(n, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(&Context{Txn: r}); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	between()
	var out [][]types.Value
	for {
		b, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return out
		}
		for _, row := range b.Rows {
			out = append(out, copyRow(row))
		}
	}
}

// TestVersionedScanSurvivesGCMidScan is the regression test for the
// scan/GC race: a statement captured its chained-RID set at Open, and a
// concurrently finishing transaction's GC collects those chains before
// the drain. Skipping on a live HasChain probe instead of the captured
// set would stop skipping the collected RIDs and return their rows
// twice (once physically, once from the versions captured at Open).
// The scenario is deterministic: the GC runs between Open and the
// first NextBatch, the widest possible window.
func TestVersionedScanSurvivesGCMidScan(t *testing.T) {
	cases := []struct {
		name  string
		query string
		label string // access-path node the plan must use
	}{
		{"SeqScan", "SELECT id, val FROM t", "TBSCAN"},
		{"IndexScan", "SELECT id, val FROM t WHERE id >= 1", "IXSCAN"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat, tab, mgr := versionedFixture(t, 10)

			// old pins the horizon so the writer's chains outlive its commit.
			old := mgr.Begin()
			w := mgr.Begin()
			runDMLAs(t, cat, w, "UPDATE t SET val = val + 1000 WHERE id >= 3 AND id <= 7")
			w.Commit()
			if !tab.Vers.HasVersions() {
				t.Fatal("expected committed update to leave version chains while old txn is active")
			}

			r := mgr.Begin() // sees w's update (began after its commit)
			defer r.Abort()
			n := planQuery(t, cat, tc.query)
			if !hasNode(n, tc.label) {
				t.Fatalf("plan for %q lacks %s node", tc.query, tc.label)
			}
			rows := drainAfter(t, n, r, func() {
				// Finishing the horizon-pinning txn GCs the chains: every
				// remaining snapshot began after w committed.
				old.Abort()
				if tab.Vers.HasVersions() {
					t.Fatal("expected GC to collect all chains once the old snapshot ended")
				}
			})

			if len(rows) != 10 {
				t.Fatalf("got %d rows, want 10 (duplicates or drops mean the scan raced GC): %v", len(rows), rows)
			}
			seen := make(map[int64]int64, len(rows))
			for _, row := range rows {
				id, val := row[0].Int, row[1].Int
				if _, dup := seen[id]; dup {
					t.Fatalf("row id=%d returned twice", id)
				}
				seen[id] = val
			}
			for id := int64(1); id <= 10; id++ {
				want := 10 * id
				if id >= 3 && id <= 7 {
					want += 1000
				}
				if got, ok := seen[id]; !ok || got != want {
					t.Errorf("id=%d: got val=%d (present=%v), want %d", id, got, ok, want)
				}
			}
		})
	}
}

// TestVersionedScanDeletedRowsAfterGC is the same window with DELETE
// chains: the captured RIDs' heap slots are gone and their chains are
// collected mid-scan, so the version enumeration must treat a dead
// slot with no chain as "row invisible", not as an error.
func TestVersionedScanDeletedRowsAfterGC(t *testing.T) {
	cat, tab, mgr := versionedFixture(t, 10)

	old := mgr.Begin()
	w := mgr.Begin()
	runDMLAs(t, cat, w, "DELETE FROM t WHERE id >= 3 AND id <= 7")
	w.Commit()
	if !tab.Vers.HasVersions() {
		t.Fatal("expected committed delete to leave version chains while old txn is active")
	}

	r := mgr.Begin() // began after the delete committed: sees 5 rows
	defer r.Abort()
	n := planQuery(t, cat, "SELECT id FROM t")
	rows := drainAfter(t, n, r, func() {
		old.Abort()
		if tab.Vers.HasVersions() {
			t.Fatal("expected GC to collect all chains once the old snapshot ended")
		}
	})

	want := map[int64]bool{1: true, 2: true, 8: true, 9: true, 10: true}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d: %v", len(rows), len(want), rows)
	}
	for _, row := range rows {
		if !want[row[0].Int] {
			t.Errorf("unexpected or duplicate id %d", row[0].Int)
		}
		delete(want, row[0].Int)
	}
}

// TestVersionedScanOlderSnapshotKeepsChains pins the complementary
// invariant: as long as a snapshot that predates the writer is live,
// its scans read the pre-images — GC must not have touched them. This
// is the case the horizon computation exists to protect.
func TestVersionedScanOlderSnapshotKeepsChains(t *testing.T) {
	cat, _, mgr := versionedFixture(t, 10)

	old := mgr.Begin()
	defer old.Abort()
	w := mgr.Begin()
	runDMLAs(t, cat, w, "UPDATE t SET val = 0 WHERE id <= 5")
	w.Commit()

	// A younger reader finishing must not GC chains old still needs.
	young := mgr.Begin()
	young.Commit()

	n := planQuery(t, cat, "SELECT id, val FROM t")
	rows := drainAfter(t, n, old, func() {})
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
	for _, row := range rows {
		if want := 10 * row[0].Int; row[1].Int != want {
			t.Errorf("id=%d: old snapshot sees val=%d, want pre-image %d", row[0].Int, row[1].Int, want)
		}
	}
}
