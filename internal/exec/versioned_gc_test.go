package exec

import (
	"strings"
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
	tree, err := Build(n)
	if err != nil {
		t.Fatal(err)
	}
	it := tree.root
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
// scan/GC race: a concurrently finishing transaction's GC collects the
// table's chains between a statement's Open and its drain — the widest
// possible window, made deterministic here. Each logical row must come
// back exactly once, whichever way the statement reads it:
//
//   - a stable chain (non-key update) is resolved where the scan finds
//     the row; by then the chain is gone and the lookup is live, which
//     is sound because a collectable chain left the heap bytes visible
//     to every remaining snapshot;
//   - a moved chain (key update) was captured at Open, is skipped
//     physically and served from the capture; skipping on a live probe
//     instead would stop skipping the collected RIDs and return their
//     rows twice.
func TestVersionedScanSurvivesGCMidScan(t *testing.T) {
	kinds := []struct {
		name   string
		update string
		moved  bool
		want   func(id int64) (int64, int64) // the row id 3..7 becomes
	}{
		{"stable", "UPDATE t SET val = val + 1000 WHERE id >= 3 AND id <= 7", false,
			func(id int64) (int64, int64) { return id, 10*id + 1000 }},
		{"moved", "UPDATE t SET id = id + 100 WHERE id >= 3 AND id <= 7", true,
			func(id int64) (int64, int64) { return id + 100, 10 * id }},
	}
	cases := []struct {
		name  string
		query string
		label string // access-path node the plan must use
	}{
		{"SeqScan", "SELECT id, val FROM t", "TBSCAN"},
		{"IndexScan", "SELECT id, val FROM t WHERE id >= 1", "IXSCAN"},
	}
	for _, k := range kinds {
		for _, tc := range cases {
			t.Run(k.name+"/"+tc.name, func(t *testing.T) {
				cat, tab, mgr := versionedFixture(t, 10)

				// old pins the horizon so the writer's chains outlive its commit.
				old := mgr.Begin()
				w := mgr.Begin()
				runDMLAs(t, cat, w, k.update)
				w.Commit()
				if !tab.Vers.HasVersions() {
					t.Fatal("expected committed update to leave version chains while old txn is active")
				}
				if got := len(tab.Vers.MovedRIDs()) > 0; got != k.moved {
					t.Fatalf("moved chains present: %v, want %v", got, k.moved)
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
					wantID, wantVal := id, 10*id
					if id >= 3 && id <= 7 {
						wantID, wantVal = k.want(id)
					}
					if got, ok := seen[wantID]; !ok || got != wantVal {
						t.Errorf("id=%d: got val=%d (present=%v), want %d", wantID, got, ok, wantVal)
					}
				}
			})
		}
	}
}

// TestRelocationWithoutIndexIsMoved: on a table with no index nothing
// but the RID tells a relocated row's old slot from its new one, so the
// old slot's chain must be flagged moved by the relocation alone — a
// snapshot older than the update finds the row only by enumeration, a
// newer one only at the new slot, and each sees it once.
func TestRelocationWithoutIndexIsMoved(t *testing.T) {
	mgr := mvcc.NewManager()
	pool := storage.NewBufferPool(storage.NewDisk(0), 4<<20)
	cat := catalog.New(pool, catalog.Config{MemoryBytes: 4 << 20, Versions: mgr})
	tab, err := cat.CreateTable("h", []catalog.Column{
		{Name: "id", Type: types.IntType, NotNull: true},
		{Name: "pad", Type: types.StringType},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 12; i++ {
		if _, err := tab.InsertRow([]types.Value{types.NewInt(int64(i)), types.NewString(strings.Repeat("p", 600))}); err != nil {
			t.Fatal(err)
		}
	}
	old := mgr.Begin()
	defer old.Abort()
	w := mgr.Begin()
	pages := tab.Heap.NumPages()
	runDMLAs(t, cat, w, "UPDATE h SET pad = '"+strings.Repeat("g", 6000)+"' WHERE id = 2")
	if tab.Heap.NumPages() == pages {
		t.Fatal("the update did not relocate the row")
	}
	w.Commit()
	if got := len(tab.Vers.MovedRIDs()); got != 1 {
		t.Fatalf("%d moved chains after one relocation, want 1 (the old slot)", got)
	}
	young := mgr.Begin()
	defer young.Abort()
	for name, tx := range map[string]*mvcc.Txn{"old": old, "young": young} {
		rows := drainAfter(t, planQuery(t, cat, "SELECT id, pad FROM h"), tx, func() {})
		n, grown := 0, false
		for _, row := range rows {
			if row[0].Int == 2 {
				n++
				grown = len(row[1].Str) == 6000
			}
		}
		if len(rows) != 12 || n != 1 || grown != (name == "young") {
			t.Errorf("%s snapshot: %d rows, id 2 seen %d times, grown=%v", name, len(rows), n, grown)
		}
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
