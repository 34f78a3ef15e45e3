package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/mvcc"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// The reference snapshot read: the algorithm every access site carried
// before chains were split into stable and moved. It treats every chain
// alike — capture ALL chained RIDs, skip them physically, resolve each
// through Table.VisibleVersions, decode it in full and re-check the key
// range — so it costs one heap fetch and one decode per chain in the
// table, and owes nothing to the moved flag. versioned.go is held to it
// below, through all five access sites.

type chainSet map[storage.RID]struct{}

func captureChains(t *catalog.Table) (chainSet, []storage.RID) {
	rids := t.Vers.RIDs()
	set := make(chainSet, len(rids))
	for _, rid := range rids {
		set[rid] = struct{}{}
	}
	return set, rids
}

// refRow is one row of a reference read, with the RID it lives at.
type refRow struct {
	rid storage.RID
	row []types.Value
}

// versionedRecs is the chained half of a reference heap scan.
func versionedRecs(t *testing.T, tx *mvcc.Txn, tab *catalog.Table, rids []storage.RID) []refRow {
	t.Helper()
	var out []refRow
	err := tab.VisibleVersions(tx, rids, func(rid storage.RID, rec []byte) error {
		row, err := types.DecodeRowInto(nil, rec, len(tab.Columns))
		out = append(out, refRow{rid, row})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// versionedRowsInRange is the chained half of a reference index read.
func versionedRowsInRange(t *testing.T, tx *mvcc.Txn, tab *catalog.Table, ix *catalog.Index, lo, hi []byte, rids []storage.RID) []refRow {
	t.Helper()
	var out []refRow
	for _, r := range versionedRecs(t, tx, tab, rids) {
		key := string(ix.KeyFor(r.row, r.rid))
		if (lo == nil || key >= string(lo)) && (hi == nil || key < string(hi)) {
			out = append(out, r)
		}
	}
	return out
}

// refScan is the reference heap scan of tab under tx.
func refScan(t *testing.T, tx *mvcc.Txn, tab *catalog.Table) []refRow {
	t.Helper()
	chains, rids := captureChains(tab)
	var out []refRow
	err := tab.Heap.Scan(func(rid storage.RID, rec []byte) (bool, error) {
		if _, chained := chains[rid]; chained {
			return true, nil
		}
		row, err := types.DecodeRowInto(nil, rec, len(tab.Columns))
		out = append(out, refRow{rid, row})
		return true, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(out, versionedRecs(t, tx, tab, rids)...)
}

// refRange is the reference read of tab through ix over [lo, hi).
func refRange(t *testing.T, tx *mvcc.Txn, tab *catalog.Table, ix *catalog.Index, lo, hi []byte) []refRow {
	t.Helper()
	chains, rids := captureChains(tab)
	it, err := ix.Tree.SeekRange(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	var out []refRow
	for ; it.Valid(); it.Next() {
		rid := it.RID()
		if _, chained := chains[rid]; chained {
			continue
		}
		row, err := tab.GetRow(rid)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, refRow{rid, row})
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return append(out, versionedRowsInRange(t, tx, tab, ix, lo, hi, rids)...)
}

// --- the differential test -------------------------------------------------------

// render turns rows into a sorted multiset of strings; withRID keys
// each row by where it lives (the DML gather must match on that too).
func render(rows []refRow, withRID bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		s := strings.Join(renderRows([][]types.Value{r.row}), "")
		if withRID {
			s = r.rid.String() + s
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func sameMultiset(t *testing.T, what string, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("%s: the snapshot helper and the reference disagree\n got %d rows: %v\nwant %d rows: %v",
			what, len(got), got, len(want), want)
	}
}

func values(rows [][]types.Value) []refRow {
	out := make([]refRow, len(rows))
	for i, r := range rows {
		out[i] = refRow{row: r}
	}
	return out
}

// findNode returns the first node of type N in the plan tree.
// indexKeys is keyRange.set into buffers of the call's own.
func indexKeys(path *plan.AccessPath, row, params []types.Value) (lo, hi []byte, ok bool, err error) {
	var k keyRange
	return k.set(path, row, params)
}

func findNode[N plan.Node](n plan.Node) (N, bool) {
	if m, ok := n.(N); ok {
		return m, true
	}
	for _, c := range n.Children() {
		if m, ok := findNode[N](c); ok {
			return m, true
		}
	}
	var zero N
	return zero, false
}

// diffBed is a table written by the history under test, t(id unique,
// k indexed, val, pad), and a static outer table u(k) to join it from.
type diffBed struct {
	cat  *catalog.Catalog
	mgr  *mvcc.Manager
	t, u *catalog.Table
}

func newDiffBed(t *testing.T, rows int) *diffBed {
	t.Helper()
	mgr := mvcc.NewManager()
	pool := storage.NewBufferPool(storage.NewDisk(0), 8<<20)
	cat := catalog.New(pool, catalog.Config{MemoryBytes: 8 << 20, Versions: mgr})
	tab, err := cat.CreateTable("t", []catalog.Column{
		{Name: "id", Type: types.IntType, NotNull: true},
		{Name: "k", Type: types.IntType},
		{Name: "val", Type: types.IntType},
		{Name: "pad", Type: types.StringType},
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := cat.CreateTable("u", []catalog.Column{{Name: "k", Type: types.IntType}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("t", "t_pk", []string{"id"}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("t", "t_k", []string{"k"}, false); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= rows; i++ {
		// ~600-byte rows: a dozen to a page, so growing one relocates it.
		if _, err := tab.InsertRow([]types.Value{
			types.NewInt(int64(i)), types.NewInt(int64(i % 10)), types.NewInt(int64(10 * i)),
			types.NewString(strings.Repeat("p", 600)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 10; k++ {
		if _, err := u.InsertRow([]types.Value{types.NewInt(int64(k))}); err != nil {
			t.Fatal(err)
		}
	}
	return &diffBed{cat: cat, mgr: mgr, t: tab, u: u}
}

func (b *diffBed) plan(t *testing.T, q string) plan.Node {
	t.Helper()
	n := planQuery(t, b.cat, q)
	plan.DisablePruning(n) // the reference decodes whole rows
	return n
}

// checkReader holds every access site to the reference under tx.
func (b *diffBed) checkReader(t *testing.T, who string, tx *mvcc.Txn, rng *rand.Rand) {
	t.Helper()
	lo, hi := rng.Intn(6), 4+rng.Intn(8)
	params := []types.Value{types.NewInt(int64(lo)), types.NewInt(int64(hi))}
	ctx := &Context{Params: params, Txn: tx}

	// 1. Heap scan.
	n := b.plan(t, "SELECT id, k, val, pad FROM t")
	if _, ok := findNode[*plan.SeqScan](n); !ok {
		t.Fatal("no SeqScan in the heap-scan plan")
	}
	rows, err := runPlan(n, params, nil, tx, false)
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, who+": seq scan", render(values(rows), false), render(refScan(t, tx, b.t), false))

	// 2. Index scan over a key range.
	n = b.plan(t, "SELECT id, k, val, pad FROM t WHERE k >= ? AND k < ?")
	is, ok := findNode[*plan.IndexScan](n)
	if !ok || is.Path.Index.Name != "t_k" {
		t.Fatal("the range query does not scan t_k")
	}
	rows, err = runPlan(is, params, nil, tx, false)
	if err != nil {
		t.Fatal(err)
	}
	klo, khi, ok, err := indexKeys(&is.Path, nil, params)
	if err != nil || !ok {
		t.Fatalf("indexKeys: %v %v", ok, err)
	}
	sameMultiset(t, who+": index scan", render(values(rows), false), render(refRange(t, tx, b.t, is.Path.Index, klo, khi), false))

	// 3. Index-NL join: one probe of t_k per row of u.
	n = b.plan(t, "SELECT u.k, t.id, t.val FROM u, t WHERE t.k = u.k")
	nl, ok := findNode[*plan.IndexNLJoin](n)
	if !ok || nl.Inner != b.t || nl.Residual != nil {
		t.Fatal("the join is not a plain index-NL join into t")
	}
	rows, err = runPlan(nl, params, nil, tx, false)
	if err != nil {
		t.Fatal(err)
	}
	outer, err := runPlan(nl.Outer, params, nil, tx, false)
	if err != nil {
		t.Fatal(err)
	}
	var want []refRow
	for _, orow := range outer {
		klo, khi, ok, err := indexKeys(&nl.Path, orow, params)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		for _, in := range refRange(t, tx, b.t, nl.Path.Index, klo, khi) {
			want = append(want, refRow{row: append(copyRow(orow), in.row...)})
		}
	}
	sameMultiset(t, who+": index-NL join", render(values(rows), false), render(want, false))

	// 4 and 5. The DML gather, through an index and through the heap.
	for _, q := range []string{
		"UPDATE t SET val = 0 WHERE k >= ? AND k < ?",
		"UPDATE t SET val = 0 WHERE val >= ? * 100 AND val < ? * 100",
	} {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.New(b.cat, plan.Sophisticated).PlanStatement(st)
		if err != nil {
			t.Fatal(err)
		}
		up := p.(*plan.UpdatePlan)
		pd, err := PrepareDML(up, params, nil, tx)
		if err != nil {
			t.Fatal(err)
		}
		var cand []refRow
		if up.Path != nil {
			klo, khi, ok, err := indexKeys(up.Path, nil, params)
			if err != nil || !ok {
				t.Fatalf("indexKeys: %v %v", ok, err)
			}
			cand = refRange(t, tx, b.t, up.Path.Index, klo, khi)
		} else {
			cand = refScan(t, tx, b.t)
		}
		var want, got []refRow
		for _, c := range cand {
			if up.Filter != nil {
				v, err := up.Filter.Eval(c.row, ctx.Params)
				if err != nil {
					t.Fatal(err)
				}
				if !plan.IsTrue(v) {
					continue
				}
			}
			want = append(want, c)
		}
		for i, rid := range pd.rids {
			got = append(got, refRow{rid, pd.oldRows[i]})
		}
		sameMultiset(t, fmt.Sprintf("%s: gather (index path: %v)", who, up.Path != nil), render(got, true), render(want, true))
	}
}

// diffWriter is one open writing transaction of a history.
type diffWriter struct {
	tx   *mvcc.Txn
	undo *catalog.UndoLog
}

// TestSnapshotReadMatchesReference runs seeded histories — non-key
// updates, key-changing updates, deletes, updates that outgrow their
// page and relocate, inserts, rollbacks, writers left open with their
// undo pending, commits and the sweeps they trigger — under several
// pinned readers, and after every few steps compares what each live
// snapshot (readers and writers alike) gets from the five access sites
// with what the reference gets.
func TestSnapshotReadMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			b := newDiffBed(t, 60)
			var readers []*mvcc.Txn
			var writers []*diffWriter
			nextID := 1000
			relocated, movedSeen, stableSeen := false, false, false

			exec := func(w *diffWriter, q string) {
				st, err := sql.Parse(q)
				if err != nil {
					t.Fatalf("parse %q: %v", q, err)
				}
				p, err := plan.New(b.cat, plan.Sophisticated).PlanStatement(st)
				if err != nil {
					t.Fatalf("plan %q: %v", q, err)
				}
				heapPages := b.t.Heap.NumPages()
				_, err = RunDMLTx(p, nil, nil, w.tx, w.undo)
				if err != nil && !errors.Is(err, mvcc.ErrWriteConflict) && !strings.Contains(err.Error(), "unique index") {
					t.Fatalf("dml %q: %v", q, err)
				}
				if strings.Contains(q, "pad =") && err == nil && b.t.Heap.NumPages() > heapPages {
					relocated = true
				}
			}
			for step := 0; step < 120; step++ {
				switch op := rng.Intn(20); {
				case op == 0 && len(readers) < 3:
					readers = append(readers, b.mgr.Begin())
				case op == 1 && len(readers) > 0:
					i := rng.Intn(len(readers))
					readers[i].Abort() // sweeps
					readers = append(readers[:i], readers[i+1:]...)
				case len(writers) == 0 || (op == 2 && len(writers) < 3):
					writers = append(writers, &diffWriter{tx: b.mgr.Begin(), undo: &catalog.UndoLog{}})
				case op <= 4:
					i := rng.Intn(len(writers))
					w := writers[i]
					writers = append(writers[:i], writers[i+1:]...)
					if rng.Intn(3) == 0 {
						if err := w.undo.Rollback(); err != nil {
							t.Fatal(err)
						}
						w.tx.Abort()
					} else {
						w.tx.Commit()
					}
				default:
					w := writers[rng.Intn(len(writers))]
					id := 1 + rng.Intn(60)
					switch rng.Intn(6) {
					case 0:
						exec(w, fmt.Sprintf("UPDATE t SET k = k + 3 WHERE id = %d", id))
					case 1:
						exec(w, fmt.Sprintf("DELETE FROM t WHERE id = %d", id))
					case 2:
						exec(w, fmt.Sprintf("UPDATE t SET pad = '%s' WHERE id = %d", strings.Repeat("g", 3000), id))
					case 3:
						nextID++
						exec(w, fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d, 'new')", nextID, rng.Intn(12), nextID))
					default:
						exec(w, fmt.Sprintf("UPDATE t SET val = val + 1 WHERE k = %d", rng.Intn(10)))
					}
				}
				moved := len(b.t.Vers.MovedRIDs())
				movedSeen = movedSeen || moved > 0
				stableSeen = stableSeen || len(b.t.Vers.RIDs()) > moved
				if step%4 != 3 {
					continue
				}
				for i, r := range readers {
					b.checkReader(t, fmt.Sprintf("step %d reader %d", step, i), r, rng)
				}
				for i, w := range writers {
					b.checkReader(t, fmt.Sprintf("step %d writer %d", step, i), w.tx, rng)
				}
			}
			if !relocated || !movedSeen || !stableSeen {
				t.Errorf("history too tame: relocated=%v moved chains=%v stable chains=%v", relocated, movedSeen, stableSeen)
			}
		})
	}
}
