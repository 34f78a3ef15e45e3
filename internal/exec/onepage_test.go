package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/mvcc"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// indexOnly is the pathAnnouncer of the index path alone, whatever the
// heap's size: the reference a one-page read is held to.
func indexOnly(*catalog.Table, *catalog.Index) (storage.PageID, bool) {
	return storage.InvalidPageID, false
}

// viaIndex is an index scan made to take the index path.
type viaIndex struct{ *indexScanIter }

func (v viaIndex) Open(ctx *Context) error { return v.open(ctx, indexOnly) }

// wrapIndexScans replaces every index scan of t's operator tree (not of
// its IN-subquery plans) with wrap's iterator.
func wrapIndexScans(t *Tree, wrap func(*indexScanIter) Iterator) {
	var walk func(p *Iterator)
	walk = func(p *Iterator) {
		if s, ok := (*p).(*indexScanIter); ok {
			*p = wrap(s)
			return
		}
		for _, in := range inputs(*p) {
			walk(in)
		}
	}
	walk(&t.root)
}

// twoPaths runs n under params and tx on two fresh trees: as the
// executor runs it, and with every index scan on the index path.
func twoPaths(t *testing.T, n plan.Node, params []types.Value, tx *mvcc.Txn) (got, want [][]types.Value, gotC, wantC Counters) {
	t.Helper()
	run := func(index bool) ([][]types.Value, Counters) {
		tree, err := Build(n)
		if err != nil {
			t.Fatal(err)
		}
		if index {
			wrapIndexScans(tree, func(s *indexScanIter) Iterator { return viaIndex{s} })
		}
		var st Stats
		rows, err := tree.Collect(params, &st, tx)
		if err != nil {
			t.Fatal(err)
		}
		return rows, st.Snapshot()
	}
	got, gotC = run(false)
	want, wantC = run(true)
	return got, want, gotC, wantC
}

// onePageBed is t(id, a, b, c, pad) on one 8 KiB heap page, indexed by
// t_pk unique (id), t_a (a), t_ab (a, b) and t_bid unique (b, id): keys
// unique and RID-suffixed, of one column and two, with NULLs in a and b.
type onePageBed struct {
	cat  *catalog.Catalog
	mgr  *mvcc.Manager
	t    *catalog.Table
	r    *rand.Rand
	next int64 // the last id handed out
	used map[string]bool
}

func newOnePageBed(t *testing.T, seed int64) *onePageBed {
	t.Helper()
	mgr := mvcc.NewManager()
	pool := storage.NewBufferPool(storage.NewDisk(0), 4<<20)
	b := &onePageBed{
		cat: catalog.New(pool, catalog.Config{MemoryBytes: 4 << 20, Versions: mgr}),
		mgr: mgr, r: rand.New(rand.NewSource(seed)), used: map[string]bool{},
	}
	var err error
	b.t, err = b.cat.CreateTable("t", []catalog.Column{
		{Name: "id", Type: types.IntType, NotNull: true},
		{Name: "a", Type: types.IntType},
		{Name: "b", Type: types.StringType},
		{Name: "c", Type: types.IntType},
		{Name: "pad", Type: types.StringType},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []struct {
		name   string
		cols   []string
		unique bool
	}{{"t_pk", []string{"id"}, true}, {"t_a", []string{"a"}, false}, {"t_ab", []string{"a", "b"}, false}, {"t_bid", []string{"b", "id"}, true}} {
		if _, err := b.cat.CreateIndex("t", ix.name, ix.cols, ix.unique); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := 0, 20+b.r.Intn(40); i < n; i++ {
		if _, err := b.t.InsertRow(b.row()); err != nil {
			t.Fatal(err)
		}
	}
	if p := b.t.Heap.NumPages(); p != 1 {
		t.Fatalf("fixture heap has %d pages", p)
	}
	return b
}

// row is a fresh row for the table's current columns.
func (b *onePageBed) row() []types.Value {
	b.next++
	a := types.NewInt(int64(b.r.Intn(8)))
	if b.r.Intn(6) == 0 {
		a = types.Null()
	}
	s := types.NewString(fmt.Sprintf("b%d", b.r.Intn(5)))
	if b.r.Intn(6) == 0 {
		s = types.Null()
	}
	row := []types.Value{types.NewInt(b.next), a, s, types.NewInt(int64(b.r.Intn(100))),
		types.NewString(strings.Repeat("p", b.r.Intn(40)))}
	for len(row) < len(b.t.Columns) {
		row = append(row, types.NewInt(int64(b.r.Intn(8)))) // an added column
	}
	return row
}

// exec runs one DML statement under tx; a conflict with the other open
// writer, or a key a random id change collides with, is an outcome.
func (b *onePageBed) exec(t *testing.T, tx *mvcc.Txn, undo *catalog.UndoLog, q string, params ...types.Value) {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	p, err := plan.New(b.cat, plan.Sophisticated).PlanStatement(st)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	_, err = RunDMLTx(p, params, nil, tx, undo)
	if err != nil && !errors.Is(err, mvcc.ErrWriteConflict) && !strings.Contains(err.Error(), "unique index") {
		t.Fatalf("%q: %v", q, err)
	}
}

// write is one random DML statement under tx: a key change (moves the
// row's index entries), a delete, an insert or a non-key update.
func (b *onePageBed) write(t *testing.T, tx *mvcc.Txn, undo *catalog.UndoLog) {
	t.Helper()
	id := types.NewInt(int64(1 + b.r.Intn(int(b.next))))
	switch b.r.Intn(5) {
	case 0:
		b.exec(t, tx, undo, "UPDATE t SET a = a + 1 WHERE id = ?", id)
	case 1:
		b.exec(t, tx, undo, "UPDATE t SET id = id + 1000 WHERE id = ?", id)
	case 2:
		b.exec(t, tx, undo, "DELETE FROM t WHERE id = ?", id)
	case 3:
		row := b.row()
		b.exec(t, tx, undo, "INSERT INTO t (id, a, b, pad) VALUES (?, ?, ?, ?)", row[0], row[1], row[2], row[4])
	default:
		b.exec(t, tx, undo, "UPDATE t SET pad = 'u' WHERE id = ?", id)
	}
}

// check holds every query and every DML gather of the table, one-page
// read against index path, under tx: the same rows in the same order,
// the same executor counters. It reports how many of them read the page.
func (b *onePageBed) check(t *testing.T, who string, tx *mvcc.Txn) int64 {
	t.Helper()
	id := func() types.Value { return types.NewInt(int64(b.r.Intn(int(b.next) + 3))) }
	av := func() types.Value { return types.NewInt(int64(b.r.Intn(9) - 1)) }
	bv := func() types.Value { return types.NewString(fmt.Sprintf("b%d", b.r.Intn(6))) }
	if b.t.Columns[1].Type.Kind == types.KindFloat {
		av = func() types.Value { return types.NewFloat(float64(b.r.Intn(18))/2 - 1) }
	}
	type query struct {
		q      string
		params []types.Value
	}
	queries := []query{
		{"SELECT * FROM t WHERE id = ?", []types.Value{id()}},
		{"SELECT id, a, b FROM t WHERE id >= ? AND id < ?", []types.Value{id(), id()}},
		{"SELECT id, a FROM t WHERE id > ? AND id <= ?", []types.Value{id(), id()}},
		{"SELECT id, b FROM t WHERE a = ?", []types.Value{av()}},
		{"SELECT id, b, pad FROM t WHERE a > ? AND a <= ?", []types.Value{av(), av()}},
		{"SELECT id FROM t WHERE a = ? AND b >= ?", []types.Value{av(), bv()}},
		{"SELECT id, a FROM t WHERE b = ? AND id > ?", []types.Value{bv(), id()}},
		{"SELECT id, a FROM t WHERE a < ?", []types.Value{av()}},
		{"SELECT id, a, b FROM t WHERE a >= ? LIMIT 3", []types.Value{av()}},
		{"SELECT id, pad FROM t WHERE id < ? AND pad <> 'u'", []types.Value{id()}},
	}
	if b.t.ColIndex("d") >= 0 {
		queries = append(queries, query{"SELECT id, d FROM t WHERE d >= ?", []types.Value{av()}})
	}
	var onePage int64
	for _, c := range queries {
		n := planQuery(t, b.cat, c.q)
		is, ok := findNode[*plan.IndexScan](n)
		if !ok {
			t.Fatalf("%q: no index scan", c.q)
		}
		b.used[is.Path.Index.Name] = true
		got, want, gotC, wantC := twoPaths(t, n, c.params, tx)
		if !reflect.DeepEqual(renderRows(got), renderRows(want)) {
			t.Errorf("%s: %q %v: one-page read %v, index path %v", who, c.q, c.params, renderRows(got), renderRows(want))
		}
		onePage += gotC.OnePageReads
		if gotC.OnePageReads, wantC.OnePageReads = 0, 0; gotC != wantC {
			t.Errorf("%s: %q: counters %+v, index path %+v", who, c.q, gotC, wantC)
		}
	}
	for _, q := range []query{
		{"UPDATE t SET a = a + 1 WHERE a >= ? AND a < ?", []types.Value{av(), av()}},
		{"UPDATE t SET id = id + 1000 WHERE id = ?", []types.Value{id()}},
		{"DELETE FROM t WHERE b = ? AND id >= ?", []types.Value{bv(), id()}},
	} {
		st, err := sql.Parse(q.q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.New(b.cat, plan.Sophisticated).PlanStatement(st)
		if err != nil {
			t.Fatal(err)
		}
		var path *plan.AccessPath
		var filter plan.Scalar
		switch p := p.(type) {
		case *plan.UpdatePlan:
			path, filter = p.Path, p.Filter
		case *plan.DeletePlan:
			path, filter = p.Path, p.Filter
		}
		if path == nil {
			t.Fatalf("%q gathers without an index", q.q)
		}
		var st1, st2 Stats
		rids, rows, err := gatherMatches(b.t, path, filter, &Context{Params: q.params, Stats: &st1, Txn: tx}, announcePath)
		if err != nil {
			t.Fatal(err)
		}
		wrids, wrows, err := gatherMatches(b.t, path, filter, &Context{Params: q.params, Stats: &st2, Txn: tx}, indexOnly)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rids, wrids) || !reflect.DeepEqual(renderRows(rows), renderRows(wrows)) {
			t.Errorf("%s: gather %q %v: one-page read %v %v, index path %v %v", who, q.q, q.params, rids, renderRows(rows), wrids, renderRows(wrows))
		}
		onePage += st1.Snapshot().OnePageReads
	}
	return onePage
}

// expect checks that the statements of one check read the page exactly
// when the table's heap has at most one.
func (b *onePageBed) expect(t *testing.T, who string, onePage int64) {
	t.Helper()
	if pages := b.t.Heap.NumPages(); (pages <= 1) != (onePage > 0) {
		t.Errorf("%s: %d one-page reads on a heap of %d pages", who, onePage, pages)
	}
}

// TestOnePageReadMatchesIndexPath: on seeded tables of one heap page,
// every index scan and DML gather answered from the page returns what
// the index path returns on the same table under the same snapshot —
// the same rows in the same order, the same executor counters — for
// point and range probes of unique, RID-suffixed and two-column keys,
// NULL keys, both bound kinds and LIMIT; with the moved and stable
// chains of writers left open; after ADD (and an index on the added
// column), WIDEN of an indexed column and DROP; and while a transaction
// grows the heap to two pages, where the rule stops applying.
func TestOnePageReadMatchesIndexPath(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			b := newOnePageBed(t, seed)
			b.expect(t, "plain", b.check(t, "plain", nil))

			// Schema changes, published as online ALTER publishes them.
			if err := b.cat.AddColumn("t", catalog.Column{Name: "d", Type: types.IntType}); err != nil {
				t.Fatal(err)
			}
			if _, err := b.cat.CreateIndex("t", "t_d", []string{"d"}, false); err != nil {
				t.Fatal(err)
			}
			cols, err := b.t.ComputeWidenColumn("a", types.FloatType)
			if err != nil {
				t.Fatal(err)
			}
			b.cat.PublishSchema(b.t, cols, b.mgr.StampDDL())
			if cols, err = b.t.ComputeDropColumn("c"); err != nil {
				t.Fatal(err)
			}
			b.cat.PublishSchema(b.t, cols, b.mgr.StampDDL())
			for i := 0; i < 3; i++ {
				row := b.row()
				row[1] = types.NewFloat(float64(b.r.Intn(16)) / 2)
				if _, err := b.t.InsertRow(row); err != nil {
					t.Fatal(err)
				}
			}
			b.expect(t, "altered", b.check(t, "altered", nil))

			// Open writers: a reader pinned before them, two writers.
			reader := b.mgr.Begin()
			w1, u1 := b.mgr.Begin(), &catalog.UndoLog{}
			w2, u2 := b.mgr.Begin(), &catalog.UndoLog{}
			for i := 0; i < 8; i++ {
				if i%2 == 0 {
					b.write(t, w1, u1)
				} else {
					b.write(t, w2, u2)
				}
			}
			if len(b.t.Vers.MovedRIDs()) == 0 {
				t.Fatal("no moved chain to read around")
			}
			for who, tx := range map[string]*mvcc.Txn{"reader": reader, "writer 1": w1, "writer 2": w2} {
				b.expect(t, who, b.check(t, who, tx))
			}
			if err := u2.Rollback(); err != nil {
				t.Fatal(err)
			}
			w2.Abort()

			// w1 grows the heap past one page, checked after every insert.
			for b.t.Heap.NumPages() == 1 {
				b.exec(t, w1, u1, "INSERT INTO t (id, a, b, pad) VALUES (?, ?, 'b1', ?)",
					types.NewInt(b.next+1000), types.NewInt(int64(b.r.Intn(8))), types.NewString(strings.Repeat("g", 300)))
				b.next++
				for who, tx := range map[string]*mvcc.Txn{"reader": reader, "writer 1": w1} {
					who = fmt.Sprintf("%s, %d pages", who, b.t.Heap.NumPages())
					b.expect(t, who, b.check(t, who, tx))
				}
			}
			w1.Commit()
			reader.Abort()
			b.expect(t, "grown", b.check(t, "grown", nil))
			for _, ix := range b.t.Indexes {
				if !b.used[ix.Name] {
					t.Errorf("no query scanned %s", ix.Name)
				}
			}
		})
	}
}
