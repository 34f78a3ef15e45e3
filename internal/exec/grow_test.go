package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// This file holds joins that grow outer rows in place to results
// computed without that: the Naive planner's plan over rows clipped to
// their length (TestJoinRowsGrownInPlace), and a nested loop over the
// Go rows the tables were loaded from (FuzzJoinRows).

// clipped hands its child's rows on with their capacity cut to their
// length and without the Last mark, so no join above it grows a row in
// place or skips a pull.
type clipped struct{ Iterator }

func (c clipped) NextBatch() (*Batch, error) {
	b, err := c.Iterator.NextBatch()
	if b != nil {
		for i, row := range b.Rows {
			b.Rows[i] = row[:len(row):len(row)]
		}
		b.Last = false
	}
	return b, err
}

// clip puts a clipped between every parent and child of the tree.
func clip(it Iterator) Iterator {
	for _, in := range inputs(it) {
		*in = clip(*in)
	}
	return clipped{it}
}

// joinBed loads a(id, k, v), b(id, k, h, v) and c(id, k, h, v) on 1 KiB
// pages, so a few hundred rows span several pages and batches, with a
// unique index on a.id and indexes on b.k and c.k.
func joinBed(t testing.TB, a, b, c [][]types.Value) (*storage.BufferPool, *catalog.Catalog) {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewDisk(1024), 4<<20)
	cat := catalog.New(pool, catalog.Config{MemoryBytes: 4 << 20})
	col := func(name string) catalog.Column { return catalog.Column{Name: name, Type: types.IntType} }
	for _, tab := range []struct {
		name string
		cols []catalog.Column
		rows [][]types.Value
		ix   string
	}{
		{"a", []catalog.Column{col("id"), col("k"), col("v")}, a, "id"},
		{"b", []catalog.Column{col("id"), col("k"), col("h"), col("v")}, b, "k"},
		{"c", []catalog.Column{col("id"), col("k"), col("h"), col("v")}, c, "k"},
	} {
		tt, err := cat.CreateTable(tab.name, tab.cols)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cat.CreateIndex(tab.name, tab.name+"_"+tab.ix, []string{tab.ix}, tab.ix == "id"); err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.rows {
			if _, err := tt.InsertRow(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	return pool, cat
}

// collectTwice runs n twice on one tree guarded at every edge, and
// returns both results: the second execution reuses arenas the first
// left full of grown rows.
func collectTwice(t *testing.T, n plan.Node) [2][][]types.Value {
	t.Helper()
	tree, err := Build(n)
	if err != nil {
		t.Fatal(err)
	}
	tree.root = guarded(tree.root)
	var out [2][][]types.Value
	for i := range out {
		if out[i], err = tree.Collect(nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// clippedResult is q under the Naive planner with no row grown in place
// and no pull skipped.
func clippedResult(t *testing.T, cat *catalog.Catalog, q string) [][]types.Value {
	t.Helper()
	tree, err := Build(planMode(t, cat, plan.Naive, q))
	if err != nil {
		t.Fatal(err)
	}
	tree.root = clip(tree.root)
	rows, err := tree.Collect(nil, nil, nil)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	return rows
}

// TestJoinRowsGrownInPlace holds the shapes that decide where a join
// writes a row — outer batches that do or do not say Last, candidates a
// residual rejects, NULL extension, fan-out between two growing joins,
// outer rows with no spare capacity, a LIMIT closing a chain — to the
// Naive planner's result over clipped rows.
func TestJoinRowsGrownInPlace(t *testing.T) {
	// a: 300 rows; b: one row per a.k but every seventh; c: three rows
	// per b row, in index order a v the residual c.v > a.v rejects, then
	// two it keeps.
	var a, b, c [][]types.Value
	ints := func(vs ...int) []types.Value {
		row := make([]types.Value, len(vs))
		for i, v := range vs {
			row[i] = types.NewInt(int64(v))
		}
		return row
	}
	for i := 1; i <= 300; i++ {
		a = append(a, ints(i, i, i%4))
		if i%7 == 0 {
			continue
		}
		b = append(b, ints(i, i, i, i%5))
		for j, v := range []int{-1, 10, 5} {
			c = append(c, ints(3*i+j, i, 1+(7*i+j)%300, v))
		}
	}
	pool, cat := joinBed(t, a, b, c)
	const chain = "SELECT a.id, b.id, c.id, b2.id FROM a JOIN b ON b.k = a.k JOIN c ON c.k = b.id JOIN b b2 ON b2.k = c.h"
	for _, tc := range []struct {
		name, q string
		mode    plan.Mode
		outer   func(plan.Node) bool // the shape the first join's outer must have
		limit   int
	}{
		{name: "seq scan outer over pages", q: "SELECT a.id, a.v, b.id, b.v FROM a JOIN b ON b.k = a.k",
			outer: func(n plan.Node) bool {
				s, ok := n.(*plan.SeqScan)
				return ok && s.Table.Heap.NumPages() >= 3
			}},
		{name: "index scan outer over batches", q: "SELECT a.id, b.id, c.id FROM a JOIN b ON b.k = a.k JOIN c ON c.k = b.id AND c.v > a.v WHERE a.id >= 10",
			outer: isNode[*plan.IndexScan]},
		{name: "residual rejects the first match", q: "SELECT a.id, c.id, c.v FROM a JOIN c ON c.k = a.k AND c.v > a.v"},
		{name: "left join without match", q: "SELECT a.id, b.id FROM a LEFT JOIN b ON b.k = a.k"},
		{name: "left join residual rejects all", q: "SELECT a.id, c.id FROM a LEFT JOIN c ON c.k = a.k AND c.v > 7 + a.v"},
		{name: "chain fanning out in the middle", q: chain},
		{name: "aggregate outer", q: "SELECT d.k, d.n, b.id FROM (SELECT k, COUNT(*) AS n FROM c GROUP BY k) d JOIN b ON b.k = d.k",
			outer: isNode[*plan.HashAggregate]},
		{name: "materialized outer", q: "SELECT d.id, c.id FROM (SELECT id, k FROM a WHERE v > 0) d JOIN c ON c.k = d.k", mode: plan.Naive,
			outer: isNode[*plan.Materialize]},
		{name: "values outer", q: "SELECT d.x, c.id, c.v FROM (SELECT 5 AS x) d JOIN c ON c.k = d.x",
			outer: isNode[*plan.Values]},
		{name: "limit closes the chain", q: chain + " LIMIT 100", limit: 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := planMode(t, cat, tc.mode, tc.q)
			j, ok := findNode[*plan.IndexNLJoin](n)
			if !ok {
				t.Fatalf("no index-NL join: %s", n)
			}
			if tc.outer != nil && !tc.outer(firstJoinOuter(j)) {
				t.Fatalf("the first join's outer is %T, not the shape under test", firstJoinOuter(j))
			}
			q := tc.q
			if tc.limit > 0 {
				q = strings.TrimSuffix(q, fmt.Sprintf(" LIMIT %d", tc.limit))
			}
			want := clippedResult(t, cat, q)
			if len(want) == 0 {
				t.Fatal("the reference result is empty")
			}
			for i, got := range collectTwice(t, n) {
				switch {
				case tc.limit > 0:
					if len(got) != tc.limit || !subMultiset(got, want) {
						t.Errorf("execution %d: %d rows, want %d members of the unlimited result", i, len(got), tc.limit)
					}
				case !sameResults(got, want):
					t.Errorf("execution %d: %d rows differ from the reference's %d", i, len(got), len(want))
				}
			}
			if err := pool.DropAll(); err != nil {
				t.Error(err)
			}
		})
	}
}

func isNode[N plan.Node](n plan.Node) bool {
	_, ok := n.(N)
	return ok
}

// firstJoinOuter is the outer input of the deepest index-NL join under
// j, past filters, projections and renames.
func firstJoinOuter(j *plan.IndexNLJoin) plan.Node {
	if inner, ok := findNode[*plan.IndexNLJoin](j.Outer); ok {
		return firstJoinOuter(inner)
	}
	n := j.Outer
	for {
		switch m := n.(type) {
		case *plan.Filter:
			n = m.Child
		case *plan.Project:
			n = m.Child
		case interface{ Child() plan.Node }:
			n = m.Child()
		default:
			return n
		}
	}
}

// fuzzJoin is one join of FuzzJoinRows onto the rows so far: the inner
// table's (id, k, h, v) against the k and v of a, or of b.
type fuzzJoin struct {
	kind     int // 0: y.k = x.k (index-NL), 1: y.h = x.k (hash), 2: x.k < y.h <= x.k + 2 (NL)
	left     bool
	residual bool // AND y.v > x.v
	onB      bool // x is b, else a
}

func (j fuzzJoin) on(y string) string {
	x := "a"
	if j.onB {
		x = "b"
	}
	s := [...]string{"%[2]s.k = %[1]s.k", "%[2]s.h = %[1]s.k", "%[2]s.h > %[1]s.k AND %[2]s.h <= %[1]s.k + 2"}[j.kind]
	if j.residual {
		s += " AND %[2]s.v > %[1]s.v"
	}
	return fmt.Sprintf(s, x, y)
}

// matches is on's condition, in three-valued logic, over Go rows.
func (j fuzzJoin) matches(row, inner []types.Value) bool {
	xk, xv := row[1], row[2]
	if j.onB {
		xk, xv = row[4], row[6]
	}
	yk, yh, yv := inner[1], inner[2], inner[3]
	var ok bool
	switch {
	case xk.IsNull():
	case j.kind == 0:
		ok = !yk.IsNull() && yk.Int == xk.Int
	case j.kind == 1:
		ok = !yh.IsNull() && yh.Int == xk.Int
	case j.kind == 2:
		ok = !yh.IsNull() && yh.Int > xk.Int && yh.Int <= xk.Int+2
	}
	return ok && (!j.residual || !xv.IsNull() && !yv.IsNull() && yv.Int > xv.Int)
}

// nestedLoop is the reference: joins applied left-deep in FROM order.
func nestedLoop(outer [][]types.Value, inner [][]types.Value, j fuzzJoin) [][]types.Value {
	var out [][]types.Value
	for _, o := range outer {
		matched := false
		for _, r := range inner {
			if j.matches(o, r) {
				out = append(out, append(append([]types.Value{}, o...), r...))
				matched = true
			}
		}
		if !matched && j.left {
			out = append(out, append(append([]types.Value{}, o...), make([]types.Value, len(inner[0]))...))
		}
	}
	return out
}

// FuzzJoinRows joins two or three small tables — duplicate and NULL
// keys, enough rows to span batches and 1 KiB pages — by index-NL, hash
// and NL joins, inner and LEFT, with and without a residual, chained,
// through a guarded tree run twice, and holds the result to a nested
// loop over the Go rows. shape packs two joins' kind, LEFT and residual
// bits, whether the second joins onto b (bits 0–8; a second kind of 3
// drops that join) and the key domain (bits 9–10).
func FuzzJoinRows(f *testing.F) {
	f.Add(int64(1), uint8(200), uint8(150), uint8(100), uint16(0x000))
	f.Add(int64(2), uint8(255), uint8(90), uint8(120), uint16(0x1c5))
	f.Add(int64(3), uint8(180), uint8(200), uint8(70), uint16(0x2ca))
	f.Add(int64(4), uint8(100), uint8(255), uint8(0), uint16(0x43e))
	f.Add(int64(5), uint8(250), uint8(60), uint8(200), uint16(0x6d9))
	f.Add(int64(6), uint8(150), uint8(150), uint8(150), uint16(0x1a6))
	f.Fuzz(func(t *testing.T, seed int64, na, nb, nc uint8, shape uint16) {
		r := rand.New(rand.NewSource(seed))
		sizes := [3]int{int(na) + 1, int(nb) + 1, int(nc) + 1}
		domain := max(2, max(sizes[0], sizes[1], sizes[2])>>(1+shape>>9&3))
		maybeNull := func(v int, odds int) types.Value {
			if r.Intn(odds) == 0 {
				return types.Null()
			}
			return types.NewInt(int64(v))
		}
		var tables [3][][]types.Value
		for ti, n := range sizes {
			for i := 0; i < n; i++ {
				row := []types.Value{types.NewInt(int64(i)), maybeNull(r.Intn(domain), 8)}
				if ti > 0 {
					row = append(row, maybeNull(r.Intn(domain), 8))
				}
				tables[ti] = append(tables[ti], append(row, maybeNull(r.Intn(4), 10)))
			}
		}
		joins := []fuzzJoin{{kind: int(shape & 3 % 3), left: shape&4 != 0, residual: shape&8 != 0}}
		if k := int(shape >> 4 & 3); k != 3 {
			joins = append(joins, fuzzJoin{kind: k, left: shape&0x40 != 0, residual: shape&0x80 != 0, onB: shape&0x100 != 0})
		}

		_, cat := joinBed(t, tables[0], tables[1], tables[2])
		q := "SELECT * FROM a"
		want := tables[0]
		for i, j := range joins {
			y := string(rune('b' + i))
			kw := " JOIN "
			if j.left {
				kw = " LEFT JOIN "
			}
			q += kw + y + " ON " + j.on(y)
			want = nestedLoop(want, tables[i+1], j)
		}
		for i, got := range collectTwice(t, planQuery(t, cat, q)) {
			if !sameResults(got, want) {
				t.Fatalf("%s: execution %d returned %d rows, the nested loop %d", q, i, len(got), len(want))
			}
		}
	})
}
