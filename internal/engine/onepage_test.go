package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/types"
)

// newOnePageDB is t(id, a, s, pad) with three indexes — t_pk unique
// (id), t_a (a) and t_s (s) — and rows 0..n-1 of a few dozen bytes,
// plus p(v), the outer table of index-NL probes of t_pk.
func newOnePageDB(t *testing.T, n int) *DB {
	t.Helper()
	db := Open(Config{})
	mustExec(t, db, "CREATE TABLE t (id INTEGER NOT NULL, a INTEGER, s VARCHAR(100), pad VARCHAR(400))")
	mustExec(t, db, "CREATE UNIQUE INDEX t_pk ON t (id)")
	mustExec(t, db, "CREATE INDEX t_a ON t (a)")
	mustExec(t, db, "CREATE INDEX t_s ON t (s)")
	for i := 0; i < n; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (?, ?, ?, 'p')", onePageRow(i)...)
	}
	return db
}

// onePageRow is row i's id, a and s: a repeats every seven rows, s
// every five, and both are NULL now and then.
func onePageRow(i int) []types.Value {
	a, s := types.NewInt(int64(i%7)), types.NewString(fmt.Sprintf("s-%d", i%5))
	if i%11 == 3 {
		a = types.Null()
	}
	if i%13 == 4 {
		s = types.Null()
	}
	return []types.Value{types.NewInt(int64(i)), a, s}
}

// grow inserts wide rows through exec, from id first on, until t's heap
// has two pages, and returns the next id.
func grow(t *testing.T, tab *catalog.Table, exec func(q string, params ...types.Value), first int) int {
	t.Helper()
	pad := types.NewString(strings.Repeat("w", 300))
	for tab.Heap.NumPages() < 2 {
		exec("INSERT INTO t VALUES (?, ?, ?, ?)", append(onePageRow(first), pad)...)
		first++
	}
	return first
}

// built reports whether t's indexes have trees, failing unless all
// three agree.
func built(t *testing.T, tab *catalog.Table) bool {
	t.Helper()
	b := tab.Indexes[0].Built()
	for _, ix := range tab.Indexes {
		if ix.Built() != b {
			t.Fatalf("index %s built %v, %s %v", ix.Name, ix.Built(), tab.Indexes[0].Name, b)
		}
	}
	return b
}

// sameAsScan holds every index of t to its heap: CheckInvariants, and a
// range of each index, an index-NL probe of t_pk and an equality on
// t_s read through them equal to a scan filtered here.
func sameAsScan(t *testing.T, db *DB) {
	t.Helper()
	tab := atomTable(t, db)
	tab.Mu.RLock()
	err := tab.CheckInvariants()
	tab.Mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	all := mustQuery(t, db, "SELECT id, a, s FROM t").Data
	cmp := func(a, b types.Value) int {
		c, err := types.Compare(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	in := func(lo, hi types.Value) func(types.Value) bool {
		return func(v types.Value) bool { return !v.IsNull() && cmp(v, lo) >= 0 && cmp(v, hi) < 0 }
	}
	for _, c := range []struct {
		q, index string
		col      int
		params   []types.Value
	}{
		{"SELECT id, a, s FROM t WHERE id >= ? AND id < ?", "IXSCAN [t via t_pk", 0, []types.Value{types.NewInt(5), types.NewInt(40)}},
		{"SELECT id, a, s FROM t WHERE a >= ? AND a < ?", "IXSCAN [t via t_a", 1, []types.Value{types.NewInt(2), types.NewInt(5)}},
		{"SELECT id, a, s FROM t WHERE s >= ? AND s < ?", "IXSCAN [t via t_s", 2, []types.Value{types.NewString("s-1"), types.NewString("s-3")}},
		{"SELECT id, a, s FROM t WHERE s = ?", "IXSCAN [t via t_s", 2, []types.Value{types.NewString("s-4"), types.Null()}},
		{"SELECT t.id, t.a, t.s FROM p, t WHERE t.id = p.v", "NLJOIN [inner=t via t_pk", 0, nil},
	} {
		if ex, err := db.Explain(c.q, c.params...); err != nil || !strings.Contains(ex, c.index) {
			t.Fatalf("%q: want %s, plan %s %v", c.q, c.index, ex, err)
		}
		keep := func(v types.Value) bool { return types.Equal(v, c.params[0]) }
		switch {
		case c.params == nil:
			probes := mustQuery(t, db, "SELECT v FROM p").Data
			keep = func(v types.Value) bool {
				return slices.ContainsFunc(probes, func(p []types.Value) bool { return !v.IsNull() && types.Equal(p[0], v) })
			}
		case len(c.params) == 2 && !c.params[1].IsNull():
			keep = in(c.params[0], c.params[1])
		}
		var want [][]types.Value
		for _, r := range all {
			if keep(r[c.col]) {
				want = append(want, r)
			}
		}
		params := c.params
		if len(params) == 2 && params[1].IsNull() {
			params = params[:1]
		}
		got := mustQuery(t, db, c.q, params...).Data
		if g, w := sortedRows(got), sortedRows(want); !slices.Equal(g, w) {
			t.Errorf("%q %v: index %v, scan %v", c.q, params, g, w)
		}
	}
}

// TestOnePageTableHasNoIndexPages: a 32-row table with three indexes
// occupies one disk page, its heap's; growing it to a second heap page
// builds every index, and either way each index answers as a heap scan
// does.
func TestOnePageTableHasNoIndexPages(t *testing.T) {
	db := newOnePageDB(t, 32)
	mustExec(t, db, "CREATE TABLE p (v INTEGER)")
	mustExec(t, db, "INSERT INTO p VALUES (3), (17), (31), (40), (NULL)")
	tab := atomTable(t, db)
	// t's heap page and p's: sub-pages, both in one extent.
	if st := db.Stats(); st.DiskPages != 2 || st.DiskExtents != 1 || st.DiskBySize[2] != 0 {
		t.Fatalf("%d disk pages (%v by size) in %d extents, want t's heap page and p's, sub-pages in one extent", st.DiskPages, st.DiskBySize, st.DiskExtents)
	}
	if built(t, tab) {
		t.Fatal("the indexes of a one-page table have trees")
	}
	sameAsScan(t, db)
	if _, err := db.Exec("INSERT INTO t VALUES (7, 0, 'x', 'p')"); err == nil || !strings.Contains(err.Error(), "unique") {
		t.Errorf("a duplicate id on the page: %v", err)
	}

	grow(t, tab, func(q string, params ...types.Value) { mustExec(t, db, q, params...) }, 32)
	if !built(t, tab) {
		t.Fatal("a two-page table's indexes have no trees")
	}
	for _, ix := range tab.Indexes {
		if n := ix.Tree.Len(); n != tab.Heap.NumRows() {
			t.Errorf("%s holds %d entries for %d rows", ix.Name, n, tab.Heap.NumRows())
		}
	}
	sameAsScan(t, db)
	if _, err := db.Exec("INSERT INTO t VALUES (7, 0, 'x', 'p')"); err == nil || !strings.Contains(err.Error(), "unique") {
		t.Errorf("a duplicate id in the tree: %v", err)
	}
}

// TestOnePageTableDiskPages: the same table alone on a fresh database
// is one disk page, and it is smaller than a full one.
func TestOnePageTableDiskPages(t *testing.T) {
	db := newOnePageDB(t, 32)
	if st := db.Stats(); st.DiskPages != 1 || st.DiskExtents != 1 || st.DiskBySize[2] != 0 {
		t.Errorf("a 32-row table with three indexes occupies %d disk pages (%v by size) in %d extents, want one sub-page", st.DiskPages, st.DiskBySize, st.DiskExtents)
	}
}

// TestRollbackAcrossBuild: a transaction writes the one-page table
// (inserts, a key-changing update, a delete), a later statement of it
// builds the indexes, and a rollback — of the whole transaction, or to a
// savepoint taken between the earlier writes — runs undo steps logged
// before the build: they must take the trees' entries along with the
// bytes they restore, so every index ends equal to the heap.
func TestRollbackAcrossBuild(t *testing.T) {
	for _, savepoint := range []bool{false, true} {
		t.Run(fmt.Sprintf("savepoint=%v", savepoint), func(t *testing.T) {
			db := newOnePageDB(t, 32)
			mustExec(t, db, "CREATE TABLE p (v INTEGER)")
			mustExec(t, db, "INSERT INTO p VALUES (3), (17), (33), (35)")
			tab := atomTable(t, db)
			before := sortedRows(mustQuery(t, db, "SELECT id, a, s FROM t").Data)
			s := db.Session()
			defer s.Close()
			sessExec(t, s, "BEGIN")
			sessExec(t, s, "INSERT INTO t VALUES (33, 1, 's-9', 'p')")
			if savepoint {
				sessExec(t, s, "SAVEPOINT sp")
				before = sortedRows(sessQuery(t, s, "SELECT id, a, s FROM t").Data)
			}
			sessExec(t, s, "INSERT INTO t VALUES (34, 2, 's-8', 'p')")
			sessExec(t, s, "UPDATE t SET a = a + 100, s = 's-7' WHERE id = 3")
			sessExec(t, s, "UPDATE t SET id = 35 WHERE id = 17")
			sessExec(t, s, "DELETE FROM t WHERE id = 9")
			if built(t, tab) {
				t.Fatal("built before the table grew")
			}
			grow(t, tab, func(q string, params ...types.Value) { sessExec(t, s, q, params...) }, 100)
			if !built(t, tab) {
				t.Fatal("not built after the table grew")
			}
			if savepoint {
				sessExec(t, s, "ROLLBACK TO SAVEPOINT sp")
				sessExec(t, s, "COMMIT")
			} else {
				sessExec(t, s, "ROLLBACK")
			}
			if got := sortedRows(mustQuery(t, db, "SELECT id, a, s FROM t").Data); !slices.Equal(got, before) {
				t.Errorf("after the rollback %v, want %v", got, before)
			}
			if !built(t, tab) {
				t.Error("the rollback undid the build")
			}
			sameAsScan(t, db)
		})
	}
}

// TestBuildWithForeignUncommittedRows: a second session holds
// uncommitted inserts, an update and a delete on the one-page table when
// the first builds its indexes. The build indexes the rows the page
// holds, the second session's among them; its rollback, logged before
// the build, must take their entries out again, and the first session's
// commit stands.
func TestBuildWithForeignUncommittedRows(t *testing.T) {
	db := newOnePageDB(t, 32)
	mustExec(t, db, "CREATE TABLE p (v INTEGER)")
	mustExec(t, db, "INSERT INTO p VALUES (3), (17), (33), (101)")
	tab := atomTable(t, db)
	b := db.Session()
	defer b.Close()
	sessExec(t, b, "BEGIN")
	sessExec(t, b, "INSERT INTO t VALUES (33, 1, 's-9', 'p'), (34, NULL, 's-9', 'p')")
	sessExec(t, b, "UPDATE t SET a = 50 WHERE id = 3")
	sessExec(t, b, "DELETE FROM t WHERE id = 17")
	a := db.Session()
	defer a.Close()
	sessExec(t, a, "BEGIN")
	next := grow(t, tab, func(q string, params ...types.Value) { sessExec(t, a, q, params...) }, 100)
	if !built(t, tab) {
		t.Fatal("not built after the table grew")
	}
	for _, ix := range tab.Indexes {
		if n := ix.Tree.Len(); n != tab.Heap.NumRows() {
			t.Errorf("%s holds %d entries for the page's %d rows", ix.Name, n, tab.Heap.NumRows())
		}
	}
	if _, err := db.Exec("INSERT INTO t VALUES (33, 0, 'x', 'p')"); err == nil {
		t.Error("a key a session holds uncommitted was taken")
	}
	sessExec(t, a, "COMMIT")
	sessExec(t, b, "ROLLBACK")
	want := 32 + next - 100
	if got := oneInt(t, db.Session(), "SELECT COUNT(*) FROM t"); got != int64(want) {
		t.Errorf("%d rows, want %d", got, want)
	}
	sameAsScan(t, db)
}

// The domains FuzzOnePageIndex draws t's f and s from: NULL, NaN, both
// zeros, INT and FLOAT spellings of one number, infinities; and strings
// that share prefixes, the empty one and one holding a zero byte.
var (
	fuzzF = []types.Value{types.Null(), types.NewFloat(math.NaN()), types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)),
		types.NewInt(2), types.NewFloat(2), types.NewFloat(2.5), types.NewInt(-1), types.NewFloat(-1),
		types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)), types.NewInt(7), types.NewFloat(1e300)}
	fuzzS = []types.Value{types.Null(), types.NewString(""), types.NewString("a"), types.NewString("ab"),
		types.NewString("abc"), types.NewString("abd"), types.NewString("ab\x00"), types.NewString("b"),
		types.NewString(strings.Repeat("abc", 12)), types.NewString(strings.Repeat("abc", 12) + "d")}
)

// FuzzOnePageIndex is the oracle of an index that has no tree. t(id, f,
// s, pad) has a unique index t_sf on (s, f) and a non-unique one t_f on
// (f), and rows drawn from the input, all on one heap page. Every
// insert's refusal is a duplicate (s, f) key; every index range and
// equality, and every index-NL probe of either index, returns what a
// heap scan filtered by types.Compare returns. Then the heap grows a
// second page, which builds the trees, and the same reads must return
// the same rows, and duplicates still be refused.
func FuzzOnePageIndex(f *testing.F) {
	f.Add([]byte{1, 1, 2, 3, 3, 4, 4, 5, 5, 6, 0, 0}, []byte{0, 1, 2, 3})
	f.Add([]byte{2, 2, 3, 2, 4, 8, 5, 8, 1, 9, 1, 9, 9, 0}, []byte{4, 5, 11, 12})
	f.Add([]byte{7, 2, 8, 2, 11, 3, 12, 8, 9, 9, 10, 1}, []byte{9, 10, 1, 6, 2, 7})
	f.Fuzz(func(t *testing.T, rows, bounds []byte) {
		if len(rows) > 120 {
			rows = rows[:120]
		}
		db := Open(Config{})
		mustExec(t, db, "CREATE TABLE t (id INTEGER NOT NULL, f DOUBLE, s VARCHAR(60), pad VARCHAR(400))")
		mustExec(t, db, "CREATE UNIQUE INDEX t_sf ON t (s, f)")
		mustExec(t, db, "CREATE INDEX t_f ON t (f)")
		mustExec(t, db, "CREATE TABLE pf (v DOUBLE)")
		mustExec(t, db, "CREATE TABLE ps (v VARCHAR(60))")
		mustExec(t, db, "CREATE TABLE pj (s VARCHAR(60), f DOUBLE)")
		for _, v := range fuzzF {
			mustExec(t, db, "INSERT INTO pf VALUES (?)", v)
		}
		for _, v := range fuzzS {
			mustExec(t, db, "INSERT INTO ps VALUES (?)", v)
		}
		for i := 0; i+1 < len(bounds); i += 2 {
			mustExec(t, db, "INSERT INTO pj VALUES (?, ?)", fuzzS[int(bounds[i])%len(fuzzS)], fuzzF[int(bounds[i+1])%len(fuzzF)])
		}
		tab := atomTable(t, db)
		key := func(s, f types.Value) string {
			if f.Kind == types.KindInt {
				f = types.NewFloat(float64(f.Int))
			}
			return string(types.EncodeKey(types.EncodeKey(nil, s), f))
		}
		held := map[string]bool{}
		insert := func(id int, s, f types.Value, pad string) {
			t.Helper()
			_, err := db.Exec("INSERT INTO t VALUES (?, ?, ?, ?)", types.NewInt(int64(id)), f, s, types.NewString(pad))
			if dup := held[key(s, f)]; dup != (err != nil) || err != nil && !strings.Contains(err.Error(), "unique") {
				t.Fatalf("insert (%v, %v): duplicate %v, error %v", s, f, dup, err)
			}
			held[key(s, f)] = true
		}
		for i := 0; i+1 < len(rows); i += 2 {
			insert(i, fuzzS[int(rows[i])%len(fuzzS)], fuzzF[int(rows[i+1])%len(fuzzF)], "p")
		}
		if tab.Heap.NumPages() > 1 || built(t, tab) {
			t.Fatalf("%d heap pages, built %v", tab.Heap.NumPages(), built(t, tab))
		}
		before := fuzzReads(t, db, bounds)
		for i := 0; tab.Heap.NumPages() < 2; i++ {
			insert(1000+i, types.NewString("~fill"), types.NewFloat(1e6+float64(i)), strings.Repeat("w", 300))
		}
		if !built(t, tab) {
			t.Fatal("not built on two heap pages")
		}
		after := fuzzReads(t, db, bounds)
		for q, ids := range before {
			kept := slices.DeleteFunc(slices.Clone(after[q]), func(id int64) bool { return id >= 1000 })
			if !slices.Equal(ids, kept) {
				t.Errorf("%s: rootless %v, built %v", q, ids, kept)
			}
		}
		for i := 0; i+1 < len(rows); i += 2 {
			insert(2000+i, fuzzS[int(rows[i])%len(fuzzS)], fuzzF[int(rows[i+1])%len(fuzzF)], "p")
		}
		tab.Mu.RLock()
		defer tab.Mu.RUnlock()
		if err := tab.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// fuzzReads runs FuzzOnePageIndex's reads — equalities of every domain
// value and ranges between the values bounds picks, on f through t_f and
// on s through t_sf, and both index-NL joins — holds each to a filtered
// heap scan, and returns each read's ids, sorted, by its description.
func fuzzReads(t *testing.T, db *DB, bounds []byte) map[string][]int64 {
	t.Helper()
	type row struct {
		id   int64
		f, s types.Value
	}
	var all []row
	for _, r := range mustQuery(t, db, "SELECT id, f, s FROM t").Data {
		all = append(all, row{r[0].Int, r[1], r[2]})
	}
	cmp := func(a, b types.Value) int {
		c, err := types.Compare(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	out := map[string][]int64{}
	where := func(keep func(r row) bool) (ids []int64) {
		for _, r := range all {
			if keep(r) {
				ids = append(ids, r.id)
			}
		}
		return ids
	}
	check := func(q, via string, params []types.Value, want []int64) {
		t.Helper()
		if ex, err := db.Explain(q, params...); err != nil || !strings.Contains(ex, via) {
			t.Fatalf("%q: want %s, plan %s %v", q, via, ex, err)
		}
		var got []int64
		for _, r := range mustQuery(t, db, q, params...).Data {
			got = append(got, r[0].Int)
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%q %v: index %v, heap %v", q, params, got, want)
		}
		out[fmt.Sprintf("%s %v", q, params)] = got
	}
	for _, c := range []struct {
		col, via string
		dom      []types.Value
		val      func(r row) types.Value
	}{
		{"f", "via t_f", fuzzF, func(r row) types.Value { return r.f }},
		{"s", "via t_sf", fuzzS, func(r row) types.Value { return r.s }},
	} {
		for _, v := range c.dom[1:] {
			check("SELECT id FROM t WHERE "+c.col+" = ?", c.via, []types.Value{v}, where(func(r row) bool {
				return !c.val(r).IsNull() && cmp(c.val(r), v) == 0
			}))
		}
		for i := 0; i+1 < len(bounds) && i < 16; i += 2 {
			lo, hi := c.dom[1+int(bounds[i])%(len(c.dom)-1)], c.dom[1+int(bounds[i+1])%(len(c.dom)-1)]
			check("SELECT id FROM t WHERE "+c.col+" >= ? AND "+c.col+" < ?", c.via, []types.Value{lo, hi}, where(func(r row) bool {
				v := c.val(r)
				return !v.IsNull() && cmp(v, lo) >= 0 && cmp(v, hi) < 0
			}))
		}
		// A whole unique key: an entry equal to the probe itself.
		for i := 0; c.col == "s" && i+1 < len(bounds) && i < 16; i += 2 {
			sv, fv := fuzzS[1+int(bounds[i])%(len(fuzzS)-1)], fuzzF[1+int(bounds[i+1])%(len(fuzzF)-1)]
			check("SELECT id FROM t WHERE s = ? AND f = ?", "via t_sf", []types.Value{sv, fv}, where(func(r row) bool {
				return !r.s.IsNull() && !r.f.IsNull() && cmp(r.s, sv) == 0 && cmp(r.f, fv) == 0
			}))
		}
		// The index-NL join, held to a nested loop over the heap.
		var want []int64
		for _, p := range mustQuery(t, db, "SELECT v FROM p"+c.col).Data {
			want = append(want, where(func(r row) bool {
				v := c.val(r)
				return !v.IsNull() && !p[0].IsNull() && cmp(v, p[0]) == 0
			})...)
		}
		check("SELECT t.id FROM p"+c.col+", t WHERE t."+c.col+" = p"+c.col+".v", "NLJOIN [inner=t "+c.via, nil, want)
	}
	// An index-NL join on the whole unique key: a probe equal to an entry.
	var want []int64
	for _, p := range mustQuery(t, db, "SELECT s, f FROM pj").Data {
		want = append(want, where(func(r row) bool {
			return !r.s.IsNull() && !r.f.IsNull() && !p[0].IsNull() && !p[1].IsNull() && cmp(r.s, p[0]) == 0 && cmp(r.f, p[1]) == 0
		})...)
	}
	check("SELECT t.id FROM pj, t WHERE t.s = pj.s AND t.f = pj.f", "NLJOIN [inner=t via t_sf", nil, want)
	return out
}
