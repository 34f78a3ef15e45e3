package plan

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewDisk(0), 4<<20)
	cat := catalog.New(pool, catalog.Config{MemoryBytes: 4 << 20})
	mk := func(name string, cols []catalog.Column) {
		if _, err := cat.CreateTable(name, cols); err != nil {
			t.Fatal(err)
		}
	}
	mk("parent", []catalog.Column{
		{Name: "id", Type: types.IntType, NotNull: true},
		{Name: "name", Type: types.StringType},
		{Name: "col1", Type: types.IntType},
	})
	mk("child", []catalog.Column{
		{Name: "id", Type: types.IntType, NotNull: true},
		{Name: "parent", Type: types.IntType},
		{Name: "col1", Type: types.IntType},
	})
	if _, err := cat.CreateIndex("parent", "parent_pk", []string{"id"}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("child", "child_fk", []string{"parent", "id"}, false); err != nil {
		t.Fatal(err)
	}
	return cat
}

func explainFor(t *testing.T, cat *catalog.Catalog, mode Mode, query string) string {
	t.Helper()
	st, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	p := New(cat, mode)
	before := st.String()
	n, err := p.PlanStatement(st)
	if err != nil {
		t.Fatalf("plan %q: %v", query, err)
	}
	// The statement may be a cached AST other sessions are planning or
	// printing at the same moment: the planner must not write into it.
	if after := st.String(); after != before {
		t.Errorf("planning rewrote its input:\nbefore %s\nafter  %s", before, after)
	}
	return Explain(n)
}

func TestIndexPathForUniqueEquality(t *testing.T) {
	cat := testCatalog(t)
	ex := explainFor(t, cat, Sophisticated, "SELECT name FROM parent WHERE id = 7")
	if !strings.Contains(ex, "IXSCAN") || !strings.Contains(ex, "parent_pk") {
		t.Errorf("plan:\n%s", ex)
	}
}

func TestIndexRangeScan(t *testing.T) {
	cat := testCatalog(t)
	ex := explainFor(t, cat, Sophisticated, "SELECT id FROM parent WHERE id > 5 AND id <= 10")
	if !strings.Contains(ex, "IXSCAN") {
		t.Errorf("range should use index:\n%s", ex)
	}
	// Compound prefix: equality on parent + range on id.
	ex = explainFor(t, cat, Sophisticated, "SELECT id FROM child WHERE parent = 3 AND id < 100")
	if !strings.Contains(ex, "child_fk") {
		t.Errorf("compound path:\n%s", ex)
	}
}

func TestNoUsableIndexFallsBackToScan(t *testing.T) {
	cat := testCatalog(t)
	ex := explainFor(t, cat, Sophisticated, "SELECT id FROM parent WHERE name = 'x'")
	if !strings.Contains(ex, "TBSCAN") {
		t.Errorf("plan:\n%s", ex)
	}
	// Residual predicate when index covers only part.
	ex = explainFor(t, cat, Sophisticated, "SELECT id FROM parent WHERE id = 1 AND name = 'x'")
	if !strings.Contains(ex, "IXSCAN") || !strings.Contains(ex, "residual") {
		t.Errorf("plan:\n%s", ex)
	}
}

func TestIndexNLJoinChosen(t *testing.T) {
	cat := testCatalog(t)
	// The paper's Q2: selective parent lookup, child joined via FK index.
	ex := explainFor(t, cat, Sophisticated,
		"SELECT p.col1, c.col1 FROM parent p, child c WHERE p.id = c.parent AND p.id = ?")
	if !strings.Contains(ex, "NLJOIN") {
		t.Errorf("expected index NL join:\n%s", ex)
	}
	if !strings.Contains(ex, "child_fk") {
		t.Errorf("join should probe the FK index:\n%s", ex)
	}
	// Sophisticated should drive from parent (the selective side).
	lines := strings.Split(ex, "\n")
	var first string
	for _, l := range lines {
		if strings.Contains(l, "SCAN") {
			first = l
			break
		}
	}
	if !strings.Contains(first, "parent") {
		t.Errorf("driving table should be parent:\n%s", ex)
	}
}

func TestNaiveFollowsFromOrder(t *testing.T) {
	cat := testCatalog(t)
	// With child listed first, naive mode drives from child even though
	// parent has the selective predicate.
	ex := explainFor(t, cat, Naive,
		"SELECT p.col1 FROM child c, parent p WHERE p.id = c.parent AND p.id = 3")
	lines := strings.Split(ex, "\n")
	var first string
	for _, l := range lines {
		if strings.Contains(l, "SCAN") {
			first = l
			break
		}
	}
	if !strings.Contains(first, "child") {
		t.Errorf("naive should drive from child:\n%s", ex)
	}
	// Sophisticated reorders regardless of FROM order.
	ex = explainFor(t, cat, Sophisticated,
		"SELECT p.col1 FROM child c, parent p WHERE p.id = c.parent AND p.id = 3")
	for _, l := range strings.Split(ex, "\n") {
		if strings.Contains(l, "SCAN") {
			first = l
			break
		}
	}
	if !strings.Contains(first, "parent") {
		t.Errorf("sophisticated should drive from parent:\n%s", ex)
	}
}

func TestFlatteningModes(t *testing.T) {
	cat := testCatalog(t)
	q := "SELECT a FROM (SELECT col1 AS a, id FROM parent WHERE col1 > 0) AS sub WHERE id = 4"
	soph := explainFor(t, cat, Sophisticated, q)
	if strings.Contains(soph, "TEMP") || strings.Contains(soph, "SUBQ") {
		t.Errorf("sophisticated should flatten:\n%s", soph)
	}
	if !strings.Contains(soph, "IXSCAN") {
		t.Errorf("flattened query should push id=4 into the index:\n%s", soph)
	}
	naive := explainFor(t, cat, Naive, q)
	if !strings.Contains(naive, "TEMP") {
		t.Errorf("naive should materialize:\n%s", naive)
	}
}

func TestFlattenAliasCollision(t *testing.T) {
	cat := testCatalog(t)
	// Inner uses alias p that collides with the outer p.
	q := "SELECT p.id, sub.a FROM parent p, (SELECT p.col1 AS a, p.id AS pid FROM parent p) AS sub WHERE p.id = sub.pid"
	ex := explainFor(t, cat, Sophisticated, q)
	if strings.Contains(ex, "SUBQ") {
		t.Errorf("collision case should still flatten (with rename):\n%s", ex)
	}
}

func TestNonFlattenableSubquery(t *testing.T) {
	cat := testCatalog(t)
	q := "SELECT n FROM (SELECT COUNT(*) AS n FROM parent GROUP BY name) AS sub WHERE n > 1"
	ex := explainFor(t, cat, Sophisticated, q)
	if !strings.Contains(ex, "GRPBY") {
		t.Errorf("aggregate subquery must be preserved:\n%s", ex)
	}
}

func TestDMLPlansUseIndexes(t *testing.T) {
	cat := testCatalog(t)
	ex := explainFor(t, cat, Sophisticated, "UPDATE parent SET name = 'x' WHERE id = 3")
	if !strings.Contains(ex, "UPDATE") {
		t.Errorf("plan:\n%s", ex)
	}
	st, _ := sql.Parse("UPDATE parent SET name = 'x' WHERE id = 3")
	p := New(cat, Sophisticated)
	n, err := p.PlanStatement(st)
	if err != nil {
		t.Fatal(err)
	}
	up := n.(*UpdatePlan)
	if up.Path == nil || up.Path.Index.Name != "parent_pk" {
		t.Errorf("update should use PK path: %+v", up.Path)
	}
	st, _ = sql.Parse("DELETE FROM child WHERE parent = 5")
	n, err = p.PlanStatement(st)
	if err != nil {
		t.Fatal(err)
	}
	del := n.(*DeletePlan)
	if del.Path == nil || del.Path.Index.Name != "child_fk" {
		t.Errorf("delete should use FK path: %+v", del.Path)
	}
}

func TestPlanErrors(t *testing.T) {
	cat := testCatalog(t)
	p := New(cat, Sophisticated)
	bad := []string{
		"SELECT nosuch FROM parent",
		"SELECT id FROM nosuch",
		"SELECT id FROM parent, child", // ambiguous id
		"SELECT name, COUNT(*) FROM parent",
		"SELECT NOSUCHFUNC(id) FROM parent",
		"UPDATE parent SET nosuch = 1",
		"INSERT INTO parent (nosuch) VALUES (1)",
		"INSERT INTO parent (id) VALUES (1, 2)",
	}
	for _, q := range bad {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, err := p.PlanStatement(st); err == nil {
			t.Errorf("plan(%q) should fail", q)
		}
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"Acme", "Acme", true},
		{"Acme", "A%", true},
		{"Acme", "%e", true},
		{"Acme", "A_me", true},
		{"Acme", "a%", false},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%b%", true},
		{"abc", "%%c", true},
		{"mississippi", "%ss%pp%", true},
		{"mississippi", "%ss%xx%", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.pat); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v", c.s, c.pat, got)
		}
	}
}

func TestScalarThreeValuedLogic(t *testing.T) {
	null := &Const{Val: types.Null()}
	tr := &Const{Val: types.NewBool(true)}
	fa := &Const{Val: types.NewBool(false)}
	cases := []struct {
		e    Scalar
		want types.Value
	}{
		{&Binary{Op: sql.OpAnd, L: null, R: fa}, types.NewBool(false)},
		{&Binary{Op: sql.OpAnd, L: null, R: tr}, types.Null()},
		{&Binary{Op: sql.OpOr, L: null, R: tr}, types.NewBool(true)},
		{&Binary{Op: sql.OpOr, L: null, R: fa}, types.Null()},
		{&Not{X: null}, types.Null()},
		{&Binary{Op: sql.OpEq, L: null, R: null}, types.Null()},
		{&IsNull{X: null}, types.NewBool(true)},
		{&IsNull{X: tr, Not: true}, types.NewBool(true)},
	}
	for i, c := range cases {
		got, err := c.e.Eval(nil, nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Kind != c.want.Kind || (got.Kind == types.KindBool && got.Bool() != c.want.Bool()) {
			t.Errorf("case %d: got %v want %v", i, got, c.want)
		}
	}
}

func TestInListNullSemantics(t *testing.T) {
	// 1 IN (2, NULL) must be NULL (unknown), not FALSE.
	e := &InList{
		X:    &Const{Val: types.NewInt(1)},
		List: []Scalar{&Const{Val: types.NewInt(2)}, &Const{Val: types.Null()}},
	}
	v, err := e.Eval(nil, nil)
	if err != nil || !v.IsNull() {
		t.Errorf("1 IN (2, NULL) = %v, %v; want NULL", v, err)
	}
	// 2 IN (2, NULL) is TRUE.
	e.X = &Const{Val: types.NewInt(2)}
	v, _ = e.Eval(nil, nil)
	if !IsTrue(v) {
		t.Errorf("2 IN (2, NULL) = %v; want TRUE", v)
	}
}

func TestArithmetic(t *testing.T) {
	i := func(n int64) Scalar { return &Const{Val: types.NewInt(n)} }
	f := func(x float64) Scalar { return &Const{Val: types.NewFloat(x)} }
	cases := []struct {
		e    Scalar
		want types.Value
	}{
		{&Binary{Op: sql.OpAdd, L: i(2), R: i(3)}, types.NewInt(5)},
		{&Binary{Op: sql.OpSub, L: i(2), R: i(3)}, types.NewInt(-1)},
		{&Binary{Op: sql.OpMul, L: i(4), R: f(0.5)}, types.NewFloat(2)},
		{&Binary{Op: sql.OpDiv, L: i(7), R: i(2)}, types.NewInt(3)},
		{&Binary{Op: sql.OpDiv, L: f(7), R: i(2)}, types.NewFloat(3.5)},
		{&Neg{X: i(5)}, types.NewInt(-5)},
	}
	for idx, c := range cases {
		got, err := c.e.Eval(nil, nil)
		if err != nil || !types.Equal(got, c.want) || got.Kind != c.want.Kind {
			t.Errorf("case %d: got %v (%v), want %v", idx, got, err, c.want)
		}
	}
	if _, err := (&Binary{Op: sql.OpDiv, L: i(1), R: i(0)}).Eval(nil, nil); err == nil {
		t.Error("integer division by zero should error")
	}
	if _, err := (&Binary{Op: sql.OpDiv, L: f(1), R: f(0)}).Eval(nil, nil); err == nil {
		t.Error("float division by zero should error")
	}
}
