package plan

import (
	"strings"
	"testing"

	"repro/internal/sql"
	"repro/internal/types"
)

// TestExplainRendersEveryOperator plans queries that exercise each
// physical operator and checks the EXPLAIN output names them all.
func TestExplainRendersEveryOperator(t *testing.T) {
	cat := testCatalog(t)
	cases := []struct {
		query string
		want  []string
	}{
		{"SELECT id FROM parent WHERE id = 1", []string{"IXSCAN", "parent_pk"}},
		{"SELECT id FROM parent WHERE name = 'x'", []string{"TBSCAN", "filter="}},
		{"SELECT p.id FROM parent p, child c WHERE p.id = c.parent AND p.id = 1",
			[]string{"NLJOIN", "inner=child"}},
		{"SELECT p.id FROM parent p, child c WHERE p.name = c.id", []string{"HSJOIN"}},
		{"SELECT p.id FROM parent p, child c WHERE p.col1 > c.col1", []string{"NLJOIN*", "cross"}[:1]},
		{"SELECT name, COUNT(*) FROM parent GROUP BY name HAVING COUNT(*) > 1",
			[]string{"GRPBY", "FILTER"}},
		{"SELECT DISTINCT name FROM parent ORDER BY name LIMIT 3",
			[]string{"UNIQUE", "SORT", "LIMIT", "PROJECT"}},
		{"SELECT 1", []string{"VALUES"}},
		{"UPDATE parent SET name = 'x' WHERE id = 1", []string{"UPDATE"}},
		{"DELETE FROM child WHERE parent = 2", []string{"DELETE"}},
		{"INSERT INTO parent (id) VALUES (99)", []string{"INSERT", "1 rows"}},
	}
	for _, c := range cases {
		ex := explainFor(t, cat, Sophisticated, c.query)
		for _, w := range c.want {
			if !strings.Contains(ex, w) {
				t.Errorf("Explain(%q) missing %q:\n%s", c.query, w, ex)
			}
		}
	}
	// Naive materialization label.
	ex := explainFor(t, cat, Naive, "SELECT a FROM (SELECT id AS a FROM parent) AS s")
	if !strings.Contains(ex, "TEMP") || !strings.Contains(ex, "materialized") {
		t.Errorf("naive explain:\n%s", ex)
	}
	// Left join label.
	ex = explainFor(t, cat, Sophisticated, "SELECT p.id FROM parent p LEFT JOIN child c ON c.parent = p.id AND c.col1 > p.col1")
	if !strings.Contains(ex, "LEFT") {
		t.Errorf("left join explain:\n%s", ex)
	}
}

func TestAccessPathString(t *testing.T) {
	var nilPath *AccessPath
	if nilPath.String() != "full scan" {
		t.Errorf("nil path: %s", nilPath.String())
	}
	cat := testCatalog(t)
	ex := explainFor(t, cat, Sophisticated, "SELECT id FROM parent WHERE id > 2 AND id <= 9")
	if !strings.Contains(ex, ">") || !strings.Contains(ex, "<=") {
		t.Errorf("range path rendering:\n%s", ex)
	}
}

func TestFlattenQualifiedStar(t *testing.T) {
	cat := testCatalog(t)
	// Bare star over a derived table: flattening must preserve the
	// visible column set (id, nm), not expose physical columns.
	q := "SELECT * FROM (SELECT id, name AS nm FROM parent WHERE id < 5) AS sub"
	st, _ := sql.Parse(q)
	p := New(cat, Sophisticated)
	n, err := p.PlanStatement(st)
	if err != nil {
		t.Fatal(err)
	}
	schema := n.Schema()
	if len(schema) != 2 || !strings.EqualFold(schema[0].Name, "id") || !strings.EqualFold(schema[1].Name, "nm") {
		t.Errorf("flattened star schema: %+v", schema)
	}
	// Qualified star with other tables present.
	q = "SELECT sub.*, c.id FROM (SELECT id AS pid FROM parent) AS sub, child c WHERE c.parent = sub.pid"
	st, _ = sql.Parse(q)
	n, err = p.PlanStatement(st)
	if err != nil {
		t.Fatal(err)
	}
	schema = n.Schema()
	if len(schema) != 2 || !strings.EqualFold(schema[0].Name, "pid") {
		t.Errorf("qualified star schema: %+v", schema)
	}
}

func TestFlattenKeepsComplexExprSubstitution(t *testing.T) {
	cat := testCatalog(t)
	// The derived table computes an expression; outer references to it
	// must be replaced by the defining expression everywhere.
	q := "SELECT twice FROM (SELECT col1 + col1 AS twice, id FROM parent) AS s WHERE twice > 0 AND id < 10 ORDER BY twice"
	ex := explainFor(t, cat, Sophisticated, q)
	if strings.Contains(ex, "TEMP") || strings.Contains(ex, "SUBQ") {
		t.Errorf("should flatten:\n%s", ex)
	}
	if !strings.Contains(ex, "col1 + ") {
		t.Errorf("substituted expression missing:\n%s", ex)
	}
}

func TestFlattenNestedTwoLevels(t *testing.T) {
	cat := testCatalog(t)
	q := "SELECT a FROM (SELECT b AS a FROM (SELECT id AS b FROM parent WHERE id = 3) AS inner1) AS outer1"
	st, _ := sql.Parse(q)
	p := New(cat, Sophisticated)
	n, err := p.PlanStatement(st)
	if err != nil {
		t.Fatal(err)
	}
	ex := Explain(n)
	if strings.Contains(ex, "SUBQ") {
		t.Errorf("two-level flattening failed:\n%s", ex)
	}
	if !strings.Contains(ex, "IXSCAN") {
		t.Errorf("innermost predicate should reach the index:\n%s", ex)
	}
}

// TestFlattenKeepsJoinTreeDerivedTable: a derived table whose own
// derived table holds a join tree stays unflattened — Pivot's
// reconstruction under a logical derived table once panicked here.
func TestFlattenKeepsJoinTreeDerivedTable(t *testing.T) {
	cat := testCatalog(t)
	q := "SELECT d.name FROM (SELECT name FROM (SELECT p.name AS name, c.col1 AS col1 FROM parent p LEFT JOIN child c ON c.parent = p.id) AS r WHERE col1 > 1) AS d"
	st, _ := sql.Parse(q)
	if _, err := New(cat, Sophisticated).PlanStatement(st); err != nil {
		t.Fatal(err)
	}
}

func TestScalarStrings(t *testing.T) {
	exprs := []struct {
		s    Scalar
		want string
	}{
		{&ColRef{Idx: 3}, "$3"},
		{&ColRef{Idx: 1, Name: "t.a"}, "t.a"},
		{&Const{Val: types.NewString("x")}, "'x'"},
		{&ParamRef{Idx: 0}, "?"},
		{&Not{X: &Const{Val: types.NewBool(true)}}, "NOT (TRUE)"},
		{&Neg{X: &ColRef{Name: "a"}}, "-(a)"},
		{&IsNull{X: &ColRef{Name: "a"}}, "a IS NULL"},
		{&IsNull{X: &ColRef{Name: "a"}, Not: true}, "a IS NOT NULL"},
		{&InList{X: &ColRef{Name: "a"}, List: []Scalar{&Const{Val: types.NewInt(1)}}}, "a IN (1)"},
		{&InList{X: &ColRef{Name: "a"}, Not: true, List: []Scalar{&Const{Val: types.NewInt(1)}}}, "a NOT IN (1)"},
		{&InSubquery{X: &ColRef{Name: "a"}}, "a IN (<subquery>)"},
		{&Like{X: &ColRef{Name: "a"}, Pattern: &Const{Val: types.NewString("x%")}}, "a LIKE 'x%'"},
		{&Like{X: &ColRef{Name: "a"}, Pattern: &Const{Val: types.NewString("x%")}, Not: true}, "a NOT LIKE 'x%'"},
		{&Cast{X: &ColRef{Name: "a"}, Type: types.IntType}, "CAST(a AS INTEGER)"},
	}
	for _, e := range exprs {
		if got := e.s.String(); got != e.want {
			t.Errorf("String() = %q, want %q", got, e.want)
		}
	}
}

func TestCastEval(t *testing.T) {
	c := &Cast{X: &Const{Val: types.NewString("42")}, Type: types.IntType}
	v, err := c.Eval(nil, &Env{})
	if err != nil || v.Int != 42 {
		t.Errorf("cast eval: %v %v", v, err)
	}
	bad := &Cast{X: &Const{Val: types.NewString("nope")}, Type: types.IntType}
	if _, err := bad.Eval(nil, &Env{}); err == nil {
		t.Error("bad cast should error")
	}
}

func TestParamRefMissing(t *testing.T) {
	p := &ParamRef{Idx: 2}
	if _, err := p.Eval(nil, &Env{Params: []types.Value{types.NewInt(1)}}); err == nil {
		t.Error("missing parameter should error")
	}
}

func TestNaiveIndexFallbackOrder(t *testing.T) {
	cat := testCatalog(t)
	// Naive mode: first candidate 'name' has no index; fallback finds
	// the id candidate in textual order.
	ex := explainFor(t, cat, Naive, "SELECT id FROM parent WHERE name = 'x' AND id = 3")
	if !strings.Contains(ex, "IXSCAN") {
		t.Errorf("naive fallback should still use the pk:\n%s", ex)
	}
}

func TestAggregateErrorPaths(t *testing.T) {
	cat := testCatalog(t)
	p := New(cat, Sophisticated)
	bad := []string{
		"SELECT SUM(*) FROM parent",
		"SELECT SUM(id, col1) FROM parent",
		"SELECT name FROM parent GROUP BY id",
		"SELECT COUNT(*) FROM parent HAVING name = 'x'",
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

func TestOrderByQualifiedGroupKey(t *testing.T) {
	cat := testCatalog(t)
	// ORDER BY an unqualified name matching a qualified group key.
	q := "SELECT p.name, COUNT(*) FROM parent p GROUP BY p.name ORDER BY name"
	ex := explainFor(t, cat, Sophisticated, q)
	if !strings.Contains(ex, "SORT") {
		t.Errorf("plan:\n%s", ex)
	}
}
