package sql

import (
	"strings"
	"testing"

	"repro/internal/types"
)

// roundTrip parses src, prints the AST, reparses, and reprints; the two
// printed forms must agree. This is the property the transformation
// layer relies on: printed SQL must mean what the AST means.
func roundTrip(t *testing.T, src string) Statement {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	printed := st.String()
	st2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse of %q (from %q): %v", printed, src, err)
	}
	if st2.String() != printed {
		t.Fatalf("print not stable:\n  1st: %s\n  2nd: %s", printed, st2.String())
	}
	return st
}

func TestParseSelectBasic(t *testing.T) {
	st := roundTrip(t, "SELECT Beds FROM Account17 WHERE Hospital = 'State'")
	sel := st.(*SelectStmt)
	if len(sel.Items) != 1 || sel.Items[0].Expr.(*ColumnRef).Name != "Beds" {
		t.Errorf("items: %+v", sel.Items)
	}
	nt := sel.From[0].(*NamedTable)
	if nt.Name != "Account17" {
		t.Errorf("from: %+v", nt)
	}
	w := sel.Where.(*BinaryExpr)
	if w.Op != OpEq || w.R.(*Literal).Val.Str != "State" {
		t.Errorf("where: %+v", w)
	}
}

func TestParseSelectFull(t *testing.T) {
	src := "SELECT t.a, COUNT(*) AS n, SUM(t.b + 1) FROM tab t WHERE t.a >= 10 AND t.c IS NOT NULL " +
		"GROUP BY t.a HAVING COUNT(*) > 2 ORDER BY n DESC, t.a LIMIT 5"
	st := roundTrip(t, src)
	sel := st.(*SelectStmt)
	if !strings.EqualFold(sel.Items[1].Alias, "n") || len(sel.GroupBy) != 1 ||
		sel.Having == nil || len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || *sel.Limit != 5 {
		t.Errorf("parsed: %s", sel)
	}
}

func TestParseStarForms(t *testing.T) {
	sel := roundTrip(t, "SELECT * FROM t").(*SelectStmt)
	if !sel.Items[0].Star {
		t.Error("bare star")
	}
	sel = roundTrip(t, "SELECT p.*, c.x FROM p, c").(*SelectStmt)
	if !sel.Items[0].Star || sel.Items[0].StarQualifier != "p" {
		t.Errorf("qualified star: %+v", sel.Items[0])
	}
}

func TestParseJoins(t *testing.T) {
	sel := roundTrip(t, "SELECT a FROM p JOIN c ON p.id = c.parent LEFT JOIN d ON d.x = c.y").(*SelectStmt)
	j := sel.From[0].(*JoinTable)
	if j.Type != LeftJoin {
		t.Errorf("outer join type: %v", j.Type)
	}
	inner := j.Left.(*JoinTable)
	if inner.Type != InnerJoin || inner.Left.(*NamedTable).Name != "p" {
		t.Errorf("inner: %+v", inner)
	}
}

func TestParseCommaJoinWithAliases(t *testing.T) {
	sel := roundTrip(t, "SELECT s.Str1, i.Int1 FROM Pivotstr s, Pivotint i WHERE s.Row = i.Row").(*SelectStmt)
	if len(sel.From) != 2 {
		t.Fatalf("from: %+v", sel.From)
	}
	if sel.From[0].(*NamedTable).Alias != "s" || sel.From[1].(*NamedTable).Alias != "i" {
		t.Errorf("aliases: %+v", sel.From)
	}
}

func TestParseSubqueryInFrom(t *testing.T) {
	// The paper's generic transformation (Q1^Chunk).
	src := "SELECT Beds FROM (SELECT Str1 AS Hospital, Int1 AS Beds FROM Chunkintstr " +
		"WHERE Tenant = 17 AND Table = 0 AND Chunk = 1) AS Account17 WHERE Hospital = 'State'"
	sel := roundTrip(t, src).(*SelectStmt)
	sub := sel.From[0].(*SubqueryTable)
	if sub.Alias != "Account17" {
		t.Errorf("alias: %q", sub.Alias)
	}
	if len(sub.Select.Items) != 2 || sub.Select.Items[0].Alias != "Hospital" {
		t.Errorf("subquery items: %+v", sub.Select.Items)
	}
}

func TestKeywordishColumnNames(t *testing.T) {
	// Table, Chunk, Row are ordinary identifiers in this dialect.
	sel := roundTrip(t, "SELECT Tenant, Table, Chunk, Row FROM Chunkdata WHERE Table = 0").(*SelectStmt)
	if len(sel.Items) != 4 {
		t.Errorf("items: %+v", sel.Items)
	}
}

func TestParseParams(t *testing.T) {
	sel := roundTrip(t, "SELECT a FROM t WHERE b = ? AND c > ?").(*SelectStmt)
	and := sel.Where.(*BinaryExpr)
	p1 := and.L.(*BinaryExpr).R.(*Param)
	p2 := and.R.(*BinaryExpr).R.(*Param)
	if p1.Index != 0 || p2.Index != 1 {
		t.Errorf("param indexes: %d %d", p1.Index, p2.Index)
	}
}

func TestParseLiterals(t *testing.T) {
	sel := roundTrip(t, "SELECT 1, -2, 2.5, 'it''s', NULL, TRUE, FALSE, DATE '2008-06-09' FROM t").(*SelectStmt)
	vals := make([]types.Value, len(sel.Items))
	for i, it := range sel.Items {
		vals[i] = it.Expr.(*Literal).Val
	}
	if vals[0].Int != 1 || vals[1].Int != -2 || vals[2].Float() != 2.5 ||
		vals[3].Str != "it's" || !vals[4].IsNull() || !vals[5].Bool() || vals[6].Bool() ||
		vals[7].Kind != types.KindDate {
		t.Errorf("literals: %v", vals)
	}
}

func TestParsePredicates(t *testing.T) {
	roundTrip(t, "SELECT a FROM t WHERE a IN (1, 2, 3)")
	roundTrip(t, "SELECT a FROM t WHERE a NOT IN (SELECT b FROM u WHERE c = 1)")
	roundTrip(t, "SELECT a FROM t WHERE name LIKE 'Acme%' AND b NOT LIKE '_x'")
	roundTrip(t, "SELECT a FROM t WHERE NOT (a = 1 OR b = 2) AND c IS NULL")
	roundTrip(t, "SELECT CAST(a AS INTEGER), CAST(b AS VARCHAR(100)) FROM t")
}

func TestParsePrecedence(t *testing.T) {
	sel := roundTrip(t, "SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3").(*SelectStmt)
	or := sel.Where.(*BinaryExpr)
	if or.Op != OpOr {
		t.Fatalf("top op: %v", or.Op)
	}
	if or.R.(*BinaryExpr).Op != OpAnd {
		t.Error("AND should bind tighter than OR")
	}
	sel = roundTrip(t, "SELECT a + b * c - d FROM t").(*SelectStmt)
	top := sel.Items[0].Expr.(*BinaryExpr)
	if top.Op != OpSub || top.L.(*BinaryExpr).Op != OpAdd {
		t.Errorf("arith precedence: %s", sel.Items[0].Expr)
	}
}

func TestParseArithParenPrinting(t *testing.T) {
	e, err := ParseExpr("(a + b) * c")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "(a + b) * c" {
		t.Errorf("printed: %s", e)
	}
	e, _ = ParseExpr("a - (b - c)")
	if e.String() != "a - (b - c)" {
		t.Errorf("right-assoc parens: %s", e)
	}
}

func TestParseInsert(t *testing.T) {
	st := roundTrip(t, "INSERT INTO Account (Aid, Name) VALUES (1, 'Acme'), (2, 'Gump')").(*InsertStmt)
	if st.Table != "Account" || len(st.Columns) != 2 || len(st.Rows) != 2 {
		t.Errorf("insert: %+v", st)
	}
	st = roundTrip(t, "INSERT INTO t VALUES (1, NULL, ?)").(*InsertStmt)
	if len(st.Columns) != 0 || len(st.Rows[0]) != 3 {
		t.Errorf("insert w/o columns: %+v", st)
	}
}

func TestParseUpdateDelete(t *testing.T) {
	up := roundTrip(t, "UPDATE Account SET Name = 'X', Beds = Beds + 1 WHERE Aid = 5").(*UpdateStmt)
	if len(up.Set) != 2 || up.Set[1].Column != "Beds" {
		t.Errorf("update: %+v", up)
	}
	del := roundTrip(t, "DELETE FROM Account WHERE Aid IN (SELECT Row FROM x)").(*DeleteStmt)
	if del.Table != "Account" || del.Where == nil {
		t.Errorf("delete: %+v", del)
	}
}

func TestParseDDL(t *testing.T) {
	ct := roundTrip(t, "CREATE TABLE Account (Aid INTEGER NOT NULL, Name VARCHAR(50), Born DATE, Ratio DOUBLE, Ok BOOLEAN)").(*CreateTableStmt)
	if len(ct.Cols) != 5 || !ct.Cols[0].NotNull || ct.Cols[1].Type.Width != 50 {
		t.Errorf("create table: %+v", ct)
	}
	roundTrip(t, "CREATE TABLE IF NOT EXISTS t (a INTEGER)")
	ci := roundTrip(t, "CREATE UNIQUE INDEX pk ON Account (Tenant, Aid)").(*CreateIndexStmt)
	if !ci.Unique || len(ci.Columns) != 2 {
		t.Errorf("create index: %+v", ci)
	}
	roundTrip(t, "DROP TABLE Account")
	roundTrip(t, "DROP TABLE IF EXISTS Account")
	roundTrip(t, "DROP INDEX pk ON Account")
	al := roundTrip(t, "ALTER TABLE Account ADD COLUMN Dealers INTEGER").(*AlterAddColumnStmt)
	if al.Col.Name != "Dealers" {
		t.Errorf("alter: %+v", al)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM (SELECT b FROM u)", // derived table without alias
		"INSERT INTO t",
		"INSERT INTO t VALUES 1",
		"UPDATE t SET",
		"CREATE TABLE t",
		"CREATE TABLE t (a NOTATYPE)",
		"SELECT 'unterminated FROM t",
		"SELECT a FROM t LIMIT x",
		"SELECT a b c FROM t",
		"SELECT a FROM t WHERE x ! y",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseTrailingSemicolonAndComments(t *testing.T) {
	roundTrip(t, "SELECT a FROM t;")
	st, err := Parse("SELECT a -- trailing comment\nFROM t -- another\n")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*SelectStmt).From[0].(*NamedTable).Name != "t" {
		t.Error("comment handling broke FROM")
	}
}

func TestParseDistinct(t *testing.T) {
	sel := roundTrip(t, "SELECT DISTINCT a, b FROM t").(*SelectStmt)
	if !sel.Distinct {
		t.Error("DISTINCT lost")
	}
}

func TestParseExprEntryPoint(t *testing.T) {
	e, err := ParseExpr("Tenant = 17 AND Table = 0")
	if err != nil {
		t.Fatal(err)
	}
	if e.(*BinaryExpr).Op != OpAnd {
		t.Errorf("got %s", e)
	}
	if _, err := ParseExpr("a = 1 extra"); err == nil {
		t.Error("trailing tokens should fail")
	}
}

func TestParenthesizedJoinTree(t *testing.T) {
	roundTrip(t, "SELECT a FROM (p JOIN c ON p.id = c.parent) JOIN d ON d.x = p.id")
}
