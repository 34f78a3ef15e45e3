package sql

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/types"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return st
}

func TestExtractParamsSelect(t *testing.T) {
	st := mustParse(t, "SELECT * FROM Account WHERE Id = 7 AND Name LIKE 'a%'")
	vals, ok := ExtractParams(st)
	if !ok {
		t.Fatal("not extracted")
	}
	if got := st.String(); got != "SELECT * FROM Account WHERE Id = ? AND Name LIKE ?" {
		t.Fatalf("template: %q", got)
	}
	want := []types.Value{types.NewInt(7), types.NewString("a%")}
	if len(vals) != len(want) {
		t.Fatalf("vals: %v", vals)
	}
	for i := range want {
		if c, err := types.Compare(vals[i], want[i]); err != nil || c != 0 {
			t.Fatalf("val %d: %v want %v (err %v)", i, vals[i], want[i], err)
		}
	}
}

func TestExtractParamsUpdateOrder(t *testing.T) {
	// SET values extract before WHERE values: binding order is the
	// deterministic walk order.
	st := mustParse(t, "UPDATE t SET a = 10, b = a + 20 WHERE id = 30")
	vals, ok := ExtractParams(st)
	if !ok {
		t.Fatal("not extracted")
	}
	if got := st.String(); got != "UPDATE t SET a = ?, b = a + ? WHERE id = ?" {
		t.Fatalf("template: %q", got)
	}
	wantInts := []int64{10, 20, 30}
	for i, w := range wantInts {
		if vals[i].Int != w {
			t.Fatalf("val %d = %v, want %d", i, vals[i], w)
		}
	}
}

func TestExtractParamsDelete(t *testing.T) {
	st := mustParse(t, "DELETE FROM t WHERE a IN (1, 2, 3)")
	vals, ok := ExtractParams(st)
	if !ok || len(vals) != 3 {
		t.Fatalf("ok=%v vals=%v", ok, vals)
	}
	if got := st.String(); got != "DELETE FROM t WHERE a IN (?, ?, ?)" {
		t.Fatalf("template: %q", got)
	}
}

func TestExtractParamsRefusals(t *testing.T) {
	cases := []string{
		// Already parameterized: caller's indexes must not shift.
		"SELECT * FROM t WHERE a = ? AND b = 2",
		"UPDATE t SET a = ? WHERE b = 5",
		// A param hiding in a subquery blocks extraction too.
		"SELECT * FROM t WHERE a IN (SELECT b FROM u WHERE c = ?) AND d = 3",
		// Nothing extractable.
		"SELECT * FROM t",
		"SELECT a, b FROM t WHERE a = b",
		"DELETE FROM t",
		"INSERT INTO t VALUES (?, 2)",
		"INSERT INTO t VALUES (NULL, NULL)", // a NULL in VALUES stays
		// Transaction control and DDL are never canonicalized.
		"BEGIN",
		"CREATE TABLE t (a INT)",
	}
	for _, src := range cases {
		st := mustParse(t, src)
		before := st.String()
		if vals, ok := ExtractParams(st); ok {
			t.Errorf("%q extracted %v", src, vals)
		}
		if st.String() != before {
			t.Errorf("%q mutated to %q despite refusal", before, st.String())
		}
	}
}

func TestExtractParamsInsert(t *testing.T) {
	// Row by row, in render order; a NULL stays, a folded -3 is lifted.
	st := mustParse(t, "INSERT INTO t (a, b, c) VALUES (1, NULL, 'x'), (-3, DATE '2008-01-02', CAST(4 AS VARCHAR(9)))")
	vals, ok := ExtractParams(st)
	if !ok || fmt.Sprint(vals) != "[1 x -3 2008-01-02 4]" {
		t.Fatalf("ok=%v vals=%v", ok, vals)
	}
	if got := st.String(); got != "INSERT INTO t (a, b, c) VALUES (?, NULL, ?), (?, ?, CAST(? AS VARCHAR(9)))" {
		t.Fatalf("template: %q", got)
	}
}

func TestExtractParamsSkipsProjectionAndSubqueries(t *testing.T) {
	// Literals in the projection, GROUP BY, ORDER BY, and inside
	// subqueries stay inlined: only WHERE/HAVING positions extract.
	src := "SELECT a + 1 FROM t WHERE b = 2 AND c IN (SELECT d FROM u WHERE e = 3) GROUP BY a + 1 HAVING COUNT(*) > 4 ORDER BY a + 1"
	st := mustParse(t, src)
	vals, ok := ExtractParams(st)
	if !ok {
		t.Fatal("not extracted")
	}
	want := "SELECT a + 1 FROM t WHERE b = ? AND c IN (SELECT d FROM u WHERE e = 3) GROUP BY a + 1 HAVING COUNT(*) > ? ORDER BY a + 1"
	if got := st.String(); got != want {
		t.Fatalf("template:\n got %q\nwant %q", got, want)
	}
	if len(vals) != 2 || vals[0].Int != 2 || vals[1].Int != 4 {
		t.Fatalf("vals: %v", vals)
	}
}

func TestExtractParamsTemplateCollision(t *testing.T) {
	// Two statements differing only in literal values must canonicalize
	// to the same template text with different bindings — that is the
	// cache-hit property everything rests on.
	a := mustParse(t, "SELECT * FROM t WHERE id = 1")
	b := mustParse(t, "SELECT * FROM t WHERE id = 99")
	va, _ := ExtractParams(a)
	vb, _ := ExtractParams(b)
	if a.String() != b.String() {
		t.Fatalf("templates differ: %q vs %q", a.String(), b.String())
	}
	if va[0].Int != 1 || vb[0].Int != 99 {
		t.Fatalf("bindings: %v %v", va, vb)
	}
}

func TestExtractParamsExecEquivalence(t *testing.T) {
	// The canonical form must evaluate identically: spot-check by
	// re-rendering with the values substituted back via String() of a
	// re-parse. (Full engine-level equivalence is covered in core's
	// rewrite-cache tests.)
	src := "UPDATE Account SET Attr01 = Attr01 + 1 WHERE Id = 5"
	st := mustParse(t, src)
	vals, ok := ExtractParams(st)
	if !ok || len(vals) != 2 {
		t.Fatalf("ok=%v vals=%v", ok, vals)
	}
	if vals[0].Int != 1 || vals[1].Int != 5 {
		t.Fatalf("vals: %v", vals)
	}
}

// paramOrder lists st's Param indexes in render order.
func paramOrder(st Statement) []int {
	var out []int
	_, slots := LiftParams(st)
	for _, s := range slots {
		if s.Param >= 0 {
			out = append(out, s.Param)
		}
	}
	return out
}

func TestLiftParams(t *testing.T) {
	// A physical statement's shape: the caller's parameters (one in the
	// projection, rendered first, though numbered after the WHERE one),
	// meta-data literals in a derived table, a JOIN … ON and an IN
	// subquery, and literals where nothing is lifted.
	src := "SELECT a.x + 1, ? AS s FROM (SELECT x, y FROM T f0 WHERE f0.Tenant = 17 AND f0.Chunk IN (2, 3)) AS a " +
		"LEFT JOIN U f1 ON f1.Tenant = 17 AND f1.Row = a.y WHERE a.x = ? AND a.y IN (SELECT r FROM V WHERE Tenant = 17) " +
		"GROUP BY a.x + 1 HAVING COUNT(*) > 4 ORDER BY a.x + 1"
	st := mustParse(t, src)
	st.(*SelectStmt).Items[1].Expr.(*Param).Index = 1
	st.(*SelectStmt).Where.(*BinaryExpr).L.(*BinaryExpr).R.(*Param).Index = 0
	before := st.String()
	out, slots := LiftParams(st)
	want := "SELECT a.x + 1, ? AS s FROM (SELECT x, y FROM T f0 WHERE f0.Tenant = ? AND f0.Chunk IN (?, ?)) AS a " +
		"LEFT JOIN U f1 ON f1.Tenant = ? AND f1.Row = a.y WHERE a.x = ? AND a.y IN (SELECT r FROM V WHERE Tenant = ?) " +
		"GROUP BY a.x + 1 HAVING COUNT(*) > ? ORDER BY a.x + 1"
	if got := out.String(); got != want {
		t.Fatalf("lifted:\n got %q\nwant %q", got, want)
	}
	if st.String() != before || fmt.Sprint(paramOrder(st)) != "[1 0]" {
		t.Fatalf("LiftParams changed its argument: %q %v", st, paramOrder(st))
	}
	wantSlots := "[{1 NULL} {-1 17} {-1 2} {-1 3} {-1 17} {0 NULL} {-1 17} {-1 4}]"
	if slotsText(slots) != wantSlots {
		t.Fatalf("slots %v, want %s", slots, wantSlots)
	}
	// What the engine plans for the text binds as out does.
	if !reflect.DeepEqual(mustParse(t, want), out) {
		t.Fatalf("Parse(%q) numbers its parameters differently", want)
	}
}

func TestLiftParamsDML(t *testing.T) {
	// SET before WHERE; a subtree shared by two statements of one rewrite
	// is lifted in each without disturbing the other.
	up := mustParse(t, "UPDATE T SET a = ?, b = 'x' WHERE Tenant = 17 AND Row IN (SELECT Row FROM U WHERE Tenant = 17 AND c = ?)").(*UpdateStmt)
	up.Set[0].Value.(*Param).Index = 1
	up.Where.(*BinaryExpr).R.(*InExpr).Subquery.Where.(*BinaryExpr).R.(*BinaryExpr).R.(*Param).Index = 0
	del := &DeleteStmt{Table: "U", Where: up.Where}
	upOut, upSlots := LiftParams(up)
	delOut, delSlots := LiftParams(del)
	if got := upOut.String(); got != "UPDATE T SET a = ?, b = ? WHERE Tenant = ? AND Row IN (SELECT Row FROM U WHERE Tenant = ? AND c = ?)" {
		t.Fatalf("update: %q", got)
	}
	if got := slotsText(upSlots); got != "[{1 NULL} {-1 x} {-1 17} {-1 17} {0 NULL}]" {
		t.Fatalf("update slots: %s", got)
	}
	if !reflect.DeepEqual(mustParse(t, upOut.String()), upOut) || !reflect.DeepEqual(mustParse(t, delOut.String()), delOut) {
		t.Fatal("Parse numbers the lifted DML's parameters differently")
	}
	if got := delOut.String(); got != "DELETE FROM U WHERE Tenant = ? AND Row IN (SELECT Row FROM U WHERE Tenant = ? AND c = ?)" {
		t.Fatalf("delete: %q", got)
	}
	if got := slotsText(delSlots); got != "[{-1 17} {-1 17} {0 NULL}]" {
		t.Fatalf("delete slots: %s", got)
	}
	if got := fmt.Sprint(paramOrder(up)); got != "[1 0]" {
		t.Fatalf("the shared tree was renumbered in place: %s", got)
	}
	// An INSERT is lifted row by row on a copy; a NULL stays, and each
	// lifted slot names the literal it came from.
	ins := mustParse(t, "INSERT INTO T VALUES (1, ?, NULL), (2, 'y', CAST(3 AS INT))").(*InsertStmt)
	before := ins.String()
	insOut, insSlots := LiftParams(ins)
	if got := insOut.String(); got != "INSERT INTO T VALUES (?, ?, NULL), (?, ?, CAST(? AS INTEGER))" || ins.String() != before {
		t.Fatalf("insert: %q (argument now %q)", got, ins)
	}
	if got := slotsText(insSlots); got != "[{-1 1} {0 NULL} {-1 2} {-1 y} {-1 3}]" {
		t.Fatalf("insert slots: %s", got)
	}
	if insSlots[0].Lit != ins.Rows[0][0] || insSlots[1].Lit != nil || insSlots[3].Lit != ins.Rows[1][1] {
		t.Fatal("insert slots do not name their literals")
	}
	if !reflect.DeepEqual(mustParse(t, insOut.String()), insOut) {
		t.Fatal("Parse numbers the lifted INSERT's parameters differently")
	}
	// Other statements are not touched.
	ddl := mustParse(t, "CREATE TABLE T (a INT)")
	if out, slots := LiftParams(ddl); out != ddl || slots != nil {
		t.Fatalf("DDL lifted: %q %v", out, slots)
	}
}

// slotsText prints slots as {Param Val}, without the literals they name.
func slotsText(slots []Slot) string {
	parts := make([]string, len(slots))
	for i, s := range slots {
		parts[i] = fmt.Sprintf("{%d %v}", s.Param, s.Val)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
