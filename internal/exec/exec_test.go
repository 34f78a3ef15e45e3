package exec

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// fixture builds a catalog with two populated tables and an index.
func fixture(t testing.TB) (*catalog.Catalog, *catalog.Table, *catalog.Table) {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewDisk(0), 4<<20)
	cat := catalog.New(pool, catalog.Config{MemoryBytes: 4 << 20})
	users, err := cat.CreateTable("users", []catalog.Column{
		{Name: "id", Type: types.IntType, NotNull: true},
		{Name: "name", Type: types.StringType},
		{Name: "age", Type: types.IntType},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("users", "users_pk", []string{"id"}, true); err != nil {
		t.Fatal(err)
	}
	orders, err := cat.CreateTable("orders", []catalog.Column{
		{Name: "id", Type: types.IntType, NotNull: true},
		{Name: "user_id", Type: types.IntType},
		{Name: "total", Type: types.FloatType},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("orders", "orders_user", []string{"user_id"}, false); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		if _, err := users.InsertRow([]types.Value{
			types.NewInt(int64(i)), types.NewString(fmt.Sprintf("u%d", i)), types.NewInt(int64(20 + i%5)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 60; i++ {
		if _, err := orders.InsertRow([]types.Value{
			types.NewInt(int64(i)), types.NewInt(int64(1 + i%20)), types.NewFloat(float64(i) * 1.5),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return cat, users, orders
}

func runSQL(t testing.TB, cat *catalog.Catalog, mode plan.Mode, query string, params ...types.Value) [][]types.Value {
	t.Helper()
	st, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	p := plan.New(cat, mode)
	n, err := p.PlanStatement(st)
	if err != nil {
		t.Fatalf("plan %q: %v", query, err)
	}
	rows, err := runPlan(n, params, nil, nil, false)
	if err != nil {
		t.Fatalf("exec %q: %v", query, err)
	}
	return rows
}

func TestSeqScanIterator(t *testing.T) {
	cat, _, _ := fixture(t)
	rows := runSQL(t, cat, plan.Sophisticated, "SELECT id FROM users")
	if len(rows) != 20 {
		t.Errorf("rows: %d", len(rows))
	}
}

func TestIndexScanPointAndRange(t *testing.T) {
	cat, _, _ := fixture(t)
	rows := runSQL(t, cat, plan.Sophisticated, "SELECT name FROM users WHERE id = 7")
	if len(rows) != 1 || rows[0][0].Str != "u7" {
		t.Errorf("point: %+v", rows)
	}
	rows = runSQL(t, cat, plan.Sophisticated, "SELECT id FROM users WHERE id > 15 AND id <= 18")
	if len(rows) != 3 {
		t.Errorf("range: %+v", rows)
	}
	// Range with parameters.
	rows = runSQL(t, cat, plan.Sophisticated, "SELECT id FROM users WHERE id >= ? AND id < ?",
		types.NewInt(5), types.NewInt(8))
	if len(rows) != 3 {
		t.Errorf("param range: %+v", rows)
	}
	// Equality with NULL parameter matches nothing (not everything).
	rows = runSQL(t, cat, plan.Sophisticated, "SELECT id FROM users WHERE id = ?", types.Null())
	if len(rows) != 0 {
		t.Errorf("NULL key: %+v", rows)
	}
}

func TestJoinsAgree(t *testing.T) {
	cat, _, _ := fixture(t)
	q := "SELECT u.name, o.total FROM users u, orders o WHERE o.user_id = u.id AND u.id = 3"
	soph := runSQL(t, cat, plan.Sophisticated, q)
	naive := runSQL(t, cat, plan.Naive, q)
	if len(soph) != 3 || len(naive) != 3 {
		t.Fatalf("join rows: %d vs %d", len(soph), len(naive))
	}
	// Cross join via NLJoin fallback.
	rows := runSQL(t, cat, plan.Sophisticated, "SELECT COUNT(*) FROM users u, orders o WHERE u.age > o.total")
	if rows[0][0].Int == 0 {
		t.Error("non-equi join should match something")
	}
}

func TestHashJoinNullKeys(t *testing.T) {
	cat, users, _ := fixture(t)
	// A user with NULL id-like join key via age NULL.
	if _, err := users.InsertRow([]types.Value{types.NewInt(99), types.NewString("null-age"), types.Null()}); err != nil {
		t.Fatal(err)
	}
	// Self-join on age: NULL never matches, even against NULL.
	rows := runSQL(t, cat, plan.Sophisticated,
		"SELECT COUNT(*) FROM users a, users b WHERE a.age = b.age AND a.id = 99")
	if rows[0][0].Int != 0 {
		t.Errorf("NULL join key matched: %+v", rows)
	}
}

func TestAggregateIterator(t *testing.T) {
	cat, _, _ := fixture(t)
	rows := runSQL(t, cat, plan.Sophisticated,
		"SELECT age, COUNT(*), MIN(id), MAX(id) FROM users GROUP BY age ORDER BY age")
	if len(rows) != 5 {
		t.Fatalf("groups: %+v", rows)
	}
	var total int64
	for _, r := range rows {
		total += r[1].Int
	}
	if total != 20 {
		t.Errorf("group counts sum to %d", total)
	}
	// AVG over floats.
	rows = runSQL(t, cat, plan.Sophisticated, "SELECT AVG(total) FROM orders")
	want := 1.5 * 61 / 2 // mean of 1.5..90
	if diff := rows[0][0].Float - want; diff > 0.001 || diff < -0.001 {
		t.Errorf("avg: %v want %v", rows[0][0].Float, want)
	}
}

func TestSortStability(t *testing.T) {
	cat, _, _ := fixture(t)
	rows := runSQL(t, cat, plan.Sophisticated, "SELECT age, id FROM users ORDER BY age, id DESC")
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].Int > rows[i][0].Int {
			t.Fatal("primary key order broken")
		}
		if rows[i-1][0].Int == rows[i][0].Int && rows[i-1][1].Int < rows[i][1].Int {
			t.Fatal("secondary DESC order broken")
		}
	}
}

func TestLimitShortCircuits(t *testing.T) {
	cat, _, _ := fixture(t)
	rows := runSQL(t, cat, plan.Sophisticated, "SELECT id FROM users LIMIT 4")
	if len(rows) != 4 {
		t.Errorf("limit: %d", len(rows))
	}
	rows = runSQL(t, cat, plan.Sophisticated, "SELECT id FROM users LIMIT 0")
	if len(rows) != 0 {
		t.Errorf("limit 0: %d", len(rows))
	}
}

func TestDistinctIterator(t *testing.T) {
	cat, _, _ := fixture(t)
	rows := runSQL(t, cat, plan.Sophisticated, "SELECT DISTINCT age FROM users")
	if len(rows) != 5 {
		t.Errorf("distinct ages: %d", len(rows))
	}
}

func TestDMLThroughExec(t *testing.T) {
	cat, _, _ := fixture(t)
	p := plan.New(cat, plan.Sophisticated)
	run := func(q string) int64 {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		n, err := p.PlanStatement(st)
		if err != nil {
			t.Fatal(err)
		}
		count, err := RunDML(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		return count
	}
	if n := run("INSERT INTO users VALUES (100, 'new', 30)"); n != 1 {
		t.Errorf("insert count: %d", n)
	}
	if n := run("UPDATE users SET age = 31 WHERE id = 100"); n != 1 {
		t.Errorf("update count: %d", n)
	}
	if n := run("DELETE FROM users WHERE id = 100"); n != 1 {
		t.Errorf("delete count: %d", n)
	}
	if n := run("DELETE FROM users WHERE id = 100"); n != 0 {
		t.Errorf("re-delete count: %d", n)
	}
}

// TestHalloweenProblem: an update that moves rows forward through the
// scan must not update them twice.
func TestHalloweenProblem(t *testing.T) {
	cat, _, _ := fixture(t)
	p := plan.New(cat, plan.Sophisticated)
	st, _ := sql.Parse("UPDATE users SET age = age + 100 WHERE age < 200")
	n, err := p.PlanStatement(st)
	if err != nil {
		t.Fatal(err)
	}
	count, err := RunDML(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if count != 20 {
		t.Errorf("affected %d", count)
	}
	rows := runSQL(t, cat, plan.Sophisticated, "SELECT COUNT(*) FROM users WHERE age >= 220")
	if rows[0][0].Int != 0 {
		t.Error("rows updated more than once (Halloween problem)")
	}
}

func TestInSubqueryThroughExec(t *testing.T) {
	cat, _, _ := fixture(t)
	rows := runSQL(t, cat, plan.Sophisticated,
		"SELECT COUNT(*) FROM orders WHERE user_id IN (SELECT id FROM users WHERE age = 21)")
	if rows[0][0].Int == 0 {
		t.Error("IN subquery matched nothing")
	}
	// Re-execution must re-evaluate the subquery (Reset semantics).
	q := "SELECT COUNT(*) FROM orders WHERE user_id IN (SELECT id FROM users WHERE age = ?)"
	st, _ := sql.Parse(q)
	p := plan.New(cat, plan.Sophisticated)
	n, err := p.PlanStatement(st)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(n)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := tree.Collect([]types.Value{types.NewInt(21)}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := tree.Collect([]types.Value{types.NewInt(999)}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1[0][0].Int == 0 || r2[0][0].Int != 0 {
		t.Errorf("subquery caching across executions: %v then %v", r1[0][0], r2[0][0])
	}
}

func TestLeftJoinThroughExec(t *testing.T) {
	cat, users, _ := fixture(t)
	// A user with no orders.
	if _, err := users.InsertRow([]types.Value{types.NewInt(50), types.NewString("loner"), types.NewInt(99)}); err != nil {
		t.Fatal(err)
	}
	rows := runSQL(t, cat, plan.Sophisticated,
		"SELECT u.id, o.id FROM users u LEFT JOIN orders o ON o.user_id = u.id WHERE u.id = 50")
	if len(rows) != 1 || !rows[0][1].IsNull() {
		t.Errorf("left join: %+v", rows)
	}
}

func TestValuesAndNoFrom(t *testing.T) {
	cat, _, _ := fixture(t)
	rows := runSQL(t, cat, plan.Sophisticated, "SELECT 1 + 2, 'x'")
	if len(rows) != 1 || rows[0][0].Int != 3 || rows[0][1].Str != "x" {
		t.Errorf("no-from select: %+v", rows)
	}
}

func TestErrorPropagation(t *testing.T) {
	cat, _, _ := fixture(t)
	p := plan.New(cat, plan.Sophisticated)
	// Division by zero surfaces as an execution error.
	st, _ := sql.Parse("SELECT 1 / 0 FROM users")
	n, err := p.PlanStatement(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runPlan(n, nil, nil, nil, false); err == nil {
		t.Error("division by zero should error")
	}
	// RunDML on a SELECT plan is rejected.
	st, _ = sql.Parse("SELECT id FROM users")
	n, _ = p.PlanStatement(st)
	if _, err := RunDML(n, nil); err == nil {
		t.Error("RunDML of a query plan should fail")
	}
}
