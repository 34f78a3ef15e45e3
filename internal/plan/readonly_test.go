package plan

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/sql"
	"repro/internal/types"
)

// readOnlyCorpus covers every planner pass that rewrites a statement
// internally: derived tables (nested, bare *, alias.*), IN subqueries in
// SELECT and DML, explicit joins, aggregation and ordering.
var readOnlyCorpus = []string{
	"SELECT d.id FROM (SELECT id, name FROM parent WHERE col1 > 1) d WHERE d.name = 'x'",
	"SELECT * FROM (SELECT * FROM (SELECT id, col1 FROM child WHERE col1 > 0) i WHERE i.col1 = 2) o WHERE o.id = 3",
	"SELECT o.*, p.name FROM (SELECT id, parent FROM child) o, parent p WHERE o.parent = p.id AND p.id = ?",
	"SELECT name FROM parent WHERE id IN (SELECT parent FROM child WHERE col1 = ?)",
	"SELECT id FROM parent WHERE id NOT IN (SELECT parent FROM child WHERE id IN (SELECT id FROM parent WHERE col1 = 1))",
	"UPDATE child SET col1 = col1 + 1 WHERE parent IN (SELECT id FROM parent WHERE col1 > 3)",
	"DELETE FROM child WHERE parent IN (SELECT id FROM parent WHERE name = 'x')",
	"SELECT p.name, c.col1 FROM parent p JOIN child c ON p.id = c.parent WHERE p.col1 = 1",
	"SELECT p.name, c.col1 FROM parent p LEFT JOIN child c ON p.id = c.parent AND c.col1 > 2",
	"SELECT parent, COUNT(*), SUM(col1) FROM child WHERE col1 > 0 GROUP BY parent HAVING COUNT(*) > 1 ORDER BY parent DESC",
	"SELECT d.parent, d.n FROM (SELECT parent, COUNT(*) AS n FROM child GROUP BY parent) d WHERE d.n > 1 ORDER BY d.n",
	"INSERT INTO parent VALUES (1, 'a', 2)",
}

func parseOrFatal(t *testing.T, q string) sql.Statement {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return st
}

// TestPlannerLeavesASTUntouched: PlanStatement only reads the statement
// it is given, in both optimizer modes. The rewrite cache hands one
// template AST to every session planning it.
func TestPlannerLeavesASTUntouched(t *testing.T) {
	cat := testCatalog(t)
	for _, mode := range []Mode{Sophisticated, Naive} {
		for _, q := range readOnlyCorpus {
			st := parseOrFatal(t, q)
			if _, err := New(cat, mode).PlanStatement(st); err != nil {
				t.Fatalf("mode %d: plan %q: %v", mode, q, err)
			}
			if fresh := parseOrFatal(t, q); !reflect.DeepEqual(st, fresh) {
				t.Errorf("mode %d: planning wrote into the AST of %q:\nnow %s", mode, q, st)
			}
		}
	}
}

// TestPlanOneASTConcurrently plans each statement's one AST from eight
// goroutines at once, through one shared Planner as the engine does; run
// under -race.
func TestPlanOneASTConcurrently(t *testing.T) {
	cat := testCatalog(t)
	for _, mode := range []Mode{Sophisticated, Naive} {
		p := New(cat, mode)
		for _, q := range readOnlyCorpus {
			st := parseOrFatal(t, q)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := p.PlanStatement(st); err != nil {
						t.Errorf("mode %d: plan %q: %v", mode, q, err)
					}
				}()
			}
			wg.Wait()
		}
	}
}

// TestSubquerySlotsAreDistinct: every IN subquery of a plan, nested ones
// included, has a slot of its own, the index an execution keeps its set
// under.
func TestSubquerySlotsAreDistinct(t *testing.T) {
	cat := testCatalog(t)
	st := parseOrFatal(t, "SELECT id FROM parent WHERE id IN (SELECT parent FROM child WHERE id IN (SELECT id FROM parent WHERE col1 = 1)) AND col1 IN (SELECT col1 FROM child)")
	n, err := New(cat, Naive).PlanStatement(st)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]*InSubquery{}
	walkPlanScalars(n, func(s Scalar) {
		if in, ok := s.(*InSubquery); ok {
			if prev, dup := seen[in.Slot]; dup && prev != in {
				t.Errorf("slot %d names two subqueries: %s and %s", in.Slot, prev, in)
			}
			seen[in.Slot] = in
		}
	})
	if len(seen) != 3 {
		t.Errorf("%d subqueries numbered, want 3", len(seen))
	}
}

// TestInSubqueryNeedsAnExecution: a plan carries no sets of its own, so
// evaluating an IN subquery outside an execution is an error, not a
// stale answer.
func TestInSubqueryNeedsAnExecution(t *testing.T) {
	in := &InSubquery{X: &Const{Val: types.NewInt(1)}}
	if _, err := in.Eval(nil, &Env{}); err == nil {
		t.Error("IN subquery evaluated without an executor")
	}
}
