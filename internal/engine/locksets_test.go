package engine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/types"
)

// TestLockSetsNameEveryTableRead holds a compiled statement's latches to
// every table its plan reads: FROM, derived tables, and an IN subquery
// in any clause, nested ones included; a DML statement's write target is
// not one of its reads. The set is recorded once, when the statement is
// compiled, in the order the latches are taken.
func TestLockSetsNameEveryTableRead(t *testing.T) {
	db := Open(Config{})
	for _, name := range []string{"A", "B", "C", "D"} {
		if _, err := db.Exec("CREATE TABLE " + name + " (Id INT)"); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		q, write, reads string
	}{
		{"SELECT Id FROM A", "", "[A]"},
		{"SELECT Id, Id IN (SELECT Id FROM B) FROM A", "", "[A B]"},
		{"SELECT Id FROM A ORDER BY Id IN (SELECT Id FROM B)", "", "[A B]"},
		{"SELECT Id FROM A GROUP BY Id HAVING Id IN (SELECT Id FROM B)", "", "[A B]"},
		{"SELECT a.Id FROM A a JOIN (SELECT Id FROM B) AS d ON d.Id IN (SELECT Id FROM C WHERE Id IN (SELECT Id FROM D))", "", "[A B C D]"},
		{"SELECT Id FROM A WHERE CAST(Id IN (SELECT Id FROM B) AS INT) = 1", "", "[A B]"},
		{"UPDATE A SET Id = CAST(Id IN (SELECT Id FROM B) AS INT)", "A", "[B]"},
		{"UPDATE A SET Id = 1 WHERE Id IN (SELECT Id FROM B)", "A", "[B]"},
		{"DELETE FROM A WHERE NOT (Id IN (SELECT Id FROM B))", "A", "[B]"},
		{"INSERT INTO A VALUES (1)", "A", "[]"},
	} {
		st, err := sql.Parse(c.q)
		if err != nil {
			t.Fatalf("%q: %v", c.q, err)
		}
		cs, err := db.planFor(c.q, st, db.cat.Version())
		if err != nil {
			t.Fatalf("%q: %v", c.q, err)
		}
		var write string
		reads := []string{}
		for _, tbl := range cs.tables {
			if tbl == cs.write {
				write = tbl.Name
			} else {
				reads = append(reads, tbl.Name)
			}
		}
		if (cs.write == nil) != (write == "") {
			t.Errorf("%q: write target %v missing from the latched tables", c.q, cs.write)
		}
		if write != c.write || fmt.Sprint(reads) != c.reads {
			t.Errorf("%q: write %q, reads %v; want %q, %s", c.q, write, reads, c.write, c.reads)
		}
	}
}

// TestAlterBetweenLookupAndLatchReplans: a statement plans before it
// latches, so an online ALTER can publish between its plan-cache lookup
// and its latch. The statement must then prepare again rather than run
// the plan from before the ALTER. The test holds the table's latch as
// the ALTER does, lets the query look its plan up (the hit counter
// moves) and block on the latch, publishes a column, and lets go.
func TestAlterBetweenLookupAndLatchReplans(t *testing.T) {
	db := newCacheTestDB(t)
	const q = "SELECT * FROM acct WHERE id = 3"
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.cat.Table("acct")
	if err != nil {
		t.Fatal(err)
	}
	hits := db.planHits.Load()
	tbl.Mu.Lock()
	type result struct {
		rows *Rows
		err  error
	}
	done := make(chan result, 1)
	go func() {
		rows, err := db.Query(q)
		done <- result{rows, err}
	}()
	for db.planHits.Load() == hits {
		runtime.Gosched()
	}
	cols, err := tbl.ComputeAddColumn(catalog.Column{Name: "extra", Type: types.IntType})
	if err != nil {
		tbl.Mu.Unlock()
		t.Fatal(err)
	}
	db.cat.PublishSchema(tbl, cols, db.txns.StampDDL())
	tbl.Mu.Unlock()
	r := <-done
	if r.err != nil || len(r.rows.Columns) != 4 {
		t.Fatalf("after an ALTER between lookup and latch: %v, %v; want the new column", r.rows, r.err)
	}
}
