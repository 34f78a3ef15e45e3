package engine

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/sql"
)

// TestLockSetsNameEveryTableRead holds a statement's shared latches to
// every table it reads: FROM, derived tables, and an IN subquery in any
// clause, nested ones included; a DML statement's write target is not
// one of its reads.
func TestLockSetsNameEveryTableRead(t *testing.T) {
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
		var write string
		var reads []string
		if sel, ok := st.(*sql.SelectStmt); ok {
			reads = collectReadTables(sel, nil)
		} else if write, reads, err = dmlLockSets(st); err != nil {
			t.Fatalf("%q: %v", c.q, err)
		}
		sort.Strings(reads) // latches are taken in name order
		if write != c.write || fmt.Sprint(reads) != c.reads {
			t.Errorf("%q: write %q, reads %v; want %q, %s", c.q, write, reads, c.write, c.reads)
		}
		// The walk runs on every execution: it allocates its result and
		// nothing else.
		buf := make([]string, 0, 8)
		if sel, ok := st.(*sql.SelectStmt); ok {
			if n := testing.AllocsPerRun(20, func() { collectReadTables(sel, buf[:0]) }); n != 0 {
				t.Errorf("%q: %v allocations beside the result", c.q, n)
			}
		}
	}
}
