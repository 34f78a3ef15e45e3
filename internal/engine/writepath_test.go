package engine

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

// raceEnabled is set by race_test.go: the race detector makes sync.Pool
// drop items at random, so allocation counts only hold without it.
var raceEnabled bool

// TestTxnStatementFaultSweeps is TestStatementFaultSweeps for what every
// wire transaction runs: each DML shape as the second write of an open
// Session transaction, so the mutators run with a live mvcc.Txn. Attempt
// k fails the kth page access of one category; the failed statement
// must leave the session's visible rows, the physical rows and the
// version chains as they were, the table consistent, and the
// transaction able to commit exactly its first write.
func TestTxnStatementFaultSweeps(t *testing.T) {
	// The first write deletes a row none of the shapes can see again, so
	// every chain the second write might leave behind is a new RID.
	const first = "DELETE FROM t WHERE k = 39"
	visible := func(s *Session) []string {
		t.Helper()
		return sortedRows(sessQuery(t, s, "SELECT k, v FROM t").Data)
	}
	const maxK = 600
	for _, st := range faultShapes {
		for _, cat := range []storage.Category{storage.CatData, storage.CatIndex} {
			faults := 0
			for k := int64(1); k <= maxK; k++ {
				db := newAtomDB(t, Config{PageSize: 512, MemoryBytes: 1 << 20}, 40)
				tab := atomTable(t, db)
				s := db.Session()
				sessExec(t, s, "BEGIN")
				sessExec(t, s, first)
				want := visible(s)
				phys, err := tab.SnapshotRows()
				if err != nil {
					t.Fatal(err)
				}
				chains, moved := tab.Vers.RIDs(), tab.Vers.MovedRIDs()

				fired := false
				fault := storage.FailNthFetch(k, cat)
				db.BufferPool().SetFetchFault(func(id storage.PageID, c storage.Category) error {
					err := fault(id, c)
					fired = fired || err != nil
					return err
				})
				_, execErr := s.Exec(st.sql)
				db.BufferPool().SetFetchFault(nil)
				if !fired {
					s.Close()
					if execErr != nil {
						t.Fatalf("%s/%v: fault-free run failed: %v", st.name, cat, execErr)
					}
					break // the statement outran the fault: every access point is covered
				}
				if execErr == nil {
					s.Close() // the failed access was one the statement may skip
					continue
				}
				faults++
				if !errors.Is(execErr, storage.ErrInjectedFault) {
					t.Fatalf("%s/%v fault %d: unexpected error %v", st.name, cat, k, execErr)
				}
				if err := tab.CheckInvariants(); err != nil {
					t.Fatalf("%s/%v fault %d: invariants: %v", st.name, cat, k, err)
				}
				if got := visible(s); !slices.Equal(got, want) {
					t.Fatalf("%s/%v fault %d: session sees %v, want %v", st.name, cat, k, got, want)
				}
				after, err := tab.SnapshotRows()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(after, phys) {
					t.Fatalf("%s/%v fault %d: physical rows differ from the pre-statement snapshot", st.name, cat, k)
				}
				if c, m := tab.Vers.RIDs(), tab.Vers.MovedRIDs(); !reflect.DeepEqual(c, chains) || !reflect.DeepEqual(m, moved) {
					t.Fatalf("%s/%v fault %d: version chains %v (moved %v), want %v (moved %v)", st.name, cat, k, c, m, chains, moved)
				}
				sessExec(t, s, "COMMIT")
				s.Close()
				if got := sortedRows(mustQuery(t, db, "SELECT k, v FROM t").Data); !slices.Equal(got, want) {
					t.Fatalf("%s/%v fault %d: committed %v, want the first write alone: %v", st.name, cat, k, got, want)
				}
			}
			t.Logf("%s/%v: %d faults", st.name, cat, faults)
			if faults == 0 {
				t.Fatalf("%s/%v: no fault failed the statement", st.name, cat)
			}
		}
	}
}

// sortedRows renders rows as sorted strings, for comparing row sets.
func sortedRows(rows [][]types.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		for _, v := range r {
			out[i] += v.SQLLiteral() + "|"
		}
	}
	slices.Sort(out)
	return out
}

// TestWritePathCounts pins what one row costs the write path, so a
// reintroduced page read fails here rather than in a benchmark. Inside
// a transaction a one-row UPDATE by primary key visits its data page
// twice — the gather's read and the write, which hands back the
// pre-image that undo and the version chain keep — and a one-row DELETE
// does the same; on a table of one heap page and on one of many. The
// UPDATE's allocations through Session.Exec are bounded as well.
func TestWritePathCounts(t *testing.T) {
	for _, n := range []int{50, 2000} {
		db := newTxnDB(t, Config{}, n)
		tab, err := db.Catalog().Table("acct")
		if err != nil {
			t.Fatal(err)
		}
		pages := tab.Heap.NumPages()
		s := db.Session()
		sessExec(t, s, "BEGIN")
		sessExec(t, s, "UPDATE acct SET bal = 1 WHERE k = 0") // plans and opens the transaction's log scope
		dataFetches := func(q string) int64 {
			before := db.BufferPool().Stats().LogicalReads[storage.CatData]
			sessExec(t, s, q)
			return db.BufferPool().Stats().LogicalReads[storage.CatData] - before
		}
		if got := dataFetches("UPDATE acct SET bal = 2 WHERE k = 1"); got != 2 {
			t.Errorf("%d heap pages: one-row UPDATE fetched %d data pages, want 2", pages, got)
		}
		if got := dataFetches("DELETE FROM acct WHERE k = 2"); got != 2 {
			t.Errorf("%d heap pages: one-row DELETE fetched %d data pages, want 2", pages, got)
		}
		if raceEnabled {
			continue
		}
		i := int64(3)
		allocs := testing.AllocsPerRun(100, func() {
			i++
			if _, err := s.Exec("UPDATE acct SET bal = ? WHERE k = ?", types.NewInt(i), types.NewInt(i%int64(n))); err != nil {
				t.Fatal(err)
			}
		})
		// 55 on the one-page table, 51 on the six-page one.
		if allocs > 56 {
			t.Errorf("%d heap pages: one-row UPDATE made %v allocations, want at most 56", pages, allocs)
		}
		t.Logf("%d heap pages: %v allocations per UPDATE", pages, allocs)
		sessExec(t, s, "COMMIT")
		s.Close()
	}
}
