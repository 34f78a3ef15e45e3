package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/types"
)

func newCacheTestDB(t *testing.T) *DB {
	t.Helper()
	db := Open(Config{})
	mustExec := func(q string) {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec("CREATE TABLE acct (id INTEGER, name VARCHAR(20), region VARCHAR(8))")
	mustExec("CREATE INDEX acct_id ON acct (id)")
	for i := 0; i < 20; i++ {
		mustExec(fmt.Sprintf("INSERT INTO acct (id, name, region) VALUES (%d, 'n%d', 'r%d')", i, i, i%3))
	}
	return db
}

// TestPlanCacheHits checks that repeated ad-hoc statements are planned
// once and served from the cache afterwards, one entry among the cache's.
func TestPlanCacheHits(t *testing.T) {
	db := newCacheTestDB(t)
	db.planHits.Store(0)
	db.planMisses.Store(0)
	entries := db.Stats().PlanCacheEntries

	const q = "SELECT name FROM acct WHERE id = 7"
	for i := 0; i < 5; i++ {
		rows, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Data) != 1 || rows.Data[0][0].String() != "n7" {
			t.Fatalf("bad result: %+v", rows.Data)
		}
	}
	st := db.Stats()
	if st.PlanCacheMisses != 1 || st.PlanCacheHits != 4 || st.PlanCacheEntries != entries+1 {
		t.Errorf("hits=%d misses=%d entries %d→%d, want 4/1, one more", st.PlanCacheHits, st.PlanCacheMisses, entries, st.PlanCacheEntries)
	}
}

// TestPlanCacheDDLInvalidation checks that a schema change replans
// cached statements instead of serving stale plans.
func TestPlanCacheDDLInvalidation(t *testing.T) {
	db := newCacheTestDB(t)
	const q = "SELECT * FROM acct WHERE id = 3"
	rows, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Columns) != 3 {
		t.Fatalf("columns: %v", rows.Columns)
	}
	if _, err := db.Exec("ALTER TABLE acct ADD COLUMN extra INT"); err != nil {
		t.Fatal(err)
	}
	rows, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Columns) != 4 {
		t.Errorf("stale plan after DDL: columns %v", rows.Columns)
	}
}

// TestPlanCacheConcurrentStateful runs a statement whose executions
// each materialize an IN-subquery set from many goroutines over one
// shared plan; every execution must keep its set to itself, so results
// stay correct (run under -race to catch sharing).
func TestPlanCacheConcurrentStateful(t *testing.T) {
	db := newCacheTestDB(t)
	const q = "SELECT COUNT(*) FROM acct WHERE region IN (SELECT region FROM acct WHERE id = ?)"
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				rows, err := db.Query(q, types.NewInt(int64(g%3)))
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				// Regions cycle over 3 values across 20 rows: region of
				// id g%3 is shared by 7 rows for r0 (ids 0,3,..18) and 7
				// and 6 for r1/r2.
				want := int64(7)
				if g%3 == 2 {
					want = 6
				}
				if got := rows.Data[0][0].Int; got != want {
					t.Errorf("g=%d: count %d, want %d", g, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPlanCacheConcurrentSubqueryDML runs one UPDATE and one DELETE
// whose WHERE holds an IN subquery from eight goroutines, half
// autocommit and half inside session transactions. Each plan is shared
// by every execution; each goroutine's subquery selects its own rows,
// and a group of g+1 rows tells from the count alone whose set an
// execution used (run under -race to catch sharing).
func TestPlanCacheConcurrentSubqueryDML(t *testing.T) {
	db := Open(Config{})
	mustExec := func(q string) {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec("CREATE TABLE member (id INTEGER, grp INTEGER)")
	mustExec("CREATE TABLE item (id INTEGER, val INTEGER)")
	mustExec("CREATE INDEX item_id ON item (id)")
	const goroutines, rounds = 8, 10
	for g := 0; g < goroutines; g++ {
		for k := 0; k <= g; k++ {
			mustExec(fmt.Sprintf("INSERT INTO member (id, grp) VALUES (%d, %d)", g*10+k, g))
			mustExec(fmt.Sprintf("INSERT INTO item (id, val) VALUES (%d, 0)", g*10+k))
		}
	}
	const (
		upd = "UPDATE item SET val = val + 1 WHERE id IN (SELECT id FROM member WHERE grp = ?)"
		del = "DELETE FROM item WHERE id IN (SELECT id FROM member WHERE grp = ?) AND val > ?"
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			grp := types.NewInt(int64(g))
			// run executes one statement the goroutine's way and checks it
			// touched exactly the goroutine's g+1 rows.
			run := func(q string, params ...types.Value) bool {
				var res Result
				var err error
				if g%2 == 0 {
					res, err = db.Exec(q, params...)
				} else {
					s := db.Session()
					defer s.Close()
					if _, err = s.Exec("BEGIN"); err == nil {
						if res, err = s.Exec(q, params...); err == nil {
							_, err = s.Exec("COMMIT")
						}
					}
				}
				if err != nil {
					t.Errorf("g=%d %s: %v", g, q, err)
					return false
				}
				if res.RowsAffected != int64(g+1) {
					t.Errorf("g=%d %s: %d rows, want %d", g, q, res.RowsAffected, g+1)
					return false
				}
				return true
			}
			for i := 0; i < rounds; i++ {
				if !run(upd, grp) {
					return
				}
			}
			run(del, grp, types.NewInt(rounds-1))
		}()
	}
	wg.Wait()
	rows, err := db.Query("SELECT COUNT(*) FROM item")
	if err != nil {
		t.Fatal(err)
	}
	if n := rows.Data[0][0].Int; n != 0 {
		t.Errorf("%d item rows left, want 0: every goroutine deletes its own", n)
	}
}

// TestPlanCacheConcurrentSharedPlan hammers one stateless statement
// from many goroutines; under -race this verifies a shared cached plan
// really is read-only during execution.
func TestPlanCacheConcurrentSharedPlan(t *testing.T) {
	db := newCacheTestDB(t)
	const q = "SELECT a.name, b.name FROM acct a, acct b WHERE a.id = b.id AND a.region = 'r1'"
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				rows, err := db.Query(q)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if len(rows.Data) != 7 {
					t.Errorf("rows: %d, want 7", len(rows.Data))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestExecSelectStreams checks DB.Exec on a SELECT: no error, zero
// rows affected, and the plan comes from the same cache.
func TestExecSelectStreams(t *testing.T) {
	db := newCacheTestDB(t)
	res, err := db.Exec("SELECT * FROM acct")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 0 {
		t.Errorf("rows affected %d, want 0", res.RowsAffected)
	}
}

// TestPrepareQuery: a parameterized SELECT is prepared once — planned
// at its first run and cached under its text — and every later value
// runs that one plan.
func TestPrepareQuery(t *testing.T) {
	db := newAccountsDB(t)
	const q = "SELECT Name FROM Account17 WHERE Aid = ?"
	before := db.Stats()
	for _, c := range []struct {
		aid  int64
		want string
	}{{1, "Acme"}, {2, "Gump"}, {1, "Acme"}} {
		rows, err := db.Query(q, types.NewInt(c.aid))
		if err != nil || len(rows.Data) != 1 || rows.Data[0][0].Str != c.want {
			t.Errorf("Query(%d): %+v %v", c.aid, rows, err)
		}
	}
	st := db.Stats()
	if misses, hits := st.PlanCacheMisses-before.PlanCacheMisses, st.PlanCacheHits-before.PlanCacheHits; misses != 1 || hits != 2 {
		t.Errorf("plan cache: %d misses, %d hits, want 1 and 2", misses, hits)
	}
}

// TestPrepareExec: a parameterized UPDATE is prepared once as well.
// Exec of a SELECT runs it and discards the rows; Query of an UPDATE
// and a statement that does not parse are refused.
func TestPrepareExec(t *testing.T) {
	db := newAccountsDB(t)
	const upd = "UPDATE Account17 SET Beds = ? WHERE Aid = ?"
	before := db.Stats().PlanCacheMisses
	for _, beds := range []int64{7, 8} {
		res, err := db.Exec(upd, types.NewInt(beds), types.NewInt(1))
		if err != nil || res.RowsAffected != 1 {
			t.Fatalf("Exec(%d): %v %d", beds, err, res.RowsAffected)
		}
	}
	if misses := db.Stats().PlanCacheMisses - before; misses != 1 {
		t.Errorf("UPDATE planned %d times, want 1", misses)
	}
	if rows := mustQuery(t, db, "SELECT Beds FROM Account17 WHERE Aid = 1"); rows.Data[0][0].Int != 8 {
		t.Errorf("Beds = %v", rows.Data[0][0])
	}
	if _, err := db.Exec("SELECT Aid FROM Account17 WHERE Aid = ?", types.NewInt(1)); err != nil {
		t.Errorf("Exec of SELECT: %v", err)
	}
	if _, err := db.Query(upd, types.NewInt(1), types.NewInt(1)); err == nil {
		t.Error("Query of UPDATE should fail")
	}
	if _, err := db.Query("SELECT ??? FROM"); err == nil {
		t.Error("bad SQL should fail")
	}
}

// TestPrepareInvalidatedByDDL: a cached plan is rebuilt after DDL — an
// added column, a new index — rather than failing, and a statement
// over a dropped table fails cleanly.
func TestPrepareInvalidatedByDDL(t *testing.T) {
	db := newAccountsDB(t)
	const byAid = "SELECT Aid FROM Account17 WHERE Aid = ?"
	const byName = "SELECT Aid FROM Account17 WHERE Name = ?"
	mustQuery(t, db, byAid, types.NewInt(1))
	mustQuery(t, db, byName, types.NewString("Acme"))
	mustExec(t, db, "ALTER TABLE Account17 ADD COLUMN extra INTEGER")
	if rows := mustQuery(t, db, byAid, types.NewInt(1)); len(rows.Data) != 1 {
		t.Fatalf("after ALTER: %+v", rows)
	}
	mustExec(t, db, "CREATE INDEX acc17_name ON Account17 (Name)")
	if rows := mustQuery(t, db, byName, types.NewString("Acme")); len(rows.Data) != 1 {
		t.Fatalf("after CREATE INDEX: %+v", rows)
	}
	mustExec(t, db, "DROP TABLE Account17")
	if _, err := db.Query(byAid, types.NewInt(1)); err == nil {
		t.Error("statement on a dropped table should fail")
	}
}

// entryFor returns the cached compiled statement of q under the current
// catalog version (nil when absent).
func entryFor(db *DB, q string) *compiled {
	c, _ := db.plans.Get(q, db.cat.Version())
	return c
}

func (c *compiled) freeTrees() []*exec.Tree {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*exec.Tree(nil), c.free...)
}

// TestCompiledTreesServeOneExecutionAtATime runs one cached join from
// many goroutines, each with its own parameter and each result checked:
// a tree handed to two executions at once, or returned with another
// execution's state, gives a wrong answer (and a race under -race). The
// free list stays within its bound throughout, and ends up holding
// trees that were reused rather than rebuilt.
func TestCompiledTreesServeOneExecutionAtATime(t *testing.T) {
	db := newCacheTestDB(t)
	const q = "SELECT a.id, b.name FROM acct a, acct b WHERE b.id = a.id AND a.id >= ? ORDER BY a.id"
	const workers, rounds = 3 * maxFreeTrees, 40
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				lo := (g + i) % 20
				rows, err := db.Query(q, types.NewInt(int64(lo)))
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if len(rows.Data) != 20-lo {
					t.Errorf("id >= %d: %d rows, want %d", lo, len(rows.Data), 20-lo)
					return
				}
				for j, row := range rows.Data {
					if want := int64(lo + j); row[0].Int != want || row[1].String() != fmt.Sprintf("n%d", want) {
						t.Errorf("id >= %d: row %d is %v", lo, j, row)
						return
					}
				}
				if n := len(entryFor(db, q).freeTrees()); n > maxFreeTrees {
					t.Errorf("free list holds %d trees, bound %d", n, maxFreeTrees)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(entryFor(db, q).freeTrees()); n == 0 || n > maxFreeTrees {
		t.Errorf("free list holds %d trees after %d executions, want 1..%d", n, workers*rounds, maxFreeTrees)
	}
}

// TestCompiledTreeReuseAndFaults: consecutive executions of a cached
// join run on the same tree; an execution killed at any of its page
// fetches leaves no page pinned and its tree is dropped, not recycled;
// the next execution builds a fresh tree and is correct.
func TestCompiledTreeReuseAndFaults(t *testing.T) {
	db := newCacheTestDB(t)
	// Region r1 gets enough rows that its join spans several outer
	// batches and index leaves, so that most fault sites are fetches the
	// join makes while it holds pages from an earlier probe.
	const extra = 1000
	for i := 20; i < 20+extra; i += 100 {
		var vals []string
		for id := i; id < i+100; id++ {
			vals = append(vals, fmt.Sprintf("(%d, 'n%d', 'r1')", id, id))
		}
		if _, err := db.Exec("INSERT INTO acct (id, name, region) VALUES " + strings.Join(vals, ", ")); err != nil {
			t.Fatal(err)
		}
	}
	const q = "SELECT a.name, b.region FROM acct a, acct b WHERE b.id = a.id AND a.region = ?"
	run := func(region string, want int) {
		t.Helper()
		rows, err := db.Query(q, types.NewString(region))
		if err != nil || len(rows.Data) != want {
			t.Fatalf("region %s: %v rows, %v", region, rows, err)
		}
		if err := db.DropCaches(); err != nil {
			t.Fatalf("after Close: %v", err)
		}
	}
	run("r0", 7)
	c := entryFor(db, q)
	first := c.freeTrees()
	if len(first) != 1 {
		t.Fatalf("free list holds %d trees after one execution", len(first))
	}
	run("r2", 6)
	if again := c.freeTrees(); len(again) != 1 || again[0] != first[0] {
		t.Fatalf("second execution did not reuse the first one's tree")
	}

	pool := db.BufferPool()
	before := pool.Stats()
	run("r1", 7+extra)
	after := pool.Stats()
	for _, cat := range []storage.Category{storage.CatData, storage.CatIndex} {
		fetches := after.LogicalReads[cat] - before.LogicalReads[cat]
		if fetches < 5 {
			t.Fatalf("category %v: only %d fetches to fail", cat, fetches)
		}
		for k := int64(1); k <= fetches; k++ {
			held := c.freeTrees()
			pool.SetFetchFault(storage.FailNthFetch(k, cat))
			_, err := db.Query(q, types.NewString("r1"))
			pool.SetFetchFault(nil)
			if !errors.Is(err, storage.ErrInjectedFault) {
				t.Fatalf("cat %v fetch %d: error %v", cat, k, err)
			}
			if len(held) != 1 || len(c.freeTrees()) != 0 {
				t.Fatalf("cat %v fetch %d: free list went from %d trees to %d, want 1 to 0", cat, k, len(held), len(c.freeTrees()))
			}
			run("r1", 7+extra)
			if now := c.freeTrees(); len(now) != 1 || now[0] == held[0] {
				t.Fatalf("cat %v fetch %d: the failed tree is back on the free list", cat, k)
			}
		}
	}
}

// TestCompiledTreesDieWithTheirEntry: an online ALTER (a new catalog
// version) and an explicit Clear each leave the old entry, and the
// trees on its free list, unreachable from the cache; the statement's
// next execution plans afresh and builds a tree of its own.
func TestCompiledTreesDieWithTheirEntry(t *testing.T) {
	db := newCacheTestDB(t)
	const q = "SELECT * FROM acct WHERE id = 3"
	query := func(cols int) *compiled {
		t.Helper()
		rows, err := db.Query(q)
		if err != nil || len(rows.Data) != 1 || len(rows.Columns) != cols {
			t.Fatalf("%v, %v, want 1 row of %d columns", rows, err, cols)
		}
		c := entryFor(db, q)
		if c == nil || len(c.freeTrees()) != 1 {
			t.Fatalf("no cached entry with one free tree after an execution")
		}
		return c
	}
	old := query(3)
	if _, err := db.Exec("ALTER TABLE acct ADD COLUMN extra INT"); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.plans.Counts(); n != 0 {
		t.Errorf("the ALTER left %d entries in the cache", n)
	}
	altered := query(4)
	if altered == old || altered.freeTrees()[0] == old.freeTrees()[0] {
		t.Error("the post-ALTER execution ran on the pre-ALTER entry or tree")
	}
	db.plans.Clear()
	if n, _ := db.plans.Counts(); n != 0 {
		t.Errorf("Clear left %d entries in the cache", n)
	}
	if again := query(4); again == altered || again.freeTrees()[0] == altered.freeTrees()[0] {
		t.Error("the post-Clear execution ran on the cleared entry or tree")
	}
}
