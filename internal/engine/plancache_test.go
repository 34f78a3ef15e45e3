package engine

import (
	"errors"
	"fmt"
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
// once and served from the cache afterwards.
func TestPlanCacheHits(t *testing.T) {
	db := newCacheTestDB(t)
	db.plans.mu.Lock()
	db.plans.hits, db.plans.misses = 0, 0
	db.plans.mu.Unlock()

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
	hits, misses := db.plans.counters()
	if misses != 1 || hits != 4 {
		t.Errorf("hits=%d misses=%d, want 4/1", hits, misses)
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

// TestPlanCacheConcurrentStateful runs a statement whose plan carries
// per-execution state (an IN subquery) from many goroutines; the cache
// must clone the plan per execution so results stay correct (run under
// -race to catch sharing).
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

// entryFor returns the cached compiled statement of q under the current
// catalog version (nil when absent).
func entryFor(db *DB, q string) *compiled {
	db.plans.mu.Lock()
	defer db.plans.mu.Unlock()
	if e, ok := db.plans.entries[planKey{text: q, version: db.cat.Version()}]; ok {
		return e.Value.(*compiled)
	}
	return nil
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
	run("r1", 7)
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
			run("r1", 7)
			if now := c.freeTrees(); len(now) != 1 || now[0] == held[0] {
				t.Fatalf("cat %v fetch %d: the failed tree is back on the free list", cat, k)
			}
		}
	}
}

// TestCompiledTreesDieWithTheirEntry: an online ALTER (a new catalog
// version) and an explicit purge each leave the old entry, and the
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
	reachable := func(c *compiled) bool {
		db.plans.mu.Lock()
		defer db.plans.mu.Unlock()
		for _, e := range db.plans.entries {
			if e.Value.(*compiled) == c {
				return true
			}
		}
		return false
	}
	old := query(3)
	if _, err := db.Exec("ALTER TABLE acct ADD COLUMN extra INT"); err != nil {
		t.Fatal(err)
	}
	if reachable(old) {
		t.Error("the pre-ALTER entry is still in the cache")
	}
	altered := query(4)
	if altered == old || altered.freeTrees()[0] == old.freeTrees()[0] {
		t.Error("the post-ALTER execution ran on the pre-ALTER entry or tree")
	}
	db.plans.purge()
	if reachable(altered) {
		t.Error("the purged entry is still in the cache")
	}
	if again := query(4); again == altered || again.freeTrees()[0] == altered.freeTrees()[0] {
		t.Error("the post-purge execution ran on the purged entry or tree")
	}
}
