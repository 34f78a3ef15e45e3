package engine

import (
	"fmt"
	"sync"
	"testing"

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
