package wal_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/types"
	"repro/internal/wal"
)

// The transaction crash-point sweep (PR 5): the unit of atomicity is
// no longer the statement but the interactive transaction. One
// deterministic workload of multi-statement transactions — spanning
// tables, using savepoints and partial rollbacks, some explicitly
// rolled back, interleaved with autocommit statements — runs once to
// count every durability operation, then once per operation with a
// crash planted there. After recovery, every COMMIT-acknowledged
// transaction must be fully visible and every loser (open at the
// crash, even with its COMMIT in flight but not durable) must have
// left no trace at all.

// sstep is one statement of a transactional workload script.
type sstep struct {
	q      string
	params []types.Value
}

// txnScript is one atomic unit: either a BEGIN...COMMIT/ROLLBACK
// group or a single autocommit statement.
type txnScript struct {
	stmts []sstep
}

// sortedIDs returns a table's ids in deterministic order.
func sortedIDs(rows map[int64]string) []int64 {
	ids := make([]int64, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// buildTxnWorkload generates the scripts and the committed state after
// each: modelAt[k] is the state once the first k scripts are
// acknowledged. Transaction effects are simulated during generation
// (including savepoint rollbacks), so each script's net effect is
// exact by construction.
func buildTxnWorkload() (scripts []txnScript, modelAt []model) {
	rng := rand.New(rand.NewSource(7))
	cur := model{}
	push := func(sc txnScript) {
		scripts = append(scripts, sc)
		modelAt = append(modelAt, cur.clone())
	}

	// Schema setup: three tenant tables, one with a unique index. Each
	// DDL statement is its own autocommit unit.
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("t%d", i)
		sc := txnScript{stmts: []sstep{{q: fmt.Sprintf("CREATE TABLE %s (id INT NOT NULL, val TEXT)", name)}}}
		cur[name] = map[int64]string{}
		push(sc)
	}
	push(txnScript{stmts: []sstep{{q: "CREATE UNIQUE INDEX t0_pk ON t0 (id)"}}})

	// g and h are indexed while empty, so their indexes have no tree
	// until a transaction gives the heap its second page: g's commits,
	// h's rolls back after the build, and an autocommit insert follows
	// into h's built trees.
	for _, name := range []string{"g", "h"} {
		cur[name] = map[int64]string{}
		push(txnScript{stmts: []sstep{{q: "CREATE TABLE " + name + " (id INT NOT NULL, val TEXT, k INT)"}}})
		push(txnScript{stmts: []sstep{{q: "CREATE UNIQUE INDEX " + name + "_pk ON " + name + " (id)"}}})
		push(txnScript{stmts: []sstep{{q: "CREATE INDEX " + name + "_k ON " + name + " (k)"}}})
	}
	for _, name := range []string{"g", "h"} {
		work := cur.clone()
		sc := txnScript{stmts: []sstep{{q: "BEGIN"},
			{q: "INSERT INTO " + name + " VALUES (1, 'a', 1), (2, 'b', 2)"},
			{q: "UPDATE " + name + " SET val = 'c', k = 5 WHERE id = 1"}}}
		work[name][1], work[name][2] = "c", "b"
		for id := int64(3); id < 16; id++ { // 1 KiB pages: the heap crosses one
			val := fmt.Sprintf("%s-%03d-%s", name, id, strings.Repeat("w", 90))
			sc.stmts = append(sc.stmts, sstep{q: "INSERT INTO " + name + " VALUES (?, ?, ?)",
				params: []types.Value{types.NewInt(id), types.NewString(val), types.NewInt(id % 3)}})
			work[name][id] = val
		}
		if name == "g" {
			sc.stmts = append(sc.stmts, sstep{q: "COMMIT"})
			cur = work
		} else {
			sc.stmts = append(sc.stmts, sstep{q: "ROLLBACK"})
		}
		push(sc)
	}
	cur["h"][7] = "after"
	push(txnScript{stmts: []sstep{{q: "INSERT INTO h VALUES (7, 'after', 1)"}}})

	// v's index on val takes long keys in no order, a dozen to a leaf:
	// its full leaves shed into their siblings as well as split.
	cur["v"] = map[int64]string{}
	push(txnScript{stmts: []sstep{{q: "CREATE TABLE v (id INT NOT NULL, val TEXT)"}}})
	push(txnScript{stmts: []sstep{{q: "CREATE INDEX v_val ON v (val)"}}})
	sc := txnScript{stmts: []sstep{{q: "BEGIN"}}}
	for i := int64(0); i < 37; i++ {
		id := i * 16 % 37
		val := fmt.Sprintf("v-%03d-%s", id, strings.Repeat("s", 60))
		sc.stmts = append(sc.stmts, sstep{q: "INSERT INTO v VALUES (?, ?)", params: []types.Value{types.NewInt(id), types.NewString(val)}})
		cur["v"][id] = val
	}
	push(txnScript{stmts: append(sc.stmts, sstep{q: "COMMIT"})})

	nextID := map[string]int64{}
	tbl := func() string { return fmt.Sprintf("t%d", rng.Intn(3)) }

	// genDML emits one DML statement applied to work, or ok=false if
	// nothing sensible exists (empty table for update/delete).
	genDML := func(work model, i int) (sstep, bool) {
		name := tbl()
		switch r := rng.Intn(10); {
		case r < 5:
			id := nextID[name]
			nextID[name]++
			val := fmt.Sprintf("v%d-%d", i, rng.Intn(1000))
			work[name][id] = val
			return sstep{q: "INSERT INTO " + name + " VALUES (?, ?)",
				params: []types.Value{types.NewInt(id), types.NewString(val)}}, true
		case r < 8:
			ids := sortedIDs(work[name])
			if len(ids) == 0 {
				return sstep{}, false
			}
			id := ids[rng.Intn(len(ids))]
			val := fmt.Sprintf("u%d", i)
			work[name][id] = val
			return sstep{q: "UPDATE " + name + " SET val = ? WHERE id = ?",
				params: []types.Value{types.NewString(val), types.NewInt(id)}}, true
		default:
			ids := sortedIDs(work[name])
			if len(ids) == 0 {
				return sstep{}, false
			}
			id := ids[rng.Intn(len(ids))]
			delete(work[name], id)
			return sstep{q: "DELETE FROM " + name + " WHERE id = ?",
				params: []types.Value{types.NewInt(id)}}, true
		}
	}

	const txns = 100
	for i := 0; i < txns; i++ {
		if rng.Intn(5) == 0 {
			// Autocommit interlude: a single statement is its own unit.
			work := cur.clone()
			if st, ok := genDML(work, i); ok {
				cur = work
				push(txnScript{stmts: []sstep{st}})
			}
			continue
		}
		work := cur.clone()
		var saves []model
		sc := txnScript{stmts: []sstep{{q: "BEGIN"}}}
		nstmt := 2 + rng.Intn(4)
		for j := 0; j < nstmt; j++ {
			switch r := rng.Intn(10); {
			case r == 8 && len(saves) < 2:
				saves = append(saves, work.clone())
				sc.stmts = append(sc.stmts, sstep{q: fmt.Sprintf("SAVEPOINT sp%d", len(saves)-1)})
			case r == 9 && len(saves) > 0:
				// Partial rollback to a random live savepoint; later
				// savepoints are destroyed, the named one survives.
				n := rng.Intn(len(saves))
				work = saves[n].clone()
				saves = saves[:n+1]
				sc.stmts = append(sc.stmts, sstep{q: fmt.Sprintf("ROLLBACK TO sp%d", n)})
			default:
				if st, ok := genDML(work, i); ok {
					sc.stmts = append(sc.stmts, st)
				}
			}
		}
		if rng.Intn(100) < 80 {
			sc.stmts = append(sc.stmts, sstep{q: "COMMIT"})
			cur = work // the transaction's net effect becomes durable
		} else {
			sc.stmts = append(sc.stmts, sstep{q: "ROLLBACK"})
		}
		push(sc)
	}
	// modelAt[k] currently holds the state after k+1 scripts; prepend
	// the empty state so modelAt[k] = state after first k scripts.
	modelAt = append([]model{{}}, modelAt...)
	return scripts, modelAt
}

// runTxnScripts executes scripts through one session until a statement
// fails. Returns the failing script index (len(scripts) if none) and
// whether the failing statement was the script's final one (its
// COMMIT/ROLLBACK — or the sole statement of an autocommit unit).
func runTxnScripts(db *engine.DB, scripts []txnScript) (pending int, lastStmt bool) {
	s := db.Session()
	for k, sc := range scripts {
		for j, st := range sc.stmts {
			if _, err := s.Exec(st.q, st.params...); err != nil {
				return k, j == len(sc.stmts)-1
			}
		}
	}
	return len(scripts), false
}

// shedsIn runs scripts on a database whose log no automatic checkpoint
// truncates and counts the sheds in it: runs of B+tree page images that
// follow neither a page allocation nor another image, the three pages
// (both leaves and their parent) a full leaf rewrites when it hands
// entries to a sibling instead of splitting. A split allocates its new
// page first.
func shedsIn(t *testing.T, scripts []txnScript) int {
	cfg := sweepConfig()
	cfg.CheckpointBytes = 1 << 40
	db := engine.Open(cfg)
	if k, _ := runTxnScripts(db, scripts); k != len(scripts) {
		t.Fatalf("shed count: failed at script %d", k)
	}
	if err := db.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	recs, n := db.WAL().DurableRecords(), 0
	for i := 1; i+2 < len(recs); i++ {
		if recs[i].Kind == wal.KBTreeImage && recs[i+1].Kind == wal.KBTreeImage && recs[i+2].Kind == wal.KBTreeImage &&
			recs[i-1].Kind != wal.KBTreeImage && recs[i-1].Kind != wal.KPageAlloc {
			n++
		}
	}
	return n
}

func TestTxnCrashPointSweep(t *testing.T) {
	scripts, modelAt := buildTxnWorkload()
	// Every site is swept, so a crash falls inside each shed, between its
	// images, as long as the workload makes one.
	if n := shedsIn(t, scripts); n == 0 {
		t.Fatal("the workload makes no shed")
	} else {
		t.Logf("the workload sheds %d times", n)
	}

	count := engine.Open(sweepConfig())
	probe := wal.InstallCrashPlan(wal.NeverCrash, count.Disk(), count.WAL())
	if k, _ := runTxnScripts(count, scripts); k != len(scripts) {
		t.Fatalf("counting pass failed at script %d", k)
	}
	total := probe.Ops()
	if total < 500 {
		t.Fatalf("workload too small for the sweep: %d crash sites", total)
	}
	t.Logf("sweeping %d crash sites over %d transaction scripts", total, len(scripts))

	stride := int64(1)
	if testing.Short() {
		stride = 17
	}
	for site := int64(1); site <= total; site += stride {
		db := engine.Open(sweepConfig())
		plan := wal.InstallCrashPlan(site, db.Disk(), db.WAL())
		pending, lastStmt := runTxnScripts(db, scripts)
		if !plan.Fired() {
			t.Fatalf("site %d: plan never fired (pending=%d)", site, pending)
		}
		db2, rep, err := engine.Recover(db.Crash())
		if err != nil {
			t.Fatalf("site %d: recover: %v (report %+v)", site, err, rep)
		}
		got := snapshotDB(t, db2)
		before := modelAt[pending]
		after := modelAt[min(pending+1, len(scripts))]
		if lastStmt {
			// The crash was observed at the script's terminator (or by a
			// post-commit checkpoint's successor): the transaction's
			// COMMIT may or may not have reached the log — either
			// boundary, but nothing in between.
			if !reflect.DeepEqual(got, before) && !reflect.DeepEqual(got, after) {
				t.Fatalf("site %d: state matches neither boundary of script %d:\n got    %v\nbefore %v\nafter  %v",
					site, pending, got, before, after)
			}
		} else {
			// The crash hit before the COMMIT was even issued: the open
			// transaction is a loser and must have left no trace — not a
			// row, not a savepoint's worth of partial effect.
			if !reflect.DeepEqual(got, before) {
				t.Fatalf("site %d: loser transaction %d left a trace:\n got    %v\nwant   %v",
					site, pending, got, before)
			}
		}
		// Recovery must be idempotent: crash the recovered database
		// untouched and recover again, byte-for-byte the same state.
		if site%97 == 0 {
			db3, rep2, err := engine.Recover(db2.Crash())
			if err != nil {
				t.Fatalf("site %d: second recover: %v", site, err)
			}
			if again := snapshotDB(t, db3); !reflect.DeepEqual(got, again) {
				t.Fatalf("site %d: recovery not idempotent", site)
			}
			if rep2.Replayed != 0 && rep2.Replayed != rep.Replayed {
				t.Fatalf("site %d: second recovery replayed %d, first %d",
					site, rep2.Replayed, rep.Replayed)
			}
		}
	}
}
