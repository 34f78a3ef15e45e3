package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/types"
)

// newAtomDB builds a db with one indexed table pre-filled with n rows
// (k = 0..n-1 dense, unique).
func newAtomDB(t *testing.T, cfg Config, n int) *DB {
	t.Helper()
	db := Open(cfg)
	mustExec(t, db, "CREATE TABLE t (k INTEGER NOT NULL, v VARCHAR(100))")
	mustExec(t, db, "CREATE UNIQUE INDEX pk ON t (k)")
	mustExec(t, db, "CREATE INDEX byv ON t (v)")
	for i := 0; i < n; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (?, ?)",
			types.NewInt(int64(i)), types.NewString(fmt.Sprintf("val-%04d", i)))
	}
	return db
}

func atomTable(t *testing.T, db *DB) *catalog.Table {
	t.Helper()
	tab, err := db.Catalog().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func countRows(t *testing.T, db *DB) int64 {
	t.Helper()
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM t")
	return rows.Data[0][0].Int
}

// The satellite regression: a multi-row INSERT whose kth row violates a
// unique constraint used to leave rows 1..k-1 behind. It must now
// affect zero rows.
func TestMultiRowInsertAtomicity(t *testing.T) {
	db := newAtomDB(t, Config{}, 5)
	before := db.Stats().StmtRollbacks

	_, err := db.Exec("INSERT INTO t VALUES (100, 'a'), (101, 'b'), (2, 'dup')")
	if err == nil {
		t.Fatal("insert with duplicate key must fail")
	}
	if got := countRows(t, db); got != 5 {
		t.Errorf("row count after failed insert = %d, want 5 (rows 100/101 leaked)", got)
	}
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM t WHERE k >= 100")
	if rows.Data[0][0].Int != 0 {
		t.Error("prefix rows of the failed insert are visible")
	}
	if got := db.Stats().StmtRollbacks - before; got != 1 {
		t.Errorf("StmtRollbacks delta = %d, want 1", got)
	}
	if err := atomTable(t, db).CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

// Acceptance: shifting a dense unique key must succeed regardless of
// the order the executor visits rows, both by sequential scan and by
// index range scan (ascending key order — the worst case, where every
// row's new key collides with its not-yet-moved neighbor).
func TestUpdateShiftDenseUniqueKey(t *testing.T) {
	db := newAtomDB(t, Config{}, 50)

	res, err := db.Exec("UPDATE t SET k = k + 1")
	if err != nil {
		t.Fatalf("full-table k = k+1: %v", err)
	}
	if res.RowsAffected != 50 {
		t.Errorf("affected %d, want 50", res.RowsAffected)
	}
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM t WHERE k >= 1 AND k <= 50")
	if rows.Data[0][0].Int != 50 {
		t.Errorf("keys not shifted to 1..50: %d in range", rows.Data[0][0].Int)
	}

	// Indexed predicate: the planner drives this through the unique
	// index in ascending key order.
	res, err = db.Exec("UPDATE t SET k = k + 1 WHERE k >= 20")
	if err != nil {
		t.Fatalf("indexed k = k+1: %v", err)
	}
	if res.RowsAffected != 31 {
		t.Errorf("affected %d, want 31", res.RowsAffected)
	}
	if err := atomTable(t, db).CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

// faultShapes are the DML shapes the fault sweeps run over newAtomDB's
// table of 40 rows.
var faultShapes = []struct {
	name string
	sql  string
}{
	{"multi-insert", "INSERT INTO t VALUES (200, 'n1'), (201, 'n2'), (202, 'n3')"},
	{"update-shift", "UPDATE t SET k = k + 1 WHERE k >= 10"},
	{"update-grow", "UPDATE t SET v = 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx' WHERE k < 10"},
	{"delete-range", "DELETE FROM t WHERE k >= 10 AND k < 20"},
}

// TestStatementFaultSweeps drives every DML shape through a
// deterministic fault sweep at the pool level: attempt k fails the kth
// page access of one category; a failed statement must leave the table
// bit-identical to its pre-statement snapshot.
func TestStatementFaultSweeps(t *testing.T) {
	cats := []storage.Category{storage.CatData, storage.CatIndex}
	const maxK = 600

	for _, st := range faultShapes {
		for _, cat := range cats {
			swept := false
			for k := int64(1); k <= maxK; k++ {
				db := newAtomDB(t, Config{PageSize: 512, MemoryBytes: 1 << 20}, 40)
				tab := atomTable(t, db)
				snap, err := tab.SnapshotRows()
				if err != nil {
					t.Fatal(err)
				}
				db.BufferPool().SetFetchFault(storage.FailNthFetch(k, cat))
				_, execErr := db.Exec(st.sql)
				db.BufferPool().SetFetchFault(nil)
				if execErr == nil {
					swept = true
					break // statement outran the fault: all access points covered
				}
				if !errors.Is(execErr, storage.ErrInjectedFault) {
					t.Fatalf("%s/%v fault %d: unexpected error %v", st.name, cat, k, execErr)
				}
				if err := tab.CheckInvariants(); err != nil {
					t.Fatalf("%s/%v fault %d: invariants: %v", st.name, cat, k, err)
				}
				after, err := tab.SnapshotRows()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(snap, after) {
					t.Fatalf("%s/%v fault %d: rows differ from pre-statement snapshot", st.name, cat, k)
				}
			}
			if !swept {
				t.Fatalf("%s/%v: never ran fault-free within %d fault points", st.name, cat, maxK)
			}
		}
	}
}

// TestRandomizedFaultInjection is the acceptance test: ≥ 1000 randomly
// placed physical I/O faults injected under a thrashing buffer pool
// while random DML runs. Every statement is designed to be genuinely
// valid, so any failure is fault-induced — and every failure must leave
// the table consistent and bit-identical to its pre-statement state.
func TestRandomizedFaultInjection(t *testing.T) {
	const targetFaults = 1000

	// A pool far smaller than the working set: nearly every statement
	// does physical I/O, so disk-level faults land mid-statement.
	db := Open(Config{MemoryBytes: 48 << 10, PageSize: 1024})
	mustExec(t, db, "CREATE TABLE t (k INTEGER NOT NULL, v VARCHAR(100))")
	mustExec(t, db, "CREATE UNIQUE INDEX pk ON t (k)")
	pad := func(i int64) string { return fmt.Sprintf("value-%08d-%060d", i, i) }
	for i := int64(0); i < 600; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (?, ?)", types.NewInt(i), types.NewString(pad(i)))
	}
	tab := atomTable(t, db)

	rng := rand.New(rand.NewSource(1)) // deterministic run
	nextK := int64(1_000_000)          // fresh keys: inserts never genuinely collide
	faults, iters := 0, 0
	for faults < targetFaults {
		iters++
		if iters > 40*targetFaults {
			t.Fatalf("only %d faults fired in %d iterations", faults, iters)
		}
		var q string
		var params []types.Value
		kind := rng.Intn(4)
		switch kind {
		case 0:
			q = "INSERT INTO t VALUES (?, ?)"
			params = []types.Value{types.NewInt(nextK), types.NewString(pad(nextK))}
			nextK++
		case 1:
			lo := rng.Int63n(600)
			q = "UPDATE t SET v = ? WHERE k >= ? AND k < ?"
			params = []types.Value{types.NewString(pad(rng.Int63())), types.NewInt(lo), types.NewInt(lo + 20)}
		case 2:
			// k = k+1 over a suffix never genuinely collides: every
			// row at or above the boundary moves together.
			q = "UPDATE t SET k = k + 1 WHERE k >= ?"
			params = []types.Value{types.NewInt(rng.Int63n(2_000_000))}
		case 3:
			lo := rng.Int63n(600)
			q = "DELETE FROM t WHERE k >= ? AND k < ?"
			params = []types.Value{types.NewInt(lo), types.NewInt(lo + 3)}
		}

		snap, err := tab.SnapshotRows()
		if err != nil {
			t.Fatal(err)
		}
		fired := false
		inner := storage.FailNth(1+rng.Int63n(25), nil)
		db.Disk().SetFault(func(fi storage.FaultInfo) error {
			if err := inner(fi); err != nil {
				fired = true
				return err
			}
			return nil
		})
		_, execErr := db.Exec(q, params...)
		db.Disk().SetFault(nil)

		if execErr == nil && kind == 2 {
			// A successful suffix shift raises the maximum key by one;
			// keep fresh insert keys strictly above it.
			nextK++
		}
		if execErr != nil {
			if !errors.Is(execErr, storage.ErrInjectedFault) {
				t.Fatalf("iter %d (%s): non-injected failure: %v", iters, q, execErr)
			}
			if !fired {
				t.Fatalf("iter %d: injected error without the hook firing", iters)
			}
			faults++
			if err := tab.CheckInvariants(); err != nil {
				t.Fatalf("iter %d (%s): invariants after rollback: %v", iters, q, err)
			}
			after, err := tab.SnapshotRows()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(snap, after) {
				t.Fatalf("iter %d (%s): rows differ from pre-statement snapshot", iters, q)
			}
		} else if iters%100 == 0 {
			if err := tab.CheckInvariants(); err != nil {
				t.Fatalf("iter %d: invariants after success: %v", iters, err)
			}
		}
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Fatalf("final invariants: %v", err)
	}
	if n := db.Stats().StmtRollbacks; n < int64(targetFaults) {
		t.Errorf("StmtRollbacks = %d, want >= %d", n, targetFaults)
	}
	t.Logf("%d faults fired across %d statements", faults, iters)
}
