package engine

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/types"
)

// newHintDB builds a db whose device has a read latency — so hints are
// live — holding table t (id, a, b, c, pad) with n rows and a unique
// index on id, plus one index each on a, b and c when wide is set. Pages
// are 1 KiB and a row about 90 bytes: five rows make a one-page heap,
// 400 a forty-page one under a two-level index. The cache is left cold.
func newHintDB(t *testing.T, n int, wide bool) *DB {
	t.Helper()
	db := Open(Config{PageSize: 1024, MemoryBytes: 4 << 20, ReadLatency: 50 * time.Microsecond})
	mustExec(t, db, "CREATE TABLE t (id INTEGER NOT NULL, a INTEGER, b INTEGER, c INTEGER, pad VARCHAR(100))")
	mustExec(t, db, "CREATE UNIQUE INDEX t_pk ON t (id)")
	if wide {
		for _, col := range []string{"a", "b", "c"} {
			mustExec(t, db, fmt.Sprintf("CREATE INDEX t_%s ON t (%s)", col, col))
		}
	}
	pad := types.NewString(strings.Repeat("x", 60))
	for i := 0; i < n; i++ {
		v := types.NewInt(int64(i))
		mustExec(t, db, "INSERT INTO t VALUES (?, ?, ?, ?, ?)", v, v, v, v, pad)
	}
	coolDown(t, db)
	return db
}

// coolDown empties the cache (waiting for any load in flight: a drop
// that succeeds also proves no page is pinned) and zeroes the counters.
func coolDown(t *testing.T, db *DB) {
	t.Helper()
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	db.BufferPool().ResetStats()
}

// TestStatementMissesOverlap shows by counting — reads parked in the
// disk hook until the expected number are parked together — that a cold
// statement's page misses are in flight at once, that a one-page heap is
// read in place of its index, and that the small-heap speculation stops
// at smallHeap pages.
func TestStatementMissesOverlap(t *testing.T) {
	const wait = 2 * time.Second
	together := func(t *testing.T, db *DB, n int, match func(storage.FaultInfo) bool, stmt func()) storage.PoolStats {
		t.Helper()
		hook, met := storage.ParkReads(n, wait, match)
		db.Disk().SetFault(hook)
		stmt()
		db.Disk().SetFault(nil)
		if !met() {
			t.Errorf("never had %d reads in flight at once", n)
		}
		return db.Stats().Pool
	}

	// A one-page heap is read instead of its index: one read, and no
	// index page at all.
	t.Run("point select, one-page table", func(t *testing.T) {
		db := newHintDB(t, 5, false)
		if rows := mustQuery(t, db, "SELECT * FROM t WHERE id = 3"); len(rows.Data) != 1 {
			t.Errorf("%d rows", len(rows.Data))
		}
		st := db.Stats()
		if st.Pool.TotalPhysicalReads() != 1 || st.Pool.LogicalReads[storage.CatIndex] != 0 || st.Exec.OnePageReads != 1 {
			t.Errorf("%+v, %d one-page reads", st.Pool, st.Exec.OnePageReads)
		}
	})

	t.Run("point select, two-page table", func(t *testing.T) {
		db := newHintDB(t, 15, false)
		if pages := atomTable(t, db).Heap.NumPages(); pages != 2 {
			t.Fatalf("fixture heap has %d pages", pages)
		}
		// The root (a leaf) and both heap pages, though the row is on one.
		st := together(t, db, 3, nil, func() {
			if rows := mustQuery(t, db, "SELECT * FROM t WHERE id = 3"); len(rows.Data) != 1 {
				t.Errorf("%d rows", len(rows.Data))
			}
		})
		if st.TotalPhysicalReads() != 3 || st.Prefetches != 3 || st.PrefetchJoined != 2 {
			t.Errorf("%+v", st)
		}
	})

	t.Run("insert, four indexes", func(t *testing.T) {
		db := newHintDB(t, 5, true)
		st := together(t, db, 5, nil, func() {
			mustExec(t, db, "INSERT INTO t VALUES (100, 100, 100, 100, 'p')")
		})
		if st.TotalPhysicalReads() != 5 || st.PrefetchJoined != 5 {
			t.Errorf("%+v", st)
		}
	})

	t.Run("scan, twenty-page heap", func(t *testing.T) {
		db := newHintDB(t, 200, false)
		pages := atomTable(t, db).Heap.NumPages()
		if pages < 16 {
			t.Fatalf("fixture heap has %d pages", pages)
		}
		st := together(t, db, 8, nil, func() {
			if rows := mustQuery(t, db, "SELECT COUNT(*) FROM t WHERE a >= 0"); rows.Data[0][0].Int != 200 {
				t.Errorf("count %v", rows.Data[0][0])
			}
		})
		if got := st.PhysicalReads[storage.CatData]; got != int64(pages) || st.PrefetchWasted != 0 {
			t.Errorf("%d data reads for %d pages: %+v", got, pages, st)
		}
	})

	// bigDB is the forty-page table and the ids at which heap pages start.
	bigDB := func(t *testing.T) (*DB, []int64) {
		db := newHintDB(t, 400, false)
		tab := atomTable(t, db)
		var firstID []int64
		last := storage.InvalidPageID
		err := tab.Heap.Scan(func(rid storage.RID, rec []byte) (bool, error) {
			if rid.Page != last {
				row, err := types.DecodeRow(rec)
				if err != nil {
					return false, err
				}
				firstID, last = append(firstID, row[0].Int), rid.Page
			}
			return true, nil
		})
		if err != nil || len(firstID) < 30 {
			t.Fatalf("fixture heap: %d pages, %v", len(firstID), err)
		}
		if h, err := tab.Indexes[0].Tree.Height(); err != nil || h < 2 {
			t.Fatalf("fixture index height %d, %v", h, err)
		}
		coolDown(t, db)
		return db, firstID
	}

	t.Run("range scan, six pages of forty", func(t *testing.T) {
		db, firstID := bigDB(t)
		lo, hi := firstID[10], firstID[16]
		st := together(t, db, 6, storage.MatchCat(storage.CatData), func() {
			rows := mustQuery(t, db, "SELECT id, pad FROM t WHERE id >= ? AND id < ?", types.NewInt(lo), types.NewInt(hi))
			if int64(len(rows.Data)) != hi-lo {
				t.Errorf("%d rows, want %d", len(rows.Data), hi-lo)
			}
		})
		if got := st.PhysicalReads[storage.CatData]; got != 6 || st.PrefetchWasted != 0 {
			t.Errorf("%d data reads, want the 6 pages of the range and no more: %+v", got, st)
		}
	})

	t.Run("point select, forty-page heap", func(t *testing.T) {
		db, firstID := bigDB(t)
		height, err := atomTable(t, db).Indexes[0].Tree.Height()
		if err != nil {
			t.Fatal(err)
		}
		coolDown(t, db)
		// Nothing to overlap: the root is hinted, but which leaf and which
		// heap page is known only once the page above has been read.
		hook, met := storage.ParkReads(2, 20*time.Millisecond, nil)
		db.Disk().SetFault(hook)
		rows := mustQuery(t, db, "SELECT * FROM t WHERE id = ?", types.NewInt(firstID[20]))
		db.Disk().SetFault(nil)
		if len(rows.Data) != 1 {
			t.Errorf("%d rows", len(rows.Data))
		}
		if met() {
			t.Error("two reads were in flight at once")
		}
		st := db.Stats().Pool
		if st.TotalPhysicalReads() != int64(height)+1 || st.PrefetchWasted != 0 || st.Prefetches != st.PrefetchJoined {
			t.Errorf("height %d: %+v", height, st)
		}
	})
}

// TestDiskReadFaultSweepWithHints fails the kth physical read of a cold
// join + DML script, for every k a statement reaches: a statement that
// fails is all-or-nothing as ever, and a fault that lands on a hint
// alone is invisible — the statement succeeds and the page is read again.
func TestDiskReadFaultSweepWithHints(t *testing.T) {
	script := []struct {
		sql   string
		query bool
	}{
		{"SELECT x.id, y.pad FROM t x, t y WHERE y.id = x.a AND x.id < 3", true},
		{"INSERT INTO t VALUES (100, 100, 100, 100, 'p'), (101, 101, 101, 101, 'q')", false},
		{"UPDATE t SET a = a + 10, pad = 'u' WHERE id = 2", false},
		{"DELETE FROM t WHERE id >= 1 AND id < 4", false},
	}
	// run executes the script's ith statement cold with the kth read
	// failing (k = 0: none) and reports what happened.
	type outcome struct {
		err    error
		fired  bool
		before map[storage.RID][]types.Value
		after  map[storage.RID][]types.Value
		result []string
		reads  int64
	}
	run := func(i int, k int64) outcome {
		db := newHintDB(t, 5, true)
		tab := atomTable(t, db)
		var o outcome
		var err error
		if o.before, err = tab.SnapshotRows(); err != nil {
			t.Fatal(err)
		}
		coolDown(t, db)
		inner := storage.FailNth(k, storage.MatchOp(storage.FaultRead))
		db.Disk().SetFault(func(fi storage.FaultInfo) error {
			err := inner(fi)
			if err != nil {
				o.fired = true
			}
			return err
		})
		if script[i].query {
			var rows *Rows
			if rows, o.err = db.Query(script[i].sql); o.err == nil {
				for _, r := range rows.Data {
					o.result = append(o.result, fmt.Sprint(r))
				}
			}
		} else {
			_, o.err = db.Exec(script[i].sql)
		}
		o.reads = db.Stats().Pool.TotalPhysicalReads()
		coolDown(t, db) // waits for stray loads: o.fired is final after this
		db.Disk().SetFault(nil)
		if err := tab.CheckInvariants(); err != nil {
			t.Fatalf("%q fault %d: invariants: %v", script[i].sql, k, err)
		}
		if o.after, err = tab.SnapshotRows(); err != nil {
			t.Fatal(err)
		}
		return o
	}
	absorbed := 0
	for i, st := range script {
		clean := run(i, 0)
		if clean.err != nil {
			t.Fatalf("%q: %v", st.sql, clean.err)
		}
		for k := int64(1); ; k++ {
			if k > 50 {
				t.Fatalf("%q: still reaching fault %d", st.sql, k)
			}
			o := run(i, k)
			if !o.fired {
				break // the statement outran the fault: every read covered
			}
			switch {
			case o.err != nil:
				if !errors.Is(o.err, storage.ErrInjectedFault) {
					t.Fatalf("%q fault %d: unexpected error %v", st.sql, k, o.err)
				}
				if !reflect.DeepEqual(o.before, o.after) {
					t.Errorf("%q fault %d: a failed statement changed the table", st.sql, k)
				}
			default:
				absorbed++
				if !reflect.DeepEqual(o.after, clean.after) || !reflect.DeepEqual(o.result, clean.result) {
					t.Errorf("%q fault %d: succeeded with a different outcome than the fault-free run", st.sql, k)
				}
				if o.reads != clean.reads+1 {
					t.Errorf("%q fault %d: %d physical reads, want the fault-free %d and the one re-read", st.sql, k, o.reads, clean.reads)
				}
			}
		}
	}
	if absorbed == 0 {
		t.Error("no fault ever landed on a hint alone")
	}
}
