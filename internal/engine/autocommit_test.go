package engine

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/mvcc"
	"repro/internal/types"
)

// TestConcurrentAutocommitWrites: autocommit writes to one row, through
// DB.Exec and through sessions outside a transaction, each a transaction
// of one statement, while another session keeps a transaction open on a
// different row of the table. That transaction holds the table's
// admission token, so every writer is admitted by force and none queues
// at the gate; the writers still queue behind each other on the row, and
// every statement counts exactly once.
func TestConcurrentAutocommitWrites(t *testing.T) {
	const writers, stmts = 8, 25
	db := newTxnDB(t, Config{}, 4)
	mustExec(t, db, "UPDATE acct SET bal = 0 WHERE k = 0")
	holder := db.Session()
	defer holder.Close()
	sessExec(t, holder, "BEGIN")
	sessExec(t, holder, "UPDATE acct SET bal = 0 WHERE k = 1")

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			exec := db.Exec
			if w%2 == 1 {
				s := db.Session()
				defer s.Close()
				exec = s.Exec
			}
			for i := 0; i < stmts; i++ {
				res, err := exec("UPDATE acct SET bal = bal + 1 WHERE k = 0")
				if err != nil || res.RowsAffected != 1 {
					t.Errorf("writer %d statement %d: %d rows, %v", w, i, res.RowsAffected, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	sessExec(t, holder, "ROLLBACK")

	if got := mustQuery(t, db, "SELECT bal FROM acct WHERE k = 0").Data[0][0].Int; got != writers*stmts {
		t.Errorf("bal = %d after %d increments", got, writers*stmts)
	}
	if st := db.Stats(); st.ActiveTxns != 0 || st.PinnedSnapshots != 0 {
		t.Errorf("%d transactions and %d snapshots left open", st.ActiveTxns, st.PinnedSnapshots)
	}
}

// TestAutocommitWriteOnHeldRow: an autocommit write to a row an open
// transaction holds waits for it, is run again atomicAttempts times, and
// then returns the conflict — through DB.Exec and a session alike. Once
// the holder rolls back, the same write succeeds.
func TestAutocommitWriteOnHeldRow(t *testing.T) {
	db := newTxnDB(t, Config{ConflictWait: time.Millisecond}, 4)
	holder := db.Session()
	defer holder.Close()
	sessExec(t, holder, "BEGIN")
	sessExec(t, holder, "UPDATE acct SET bal = 7 WHERE k = 0")

	s := db.Session()
	defer s.Close()
	const q = "UPDATE acct SET bal = bal + 1 WHERE k = 0"
	for _, w := range []struct {
		name string
		exec func(string, ...types.Value) (Result, error)
	}{{"DB.Exec", db.Exec}, {"Session", s.Exec}} {
		before := db.Stats()
		_, err := w.exec(q)
		if !errors.Is(err, mvcc.ErrWriteConflict) {
			t.Fatalf("%s: want the conflict, got %v", w.name, err)
		}
		st := db.Stats()
		if d := st.TxnConflicts - before.TxnConflicts; d != atomicAttempts {
			t.Errorf("%s: %d conflicts, want one per attempt (%d)", w.name, d, atomicAttempts)
		}
		if d := st.RowWaitTimeouts - before.RowWaitTimeouts; d != atomicAttempts {
			t.Errorf("%s: %d row waits expired, want one per attempt (%d)", w.name, d, atomicAttempts)
		}
	}

	sessExec(t, holder, "ROLLBACK")
	if res := mustExec(t, db, q); res.RowsAffected != 1 {
		t.Fatalf("after the holder's rollback: %d rows", res.RowsAffected)
	}
	if got := mustQuery(t, db, "SELECT bal FROM acct WHERE k = 0").Data[0][0].Int; got != 101 {
		t.Errorf("bal = %d, want 101", got)
	}
}
