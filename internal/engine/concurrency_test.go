package engine

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/mvcc"
	"repro/internal/types"
)

// These tests pin down the fine-grained write-concurrency machinery:
// the soft per-table admission gate, the bounded row-level
// wait-then-abort, and their deadlock freedom under multi-table
// contention. They use real goroutines; run with -race.

// waitForStat polls get until it returns at least want, failing the
// test after deadline. It synchronizes a driver goroutine with another
// session's park without guessing at scheduler timing.
func waitForStat(t *testing.T, get func() int64, want int64, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if get() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("stat never reached %d within %v (got %d)", want, deadline, get())
}

// TestAdmissionRescueAfterRollback: a transaction parked at a table's
// write-admission gate is admitted as soon as the holder resolves, and
// — because its snapshot pins only after admission — proceeds without
// a conflict. The would-be first-updater-wins abort becomes a commit.
func TestAdmissionRescueAfterRollback(t *testing.T) {
	db := newTxnDB(t, Config{ConflictWait: 100 * time.Millisecond}, 4)
	s1, s2 := db.Session(), db.Session()
	defer s1.Close()
	defer s2.Close()

	sessExec(t, s1, "BEGIN")
	sessExec(t, s1, "UPDATE acct SET bal = 0 WHERE k = 0") // takes acct's token

	sessExec(t, s2, "BEGIN")
	done := make(chan error, 1)
	go func() {
		// Parks at the admission gate: s1 holds the token. The budget is
		// 10x the conflict wait (1s), far longer than s1 keeps it.
		if _, err := s2.Exec("UPDATE acct SET bal = bal + 7 WHERE k = 0"); err != nil {
			done <- err
			return
		}
		_, err := s2.Exec("COMMIT")
		done <- err
	}()

	waitForStat(t, func() int64 { return db.Stats().AdmissionWaits }, 1, 5*time.Second)
	sessExec(t, s1, "ROLLBACK") // releases the token after the undo finished

	if err := <-done; err != nil {
		t.Fatalf("parked transaction should be admitted and commit, got %v", err)
	}
	st := db.Stats()
	if st.TxnConflicts != 0 {
		t.Errorf("TxnConflicts = %d, want 0 (admission + lazy pin avoids the conflict)", st.TxnConflicts)
	}
	if st.AdmissionTimeouts != 0 {
		t.Errorf("AdmissionTimeouts = %d, want 0 (the token was handed over, not forced)", st.AdmissionTimeouts)
	}
	rows := mustQuery(t, db, "SELECT bal FROM acct WHERE k = 0")
	if rows.Data[0][0].Int != 107 {
		t.Errorf("bal(0) = %d, want 107 (s1 rolled back, s2 committed)", rows.Data[0][0].Int)
	}
}

// TestRowWaitRescueAfterRollback exercises the row-level bounded wait
// behind the gate: a transaction that already passed the table's gate
// (it wrote the table first) meets a row held by a forced-admission
// writer, parks on the holder's version chain, and proceeds when the
// holder rolls back — RowWaitRescues, not a conflict.
func TestRowWaitRescueAfterRollback(t *testing.T) {
	db := newTxnDB(t, Config{ConflictWait: 200 * time.Millisecond}, 4)
	s1, s2 := db.Session(), db.Session()
	defer s1.Close()
	defer s2.Close()

	// s2 writes the table first and owns its admission token.
	sessExec(t, s2, "BEGIN")
	sessExec(t, s2, "UPDATE acct SET bal = 1 WHERE k = 1")

	// s1's write cannot get the token; after the bounded admission park
	// (10x conflict wait) it is force-admitted — scheduling never blocks
	// semantics — and takes row k=0.
	sessExec(t, s1, "BEGIN")
	sessExec(t, s1, "UPDATE acct SET bal = 2 WHERE k = 0")
	if got := db.Stats().AdmissionTimeouts; got != 1 {
		t.Fatalf("AdmissionTimeouts = %d, want 1 (forced admission)", got)
	}

	done := make(chan error, 1)
	go func() {
		// Same table, gate already passed: goes straight to the row wait
		// on s1's uncommitted write.
		if _, err := s2.Exec("UPDATE acct SET bal = bal + 7 WHERE k = 0"); err != nil {
			done <- err
			return
		}
		_, err := s2.Exec("COMMIT")
		done <- err
	}()

	waitForStat(t, func() int64 { return db.Stats().RowWaits }, 1, 5*time.Second)
	sessExec(t, s1, "ROLLBACK")

	if err := <-done; err != nil {
		t.Fatalf("parked writer should be rescued and commit, got %v", err)
	}
	st := db.Stats()
	if st.RowWaitRescues < 1 {
		t.Errorf("RowWaitRescues = %d, want >= 1", st.RowWaitRescues)
	}
	if st.TxnConflicts != 0 {
		t.Errorf("TxnConflicts = %d, want 0", st.TxnConflicts)
	}
	rows := mustQuery(t, db, "SELECT bal FROM acct WHERE k = 0")
	if rows.Data[0][0].Int != 107 {
		t.Errorf("bal(0) = %d, want 107", rows.Data[0][0].Int)
	}
}

// TestInstaAbortControl: with waiting disabled (ConflictWait < 0) the
// same collision is an immediate first-updater-wins conflict — the
// pre-bounded-wait behavior stays available and classified.
func TestInstaAbortControl(t *testing.T) {
	db := newTxnDB(t, Config{ConflictWait: -1}, 4)
	s1, s2 := db.Session(), db.Session()
	defer s1.Close()
	defer s2.Close()

	sessExec(t, s1, "BEGIN")
	sessExec(t, s1, "UPDATE acct SET bal = 0 WHERE k = 0")
	sessExec(t, s2, "BEGIN")
	_, err := s2.Exec("UPDATE acct SET bal = 1 WHERE k = 0")
	if !errors.Is(err, mvcc.ErrWriteConflict) {
		t.Fatalf("want immediate ErrWriteConflict, got %v", err)
	}
	st := db.Stats()
	if st.ImmediateConflicts < 1 {
		t.Errorf("ImmediateConflicts = %d, want >= 1", st.ImmediateConflicts)
	}
	if st.RowWaits != 0 || st.AdmissionWaits != 0 {
		t.Errorf("RowWaits = %d, AdmissionWaits = %d, want 0/0 (waiting disabled)", st.RowWaits, st.AdmissionWaits)
	}
	sessExec(t, s1, "ROLLBACK")
	sessExec(t, s2, "ROLLBACK") // clears the conflict-aborted state
}

// TestMultiTableWriteStressNoDeadlock hammers three tables from eight
// sessions, each transaction writing the tables in a random order — the
// classic lock-ordering deadlock shape. The admission gates and row
// waits are all bounded (forced admission, wait-then-abort), so the
// system must drain; a 60s watchdog catches any stall. Outcome
// accounting must balance exactly.
func TestMultiTableWriteStressNoDeadlock(t *testing.T) {
	const (
		sessions = 8
		txns     = 40
		keys     = 8
	)
	db := Open(Config{ConflictWait: time.Millisecond})
	tables := []string{"t0", "t1", "t2"}
	for _, tb := range tables {
		mustExec(t, db, "CREATE TABLE "+tb+" (k INTEGER NOT NULL, bal INTEGER)")
		mustExec(t, db, "CREATE UNIQUE INDEX "+tb+"_pk ON "+tb+" (k)")
		for k := 0; k < keys; k++ {
			mustExec(t, db, "INSERT INTO "+tb+" VALUES (?, 100)", types.NewInt(int64(k)))
		}
	}

	finished := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				sess := db.Session()
				defer sess.Close()
				rng := rand.New(rand.NewSource(int64(1000 + s)))
				for i := 0; i < txns; i++ {
					if _, err := sess.Exec("BEGIN"); err != nil {
						t.Errorf("session %d: BEGIN: %v", s, err)
						return
					}
					order := rng.Perm(len(tables))
					ok := true
					for _, ti := range order {
						k := types.NewInt(int64(rng.Intn(keys)))
						if _, err := sess.Exec("UPDATE "+tables[ti]+" SET bal = bal + 1 WHERE k = ?", k); err != nil {
							if !errors.Is(err, mvcc.ErrWriteConflict) {
								t.Errorf("session %d: unexpected error %v", s, err)
								return
							}
							ok = false
							break
						}
					}
					var err error
					if ok {
						_, err = sess.Exec("COMMIT")
					} else {
						_, err = sess.Exec("ROLLBACK")
					}
					if err != nil {
						t.Errorf("session %d: finish: %v", s, err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		close(finished)
	}()

	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("stress did not drain within 60s: possible deadlock in admission gates / row waits / latches")
	}
	// Each seeding INSERT was a transaction of one statement.
	st := db.Stats()
	if want := int64(sessions*txns + len(tables)*keys); st.TxnBegins != want {
		t.Errorf("TxnBegins = %d, want %d", st.TxnBegins, want)
	}
	if st.TxnCommits+st.TxnAborts != st.TxnBegins {
		t.Errorf("commits(%d) + aborts(%d) != begins(%d): a transaction leaked",
			st.TxnCommits, st.TxnAborts, st.TxnBegins)
	}
	if st.TxnConflicts > st.TxnAborts {
		t.Errorf("TxnConflicts = %d > TxnAborts = %d", st.TxnConflicts, st.TxnAborts)
	}
}

// runHotKeyLoop drives sessions over a tiny hot key set and reports
// (commits, conflicts) — the shape of the BENCH_5 workload, compressed.
func runHotKeyLoop(t *testing.T, db *DB, sessions, txns, stmts, keys int) (int64, int64) {
	t.Helper()
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess := db.Session()
			defer sess.Close()
			rng := rand.New(rand.NewSource(int64(7 + s)))
			for i := 0; i < txns; i++ {
				if _, err := sess.Exec("BEGIN"); err != nil {
					t.Error(err)
					return
				}
				ok := true
				for j := 0; j < stmts; j++ {
					k := types.NewInt(int64(rng.Intn(keys)))
					if _, err := sess.Exec("UPDATE acct SET bal = bal + 1 WHERE k = ?", k); err != nil {
						if !errors.Is(err, mvcc.ErrWriteConflict) {
							t.Error(err)
							return
						}
						ok = false
						break
					}
				}
				var err error
				if ok {
					_, err = sess.Exec("COMMIT")
				} else {
					_, err = sess.Exec("ROLLBACK")
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	st := db.Stats()
	return st.TxnCommits, st.TxnConflicts
}

// TestBoundedWaitConvertsAbortsToCommits compares the hot-key workload
// with bounded waiting on (default) and off (insta-abort). Scheduling
// on small machines can make either run near-serial, so the assertions
// are guarded: whenever the insta-abort run actually suffered
// conflicts, the bounded-wait run must commit at least as much and
// conflict no more.
func TestBoundedWaitConvertsAbortsToCommits(t *testing.T) {
	const sessions, txns, stmts, keys = 16, 50, 3, 4

	wait := newTxnDB(t, Config{}, keys)
	waitCommits, waitConflicts := runHotKeyLoop(t, wait, sessions, txns, stmts, keys)

	insta := newTxnDB(t, Config{ConflictWait: -1}, keys)
	instaCommits, instaConflicts := runHotKeyLoop(t, insta, sessions, txns, stmts, keys)

	t.Logf("bounded wait: %d commits, %d conflicts; insta-abort: %d commits, %d conflicts",
		waitCommits, waitConflicts, instaCommits, instaConflicts)
	if instaConflicts == 0 {
		t.Skip("insta-abort run saw no contention on this scheduler; nothing to compare")
	}
	if waitCommits < instaCommits {
		t.Errorf("bounded wait committed less than insta-abort: %d < %d", waitCommits, instaCommits)
	}
	if waitConflicts > instaConflicts {
		t.Errorf("bounded wait conflicted more than insta-abort: %d > %d", waitConflicts, instaConflicts)
	}
}
