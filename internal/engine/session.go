package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/mvcc"
	"repro/internal/sql"
	"repro/internal/types"
	"repro/internal/wal"
)

// Session errors.
var (
	// ErrNoTxn: COMMIT/ROLLBACK/SAVEPOINT outside a transaction.
	ErrNoTxn = errors.New("engine: no transaction is open")
	// ErrTxnOpen: BEGIN inside a transaction (nesting is not supported).
	ErrTxnOpen = errors.New("engine: a transaction is already open")
	// ErrTxnAborted: the transaction hit a write-write conflict and was
	// rolled back; only COMMIT (which fails) or ROLLBACK clear the state.
	ErrTxnAborted = errors.New("engine: transaction aborted by write-write conflict; issue ROLLBACK")
	// ErrNoSavepoint: ROLLBACK TO an unknown savepoint name.
	ErrNoSavepoint = errors.New("engine: no such savepoint")
	// ErrSessionClosed: a statement arrived after Close. The server's
	// disconnect path closes sessions whose connection died; a worker
	// goroutine still holding the handle gets this instead of silently
	// writing into a rolled-back transaction.
	ErrSessionClosed = errors.New("engine: session is closed")
)

// Session is a connection-like handle offering interactive
// multi-statement transactions over a DB: BEGIN starts a snapshot,
// statements inside it read that snapshot (snapshot isolation) and
// write under first-updater-wins conflict detection, COMMIT makes the
// whole group durable atomically, ROLLBACK (or a conflict) undoes it
// entirely, and SAVEPOINT/ROLLBACK TO give partial undo inside the
// group. Outside a transaction a Session behaves exactly like DB.Exec
// / DB.Query (statement autocommit).
//
// A Session is a single logical connection: open one Session per
// worker and run its statements from one goroutine at a time.
// Statements and Close are internally serialized, so Close MAY be
// called from another goroutine — even while a statement is in flight —
// and waits for the statement, then rolls back any open transaction,
// releases held write-admission tokens, and unpins the snapshot. That
// is the network server's abrupt-disconnect path: the connection
// goroutine dies, and whoever reaps the session gets a full cleanup no
// matter what was mid-flight. Different Sessions of the same DB are
// safe to use concurrently.
type Session struct {
	db *DB

	// mu serializes statements with each other and with Close; closed
	// fails all further statements with ErrSessionClosed.
	mu     sync.Mutex
	closed bool

	tx      *mvcc.Txn        // nil outside a transaction
	scope   *wal.Scope       // lazily begun at the first write/savepoint
	undo    *catalog.UndoLog // one shared log; statements/savepoints are marks
	saves   []savepoint
	written map[string]*catalog.Table // by lowercased name
	aborted bool                      // conflict rolled the transaction back

	// gates records the write-admission gates this transaction passed,
	// by lowercased table name: a non-nil value is a held token to
	// release at transaction end, nil marks a forced admission (tried,
	// not held — never re-queued this transaction).
	gates map[string]*writeGate
	// lost names the gates a transaction a conflict aborted had passed,
	// for Atomic to pass first when it runs the statements again.
	lost []string
}

type savepoint struct {
	name string // lowercased
	mark int
}

// Session opens a new session on the database.
func (db *DB) Session() *Session {
	return &Session{db: db}
}

// InTxn reports whether a transaction is open (including the aborted
// state after a conflict, which still needs its ROLLBACK).
func (s *Session) InTxn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tx != nil || s.aborted
}

// Closed reports whether Close has run.
func (s *Session) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close rolls back any open transaction and releases the session.
// Safe to call concurrently with an in-flight statement (it waits for
// the statement, then cleans up) and idempotent: the first call wins,
// later ones return nil. After Close every statement fails with
// ErrSessionClosed.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.aborted {
		// The conflict already rolled everything back; just clear the
		// protocol state.
		s.aborted = false
		return nil
	}
	if s.tx == nil {
		return nil
	}
	_, err := s.rollback()
	return err
}

// Exec runs any statement in this session, including transaction
// control (BEGIN/COMMIT/ROLLBACK/SAVEPOINT). SELECT results are
// drained and counted, not materialized — use Query for rows.
func (s *Session) Exec(query string, params ...types.Value) (Result, error) {
	st, err := sql.Parse(query)
	if err != nil {
		return Result{}, err
	}
	return s.ExecStmt(st, query, params...)
}

// ExecStmt is Exec for a pre-parsed statement; key is the plan-cache
// key ("" to derive it from the statement).
func (s *Session) ExecStmt(st sql.Statement, key string, params ...types.Value) (Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Result{}, ErrSessionClosed
	}
	return s.execStmtLocked(st, key, params...)
}

func (s *Session) execStmtLocked(st sql.Statement, key string, params ...types.Value) (Result, error) {
	switch st := st.(type) {
	case *sql.BeginStmt:
		return s.begin()
	case *sql.CommitStmt:
		return s.commit()
	case *sql.RollbackStmt:
		if st.To != "" {
			return s.rollbackTo(st.To)
		}
		return s.rollback()
	case *sql.SavepointStmt:
		return s.savepoint(st.Name)
	}
	if s.aborted {
		return Result{}, ErrTxnAborted
	}
	if s.tx == nil {
		// Statement autocommit: the DB paths, where a write is a
		// transaction of one statement on a session of the DB's.
		return s.db.ExecStmt(st, key, params...)
	}
	switch st := st.(type) {
	case *sql.SelectStmt:
		_, err := s.db.runSelect(st, key, params, s.tx, false)
		return Result{}, err
	case *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
		return s.dml(st, key, params)
	default:
		return Result{}, fmt.Errorf("engine: %T not allowed inside a transaction (DDL needs COMMIT first)", st)
	}
}

// Query runs a SELECT in this session; inside a transaction it reads
// the transaction's snapshot.
func (s *Session) Query(query string, params ...types.Value) (*Rows, error) {
	st, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("engine: Query needs a SELECT, got %T", st)
	}
	return s.QueryStmt(sel, query, params...)
}

// QueryStmt is Query for a pre-parsed SELECT; key is the plan-cache
// key ("" to derive it from the statement).
func (s *Session) QueryStmt(sel *sql.SelectStmt, key string, params ...types.Value) (*Rows, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	if s.aborted {
		return nil, ErrTxnAborted
	}
	return s.db.runSelect(sel, key, params, s.tx, true)
}

// --- transaction control -----------------------------------------------------

func (s *Session) begin() (Result, error) {
	if s.aborted {
		return Result{}, ErrTxnAborted
	}
	if s.tx != nil {
		return Result{}, ErrTxnOpen
	}
	db := s.db
	// Register under the DDL lock (shared): execDDL's open-transaction
	// gate checks the registry under the exclusive side, so a BEGIN
	// either completes before the DDL looks, or waits until it is done.
	db.ddlMu.RLock()
	s.tx = db.txns.BeginLazy()
	db.ddlMu.RUnlock()
	db.txnBegins.Add(1)
	if s.undo == nil { // the session's first transaction; reset keeps both
		s.undo = &catalog.UndoLog{}
		s.written = make(map[string]*catalog.Table)
	}
	return Result{}, nil
}

func (s *Session) commit() (Result, error) {
	if s.aborted {
		// The transaction is already gone; COMMIT clears the state but
		// reports that nothing was committed.
		s.aborted = false
		return Result{}, ErrTxnAborted
	}
	if s.tx == nil {
		return Result{}, ErrNoTxn
	}
	db := s.db
	var res Result
	var cerr error
	if s.scope != nil {
		// Durability before visibility, pipelined: reserve the commit
		// timestamp first — a counter increment, fixing this commit's
		// order relative to every other — then run the log sync outside
		// the clock's critical section. Concurrent committers reserve
		// their own timestamps and append behind us while our sync is in
		// flight, and one shared group-commit fsync publishes the whole
		// batch in reservation order. The writes stay invisible (the
		// reserved timestamp is unpublished) until MarkDurable below.
		res.StmtID = s.scope.ID()
		db.txns.ReserveCommit(s.tx)
		cerr = s.scope.Commit()
	}
	if cerr != nil {
		// Withdraw the reservation before undoing: waiters must go back
		// to treating this transaction as an aborting holder, and the
		// pipeline behind it must not stall on our dead slot.
		db.txns.ResolveAbort(s.tx)
		// The commit record is not durable, so the writes must not be
		// published: stamping a commit timestamp would show them as
		// committed to every later snapshot while the client holds a
		// commit error — and a crash would then silently discard them.
		// The undo log is still intact at this point: roll the whole
		// transaction back and abort its snapshot, so memory matches
		// what recovery would rebuild. (One ambiguity remains: a torn
		// sync can land the commit record durably even though Commit
		// reported failure; recovery then resurrects the transaction.
		// The error therefore means "not committed here", with the
		// durable log the final authority after a crash.)
		rbErr := s.undoLocked(0)
		s.scope.Abort() // best effort; a no-op once the log is down
		s.tx.Abort()
		db.txnAborts.Add(1)
		s.reset()
		if rbErr != nil {
			return res, fmt.Errorf("%w; rollback after failed commit also failed: %v", cerr, rbErr)
		}
		return res, fmt.Errorf("%w (transaction rolled back, nothing committed)", cerr)
	}
	if s.scope != nil {
		// The commit record is durable; publish the timestamp (in
		// reservation order — this may briefly wait for an earlier
		// reservation whose sync is still in flight).
		db.txns.MarkDurable(s.tx)
	} else {
		// Read-only transaction: nothing was logged or synced, commit
		// synchronously.
		s.tx.Commit()
	}
	s.reset()
	db.txnCommits.Add(1)
	db.maybeCheckpoint()
	return res, nil
}

func (s *Session) rollback() (Result, error) {
	if s.aborted {
		s.aborted = false
		return Result{}, nil
	}
	if s.tx == nil {
		return Result{}, ErrNoTxn
	}
	err := s.rollbackAll()
	s.db.txnAborts.Add(1)
	s.reset()
	if err == nil {
		s.db.maybeCheckpoint()
	}
	return Result{}, err
}

func (s *Session) savepoint(name string) (Result, error) {
	if s.db.readOnly.Load() {
		// A savepoint would open a WAL scope, and a replica's log only
		// ever mirrors the primary's stream — it never self-appends.
		return Result{}, ErrReadOnlyReplica
	}
	if s.aborted {
		return Result{}, ErrTxnAborted
	}
	if s.tx == nil {
		return Result{}, ErrNoTxn
	}
	if err := s.ensureScope(); err != nil {
		return Result{}, err
	}
	if err := s.scope.Savepoint(name); err != nil {
		return Result{}, err
	}
	s.saves = append(s.saves, savepoint{name: strings.ToLower(name), mark: s.undo.Mark()})
	return Result{}, nil
}

func (s *Session) rollbackTo(name string) (Result, error) {
	if s.aborted {
		return Result{}, ErrTxnAborted
	}
	if s.tx == nil {
		return Result{}, ErrNoTxn
	}
	want := strings.ToLower(name)
	found := -1
	for i := len(s.saves) - 1; i >= 0; i-- {
		if s.saves[i].name == want {
			found = i
			break
		}
	}
	if found < 0 {
		return Result{}, fmt.Errorf("%w: %s", ErrNoSavepoint, name)
	}
	sp := s.saves[found]
	// Savepoints established after the named one are destroyed; the
	// named one survives and can be rolled back to again.
	s.saves = s.saves[:found+1]
	err := s.undoLocked(sp.mark)
	return Result{}, err
}

// atomicAttempts bounds how often Atomic runs its statements: a
// write-write conflict aborts an attempt, and the next one starts from a
// snapshot that holds the winner's commit.
const atomicAttempts = 8

// Atomic runs fn in an implicit transaction (Session.Atomic) on a
// session the database recycles: a caller without a session of its own
// pays for none, and an autocommit write (DB.ExecStmt) is such a
// transaction of one statement. A session goes back only when no
// transaction is left open on it.
func (db *DB) Atomic(fn func(*Session) error) error {
	s, _ := db.sessions.Get().(*Session)
	if s == nil {
		s = db.Session()
	}
	err := s.Atomic(fn)
	if !s.InTxn() {
		db.sessions.Put(s)
	}
	return err
}

// Atomic runs fn(s), statements on s, as one transaction when s has none
// open: it commits what fn wrote, or rolls all of it back when fn fails.
// The transaction is the caller's, not the client's, so a write-write
// conflict is no error of the client's: the attempt is rolled back and
// fn runs again, up to atomicAttempts times. Structural DDL waits for a
// running Atomic transaction instead of refusing it. Inside an open
// transaction fn runs in it, as any statement does. fn must not start
// another Atomic transaction, nor write through DB.Exec, which is one: a
// second atomicMu.RLock deadlocks behind a DDL waiting for the first.
func (s *Session) Atomic(fn func(*Session) error) error {
	if s.InTxn() {
		return fn(s)
	}
	s.db.atomicMu.RLock()
	defer s.db.atomicMu.RUnlock()
	var contended []string
	for attempt := 1; ; attempt++ {
		if _, err := s.ExecStmt(&sql.BeginStmt{}, ""); err != nil {
			return err
		}
		s.admitFirst(contended)
		err := fn(s)
		if err == nil {
			_, err = s.ExecStmt(&sql.CommitStmt{}, "")
			return err
		}
		if _, rbErr := s.ExecStmt(&sql.RollbackStmt{}, ""); rbErr != nil {
			return fmt.Errorf("%w (rollback: %v)", err, rbErr)
		}
		if !errors.Is(err, mvcc.ErrWriteConflict) || attempt == atomicAttempts {
			return err
		}
		contended = append(contended, s.lost...)
	}
}

// admitFirst passes the write-admission gates of tables for a
// transaction that has read nothing yet, so that its snapshot, pinned at
// its first statement, postdates their previous holders: a transaction
// that lost a write-write conflict on them runs again behind the winner
// instead of conflicting with the next one.
func (s *Session) admitFirst(tables []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range tables {
		s.admitWrite(t)
	}
}

// --- statement execution inside a transaction --------------------------------

// dml runs one DML statement under the transaction; a write-write
// conflict aborts and rolls back the whole transaction (first-updater
// wins — this session was second). A rollback that fails reports its
// own error, not the conflict: what it left behind is no outcome a
// retry may start again from.
func (s *Session) dml(st sql.Statement, key string, params []types.Value) (Result, error) {
	if s.db.readOnly.Load() {
		return Result{}, ErrReadOnlyReplica
	}
	res, err := s.dmlLocked(st, key, params)
	if err != nil && errors.Is(err, mvcc.ErrWriteConflict) {
		db := s.db
		db.txnConflicts.Add(1)
		s.lost = s.lost[:0]
		for k := range s.gates {
			s.lost = append(s.lost, k)
		}
		sort.Strings(s.lost) // one order for every retrying transaction
		rbErr := s.rollbackAll()
		db.txnAborts.Add(1)
		s.reset()
		s.aborted = true
		if rbErr != nil {
			return res, fmt.Errorf("engine: rollback after %v failed: %w", err, rbErr)
		}
		return res, fmt.Errorf("%w (transaction rolled back)", err)
	}
	return res, err
}

// dmlLocked runs one DML statement in three phases so sessions on the
// same table block each other only for the physical apply, never for
// the gather or the conflict wait:
//
//  1. Gather under SHARED latches on every table the statement's plan
//     touches (including the write target): evaluate expressions and
//     collect the snapshot-visible match set without mutating anything.
//  2. Bounded wait-then-abort on the write set, holding NO table
//     latch: park until conflicting holders resolve or the deadline
//     expires.
//  3. Apply under the write table's EXCLUSIVE latch: the write set is
//     checked again first, catching any holder that slipped in after
//     phase 2, and the mutators' own first-updater-wins checks run as
//     they write; a failed apply replays the statement's undo suffix
//     before the latch drops.
//
// Two scheduling steps precede the phases. First, the transaction's
// FIRST write to a table passes the table's soft admission gate
// (bounded park for the token, forced admission on timeout) so
// contending writers queue whole transactions instead of interleaving
// statements. Second, the transaction's snapshot is pinned (lazily, at
// its first observation — see mvcc.Manager.Pin): a transaction that
// just waited its turn at the gate thereby starts from a snapshot that
// includes the previous holder's commit instead of conflicting with it.
//
// A holder that slipped in before phase 3 sends the statement back to
// phase 1, whose phase 2 then waits for it. A statement that pinned the
// snapshot has observed nothing else through it, so when a row's holder
// commits after the pin it takes a later snapshot and runs again
// instead of conflicting: to everyone else its transaction began later.
// An autocommit write is always such a statement, so concurrent ones
// on one row queue behind each other even when admission was forced.
//
// Deadlock freedom: phase 1 acquires only shared latches in the global
// sorted order; phase 3 holds exactly one exclusive latch and acquires
// nothing else while holding it; the phase-2 wait holds no latch and
// is bounded. The bound also breaks the one cross-lock cycle left: a
// waiter holds ddlMu shared, a pending checkpoint (ddlMu exclusive)
// queues behind it and can block the holder's rollback relock — the
// timeout unwinds the waiter and the system drains. A statement runs
// again only after another transaction's write to its rows, so the
// system as a whole moves on.
func (s *Session) dmlLocked(st sql.Statement, key string, params []types.Value) (Result, error) {
	db := s.db
	// Admission before ddlMu so a parked waiter never delays DDL, and
	// before the pin so the snapshot postdates the previous holder. No
	// plan exists yet: the gate is the statement's own table name.
	switch st := st.(type) {
	case *sql.InsertStmt:
		s.admitWrite(st.Table)
	case *sql.UpdateStmt:
		s.admitWrite(st.Table)
	case *sql.DeleteStmt:
		s.admitWrite(st.Table)
	}
	first := db.txns.Pin(s.tx)
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()
	for {
		res, err := s.dmlOnce(st, key, params)
		switch {
		case errors.Is(err, errSlippedIn):
			continue
		case first && errors.Is(err, mvcc.ErrNewerCommit):
			db.txns.Repin(s.tx)
			continue
		case err != nil:
			db.noteRollback(err)
		}
		return res, err
	}
}

// errSlippedIn is dmlOnce's report of a holder that took a row of the
// write set between phases 2 and 3.
var errSlippedIn = errors.New("engine: a row of the write set was taken before the apply")

// dmlOnce runs dmlLocked's three phases once.
func (s *Session) dmlOnce(st sql.Statement, key string, params []types.Value) (Result, error) {
	db := s.db
	// Phase 1: gather. The write target is latched shared like the
	// reads — nothing is mutated yet.
	c, err := db.prepare(key, st, s.tx, false)
	if err != nil {
		return Result{}, err
	}
	pd, err := exec.PrepareDML(c.node, params, &db.execStats, s.tx)
	c.unlatch(false)
	if err != nil {
		// Nothing was applied; the failed statement still counts as a
		// (trivially clean) statement rollback, as it always has.
		return Result{}, err
	}

	// Phase 2: clear the write set, parking on holders that may still
	// release it (first-updater-wins with bounded wait-then-abort).
	t := pd.Table()
	ws := pd.WriteSet()
	if err := t.Vers.WaitCheckWrites(s.tx, ws, db.conflictWait); err != nil {
		return Result{}, fmt.Errorf("engine: update %s: %w", t.Name, err)
	}

	if err := s.ensureScope(); err != nil {
		return Result{}, err
	}
	// Record the target before applying: even a failed statement may
	// need this table relocked if the rollback of an earlier statement's
	// writes comes due, and a superset relock is harmless.
	s.written[strings.ToLower(t.Name)] = t

	// Phase 3: apply. The exclusive latch spans the statement's whole
	// physical application — heap, indexes, WAL appends — so its log
	// records stay contiguous per table exactly as under the old
	// whole-statement write lock, and the in-latch undo replay on error
	// keeps statement atomicity without other appliers interleaving.
	t.Mu.Lock()
	for _, rid := range ws {
		if t.Vers.CheckWrite(s.tx, rid) != nil {
			t.Mu.Unlock()
			return Result{}, errSlippedIn
		}
	}
	t.SetWAL(s.scope.HeapLogger(t.Name), s.scope.TreeLogger(), s.scope)
	mark := s.undo.Mark()
	n, err := exec.ApplyDML(pd, s.tx, s.undo)
	if err != nil {
		if failed, rbErr := s.undo.RollbackTo(mark); rbErr != nil {
			err = &exec.RollbackFailedError{Cause: err, RB: rbErr, Table: t.Name, Failed: failed}
		}
		n = 0
	}
	t.SetWAL(nil, nil, nil)
	t.Mu.Unlock()
	if err != nil {
		// The statement's own suffix of the undo log was replayed; the
		// transaction's earlier statements stand.
		return Result{RowsAffected: n}, err
	}
	return Result{RowsAffected: n, StmtID: s.scope.ID()}, nil
}

// admitWrite passes the transaction through table's soft admission
// gate at its first write to that table; later writes to the same
// table (held or forced) go straight through. Scheduling only — see
// writeGate.
func (s *Session) admitWrite(table string) {
	k := strings.ToLower(table)
	if _, tried := s.gates[k]; tried {
		return
	}
	db := s.db
	g := db.gateFor(k)
	held := false
	select {
	case <-g.tok:
		held = true
	default:
		if db.admissionWait > 0 {
			// Counted at park start so concurrent observers (stats
			// readers, tests) see the park while it is happening.
			db.admissionWaits.Add(1)
			start := time.Now()
			timer := time.NewTimer(db.admissionWait)
			select {
			case <-g.tok:
				held = true
			case <-timer.C:
				db.admissionTimeouts.Add(1)
			}
			timer.Stop()
			db.admissionWaitNanos.Add(time.Since(start).Nanoseconds())
		}
	}
	if s.gates == nil {
		s.gates = make(map[string]*writeGate)
	}
	if held {
		s.gates[k] = g
	} else {
		s.gates[k] = nil
	}
}

// --- internals ----------------------------------------------------------------

// ensureScope lazily begins the transaction's WAL scope at its first
// write (or savepoint), so read-only transactions never touch the log.
func (s *Session) ensureScope() error {
	if s.scope != nil {
		return nil
	}
	scope, err := s.db.log.Begin()
	if err != nil {
		return err
	}
	s.scope = scope
	return nil
}

// undoLocked relocks every table the transaction wrote (exclusively,
// in the global latch order), reinstalls the WAL loggers so
// compensations are logged under this transaction, and replays the undo
// log back to mark.
func (s *Session) undoLocked(mark int) error {
	db := s.db
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()
	// On a live log every compensation is logged under the transaction
	// so recovery replays the rollback too. Once the log is down,
	// appends would fail each undo step; the physical undo then runs
	// unlogged — the durable log holds no terminator, so recovery
	// discards the transaction wholesale, matching the undone in-memory
	// state.
	logged := s.scope != nil && !db.log.Crashed()
	keys := make([]string, 0, len(s.written))
	for k := range s.written {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t := s.written[k]
		db.lock(t, true)
		defer t.Mu.Unlock()
		if logged {
			t.SetWAL(s.scope.HeapLogger(t.Name), s.scope.TreeLogger(), s.scope)
			defer t.SetWAL(nil, nil, nil)
		}
	}
	failed, rbErr := s.undo.RollbackTo(mark)
	if rbErr != nil {
		return fmt.Errorf("engine: transaction rollback: %d undo step(s) failed: %w", failed, rbErr)
	}
	return nil
}

// rollbackAll undoes every write of the transaction, appends the abort
// record (after the compensations, so recovery replays them inside the
// terminated transaction), and releases the snapshot.
func (s *Session) rollbackAll() error {
	rbErr := s.undoLocked(0)
	if s.scope != nil {
		s.scope.Abort()
	}
	s.tx.Abort()
	return rbErr
}

// reset clears the per-transaction state. Held admission tokens are
// released HERE — after the commit published or the rollback finished —
// so the next admitted transaction's pinned snapshot sees this one's
// outcome.
func (s *Session) reset() {
	for _, g := range s.gates {
		if g != nil {
			g.release()
		}
	}
	clear(s.gates)
	s.tx = nil
	s.scope = nil
	s.undo.Discard()
	s.saves = nil
	clear(s.written)
	s.aborted = false
	// A transaction ending may have advanced the GC horizon past the
	// snapshot that blocked a schema-chain prune; wake parked backfills
	// (a cheap no-op when none are parked).
	s.db.NudgeBackfill()
}
