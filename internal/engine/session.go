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
	written map[string]string // lowercased -> original table name
	aborted bool              // conflict rolled the transaction back

	// gates records the write-admission gates this transaction passed,
	// by lowercased table name: a non-nil value is a held token to
	// release at transaction end, nil marks a forced admission (tried,
	// not held — never re-queued this transaction).
	gates map[string]*writeGate
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
		// Statement autocommit: exactly the DB paths.
		return s.db.ExecStmt(st, key, params...)
	}
	switch st := st.(type) {
	case *sql.SelectStmt:
		_, err := s.drainSelect(st, key, params)
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
	if s.tx == nil {
		return s.db.QueryStmt(sel, key, params...)
	}
	return s.querySelect(sel, key, params)
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
	s.undo = &catalog.UndoLog{}
	s.written = make(map[string]string)
	s.saves = nil
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
		// Read-only or WAL-less transaction: nothing was synced, commit
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
	if s.scope != nil {
		if err := s.scope.Savepoint(name); err != nil {
			return Result{}, err
		}
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

// --- statement execution inside a transaction --------------------------------

// dml runs one DML statement under the transaction; a write-write
// conflict aborts and rolls back the whole transaction (first-updater
// wins — this session was second).
func (s *Session) dml(st sql.Statement, key string, params []types.Value) (Result, error) {
	if s.db.readOnly.Load() {
		return Result{}, ErrReadOnlyReplica
	}
	res, err := s.dmlLocked(st, key, params)
	if err != nil && errors.Is(err, mvcc.ErrWriteConflict) {
		db := s.db
		db.txnConflicts.Add(1)
		rbErr := s.rollbackAll()
		db.txnAborts.Add(1)
		s.reset()
		s.aborted = true
		if rbErr != nil {
			return res, fmt.Errorf("%w (rollback after conflict: %v)", err, rbErr)
		}
		return res, fmt.Errorf("%w (transaction rolled back)", err)
	}
	return res, err
}

// dmlLocked runs one DML statement in three phases so sessions on the
// same table block each other only for the physical apply, never for
// the gather or the conflict wait:
//
//  1. Gather under SHARED latches on every table the statement touches
//     (including the write target): plan, evaluate expressions, and
//     collect the snapshot-visible match set without mutating anything.
//  2. Bounded wait-then-abort on the write set, holding NO table
//     latch: park until conflicting holders resolve or the deadline
//     expires.
//  3. Apply under the write table's EXCLUSIVE latch: the mutators'
//     first-updater-wins checks re-run here, catching any holder that
//     slipped in after phase 2; a failed apply replays the statement's
//     undo suffix before the latch drops.
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
// Deadlock freedom: phase 1 acquires only shared latches in the global
// sorted order; phase 3 holds exactly one exclusive latch and acquires
// nothing else while holding it; the phase-2 wait holds no latch and
// is bounded. The bound also breaks the one cross-lock cycle left: a
// waiter holds ddlMu shared, a pending checkpoint (ddlMu exclusive)
// queues behind it and can block the holder's rollback relock — the
// timeout unwinds the waiter and the system drains.
func (s *Session) dmlLocked(st sql.Statement, key string, params []types.Value) (Result, error) {
	db := s.db
	write, reads, err := dmlLockSets(st)
	if err != nil {
		return Result{}, err
	}
	// Admission before ddlMu so a parked waiter never delays DDL, and
	// before the pin so the snapshot postdates the previous holder.
	s.admitWrite(write)
	db.txns.Pin(s.tx)
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()

	// Phase 1: gather. The write target is latched shared like the
	// reads — nothing is mutated yet.
	unlock, err := db.lockTablesMulti(append(append([]string(nil), reads...), write), nil)
	if err != nil {
		return Result{}, err
	}
	c, err := db.planForTx(key, st, s.tx)
	if err != nil {
		unlock()
		return Result{}, err
	}
	pd, err := exec.PrepareDML(c.forExec(), params, &db.execStats, s.tx)
	unlock()
	if err != nil {
		// Nothing was applied; the failed statement still counts as a
		// (trivially clean) statement rollback, as it always has.
		db.noteRollback(err)
		return Result{}, err
	}

	// Phase 2: clear the write set, parking on holders that may still
	// release it (first-updater-wins with bounded wait-then-abort).
	t := pd.Table()
	if ws := pd.WriteSet(); len(ws) > 0 {
		if werr := t.Vers.WaitCheckWrites(s.tx, ws, db.conflictWait); werr != nil {
			werr = fmt.Errorf("engine: update %s: %w", t.Name, werr)
			db.noteRollback(werr)
			return Result{}, werr
		}
	}

	if err := s.ensureScope(); err != nil {
		return Result{}, err
	}
	// Record the target before applying: even a failed statement may
	// need this table relocked if the rollback of an earlier statement's
	// writes comes due, and a superset relock is harmless.
	s.written[strings.ToLower(write)] = write

	// Phase 3: apply. The exclusive latch spans the statement's whole
	// physical application — heap, indexes, WAL appends — so its log
	// records stay contiguous per table exactly as under the old
	// whole-statement write lock, and the in-latch undo replay on error
	// keeps statement atomicity without other appliers interleaving.
	t.Mu.Lock()
	if s.scope != nil {
		t.SetWAL(s.scope.HeapLogger(t.Name), s.scope.TreeLogger())
	}
	mark := s.undo.Mark()
	n, err := exec.ApplyDML(pd, s.tx, s.undo)
	if err != nil {
		if failed, rbErr := s.undo.RollbackTo(mark); rbErr != nil {
			err = &exec.RollbackFailedError{Cause: err, RB: rbErr, Table: t.Name, Failed: failed}
		}
		n = 0
	}
	if s.scope != nil {
		t.SetWAL(nil, nil)
	}
	t.Mu.Unlock()
	if err != nil {
		// The statement's own suffix of the undo log was replayed; the
		// transaction's earlier statements stand.
		db.noteRollback(err)
		return Result{RowsAffected: n}, err
	}
	res := Result{RowsAffected: n}
	if s.scope != nil {
		res.StmtID = s.scope.ID()
	}
	return res, nil
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

func (s *Session) querySelect(sel *sql.SelectStmt, key string, params []types.Value) (*Rows, error) {
	db := s.db
	db.txns.Pin(s.tx)
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()
	unlock, err := db.lockTables(collectReadTables(sel, nil), "")
	if err != nil {
		return nil, err
	}
	defer unlock()
	c, err := db.planForTx(key, sel, s.tx)
	if err != nil {
		return nil, err
	}
	return c.collect(params, &db.execStats, s.tx)
}

func (s *Session) drainSelect(sel *sql.SelectStmt, key string, params []types.Value) (int64, error) {
	db := s.db
	db.txns.Pin(s.tx)
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()
	unlock, err := db.lockTables(collectReadTables(sel, nil), "")
	if err != nil {
		return 0, err
	}
	defer unlock()
	c, err := db.planForTx(key, sel, s.tx)
	if err != nil {
		return 0, err
	}
	return c.drain(params, &db.execStats, s.tx)
}

// --- internals ----------------------------------------------------------------

// ensureScope lazily begins the transaction's WAL scope at its first
// write (or savepoint), so read-only transactions never touch the log.
func (s *Session) ensureScope() error {
	if s.db.log == nil || s.scope != nil {
		return nil
	}
	scope, err := s.db.log.Begin()
	if err != nil {
		return err
	}
	s.scope = scope
	return nil
}

// undoLocked relocks every table the transaction wrote (in the global
// lock order), reinstalls the WAL loggers so compensations are logged
// under this transaction, and replays the undo log back to mark.
func (s *Session) undoLocked(mark int) error {
	db := s.db
	var writes []string
	for _, name := range s.written {
		writes = append(writes, name)
	}
	sort.Strings(writes)
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()
	unlock, err := db.lockTablesMulti(nil, writes)
	if err != nil {
		return err
	}
	defer unlock()
	if s.scope != nil && !db.log.Crashed() {
		// On a live log every compensation is logged under the
		// transaction so recovery replays the rollback too. Once the log
		// is down, appends would fail each undo step; the physical undo
		// then runs unlogged — the durable log holds no terminator, so
		// recovery discards the transaction wholesale, matching the
		// undone in-memory state.
		for _, name := range writes {
			t, terr := db.cat.Table(name)
			if terr != nil {
				return terr
			}
			t.SetWAL(s.scope.HeapLogger(t.Name), s.scope.TreeLogger())
			defer t.SetWAL(nil, nil)
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
	s.gates = nil
	s.tx = nil
	s.scope = nil
	s.undo = nil
	s.saves = nil
	s.written = nil
	s.aborted = false
	// A transaction ending may have advanced the GC horizon past the
	// snapshot that blocked a schema-chain prune; wake parked backfills
	// (a cheap no-op when none are parked).
	s.db.NudgeBackfill()
}
