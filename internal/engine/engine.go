// Package engine is the embedded relational database the testbed and
// the schema-mapping layer run against: SQL in, rows out. It assembles
// the substrates — disk, buffer pool, catalog with meta-data budget,
// planner, executor — and provides two transaction postures. Ad-hoc
// Exec/Query statements autocommit under statement-level table locks,
// matching the paper's testbed default (§4.2: single-request
// transactions). A Session additionally offers interactive
// multi-statement transactions (BEGIN/COMMIT/ROLLBACK, SAVEPOINT) with
// snapshot-isolation reads via row versioning and first-updater-wins
// write-write conflict detection.
package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/mvcc"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

// Config parameterizes a database instance.
type Config struct {
	// MemoryBytes is the machine memory budget shared by table
	// meta-data and the buffer pool. Default 64 MiB.
	MemoryBytes int64
	// PageSize in bytes. Default 8192, the paper's setting.
	PageSize int
	// MetaBytesPerTable is the per-table meta-data tax. Default 4096,
	// the DB2 V9.1 figure quoted in §1.1.
	MetaBytesPerTable int64
	// ReadLatency is the simulated I/O cost of a buffer-pool miss.
	ReadLatency time.Duration
	// Optimizer selects the planner capability level (§6.2 Test 1).
	Optimizer plan.Mode
	// InsertMode selects the heap placement policy (§5 insert anomaly).
	InsertMode storage.InsertMode
	// PlanCacheSize bounds the engine plan cache in statements; ad-hoc
	// Exec/Query reuse compiled plans keyed by (statement text, catalog
	// version). 0 means the default (512).
	PlanCacheSize int
	// DisableWAL turns off write-ahead logging; statements then have no
	// durability and Crash/Recover are unavailable.
	DisableWAL bool
	// NoGroupCommit makes every commit issue its own log sync instead of
	// piggybacking on a concurrent leader's (the durability baseline).
	NoGroupCommit bool
	// SyncLatency is the simulated cost of one log sync.
	SyncLatency time.Duration
	// CheckpointBytes triggers an automatic fuzzy checkpoint once that
	// much log has accumulated since the last one. 0 means the default
	// (4 MiB); negative disables automatic checkpoints.
	CheckpointBytes int64
	// ConflictWait bounds how long a session DML statement parks for a
	// conflicting write holder to commit or roll back before the
	// statement aborts (bounded wait-then-abort). 0 means the default
	// (2ms); negative disables waiting entirely — classic insta-abort
	// first-updater-wins.
	ConflictWait time.Duration
}

// defaultConflictWait is the bounded wait-then-abort deadline when
// Config.ConflictWait is zero.
const defaultConflictWait = 2 * time.Millisecond

// admissionWaitFactor scales the row-conflict wait deadline up to the
// write-admission deadline: admission is a transaction-scoped courtesy
// queue, so it affords a longer (but still bounded) park than the
// per-statement row wait.
const admissionWaitFactor = 10

// resolveConflictWait maps the Config encoding (0 default, negative
// disabled) to the internal one (0 disabled). Config itself is never
// mutated: Recover re-resolves the original value.
func resolveConflictWait(d time.Duration) time.Duration {
	switch {
	case d == 0:
		return defaultConflictWait
	case d < 0:
		return 0
	}
	return d
}

// Result reports the outcome of a non-query statement.
type Result struct {
	RowsAffected int64
	// StmtID is the statement's WAL identity (0 when WAL is disabled or
	// the statement was a query).
	StmtID uint64
}

// Rows is a fully materialized query result.
type Rows struct {
	Columns []string
	Data    [][]types.Value
}

// DB is a database handle, safe for concurrent use.
type DB struct {
	cfg     Config
	disk    *storage.Disk
	pool    *storage.BufferPool
	cat     *catalog.Catalog
	planner *plan.Planner
	plans   *planCache
	log     *wal.Log      // nil when WAL is disabled
	txns    *mvcc.Manager // transaction registry and commit clock

	// conflictWait is the resolved bounded wait-then-abort deadline
	// (0 = waiting disabled); admissionWait is the write-admission
	// deadline derived from it (admissionWaitFactor ×).
	conflictWait  time.Duration
	admissionWait time.Duration

	// gates holds the per-table soft write-admission gates, created on
	// first use and keyed by lowercased table name. A gate outliving its
	// table (DROP) is harmless: it is scheduling state only.
	gateMu sync.Mutex
	gates  map[string]*writeGate

	// admissionWaits/admissionWaitNanos count transactions that parked
	// at a write-admission gate and their total parked time;
	// admissionTimeouts count parks that expired into forced admission.
	admissionWaits     atomic.Int64
	admissionWaitNanos atomic.Int64
	admissionTimeouts  atomic.Int64

	// lockWaits/lockWaitNanos count table-latch acquisitions that had
	// to block and their total blocked time.
	lockWaits     atomic.Int64
	lockWaitNanos atomic.Int64

	// recoveries and replayedRecs carry recovery lineage: how many times
	// this database has been rebuilt from its log, and how many redo
	// records those recoveries applied in total.
	recoveries   int64
	replayedRecs int64

	// readOnly marks this instance a replica: statements that would write
	// (DML, DDL, online ALTER, session writes) fail with
	// ErrReadOnlyReplica; the streaming applier mutates through the
	// physical replay path instead.
	readOnly atomic.Bool

	// Replication telemetry. On a primary the shipper maintains
	// replShippedLSN (stream offset shipped to the furthest subscriber),
	// replAckedLSN (highest subscriber-confirmed applied LSN), and
	// replAckRounds. On a replica the applier maintains replAppliedLSN
	// (frame end of the last applied record) and replAppliedCommitLSN
	// (LSN of the last applied commit — the snapshot horizon follower
	// reads are pinned at).
	replShippedLSN       atomic.Uint64
	replAckedLSN         atomic.Uint64
	replAckRounds        atomic.Int64
	replAppliedLSN       atomic.Uint64
	replAppliedCommitLSN atomic.Uint64

	// stmtRollbacks counts DML statements that failed and had their
	// partial effects rolled back cleanly (statement-level atomicity);
	// stmtRollbackFailures counts statements whose undo replay itself
	// failed partway, leaving the table possibly inconsistent. A failed
	// statement lands in exactly one of the two.
	stmtRollbacks        atomic.Int64
	stmtRollbackFailures atomic.Int64

	// Interactive transaction outcomes (Session commits/rollbacks and
	// first-updater-wins conflict aborts).
	txnBegins    atomic.Int64
	txnCommits   atomic.Int64
	txnAborts    atomic.Int64
	txnConflicts atomic.Int64

	// execStats aggregates executor counters (rows/batches scanned,
	// column values decoded vs skipped by pruning) across statements.
	execStats exec.Stats

	// backfillOnce/backfillState lazily create the background schema
	// backfiller that migrates cold rows after an online ALTER (see
	// backfill.go).
	backfillOnce  sync.Once
	backfillState *backfiller

	// ddlMu serializes structural DDL (CREATE/DROP TABLE and INDEX)
	// against all other statements; DML, queries, and online ALTERs hold
	// it shared.
	ddlMu sync.RWMutex
}

// Open creates an empty database.
func Open(cfg Config) *DB {
	if cfg.MemoryBytes == 0 {
		cfg.MemoryBytes = 64 << 20
	}
	if cfg.CheckpointBytes == 0 {
		cfg.CheckpointBytes = 4 << 20
	}
	disk := storage.NewDisk(cfg.PageSize)
	disk.ReadLatency = cfg.ReadLatency
	pool := storage.NewBufferPool(disk, cfg.MemoryBytes)
	txns := mvcc.NewManager()
	cat := catalog.New(pool, catalog.Config{
		MemoryBytes:       cfg.MemoryBytes,
		MetaBytesPerTable: cfg.MetaBytesPerTable,
		InsertMode:        cfg.InsertMode,
		Versions:          txns,
	})
	var log *wal.Log
	if !cfg.DisableWAL {
		log = wal.New(wal.Config{
			SyncLatency:   cfg.SyncLatency,
			NoGroupCommit: cfg.NoGroupCommit,
		})
		log.AttachPool(pool)
		pool.SetWALGate(log)
	}
	return newDB(cfg, disk, pool, cat, log, txns)
}

// newDB assembles a DB over storage Open just created or recovery just
// rebuilt.
func newDB(cfg Config, disk *storage.Disk, pool *storage.BufferPool, cat *catalog.Catalog, log *wal.Log, txns *mvcc.Manager) *DB {
	cw := resolveConflictWait(cfg.ConflictWait)
	return &DB{
		cfg:           cfg,
		disk:          disk,
		pool:          pool,
		cat:           cat,
		planner:       plan.New(cat, cfg.Optimizer),
		plans:         newPlanCache(cfg.PlanCacheSize),
		log:           log,
		txns:          txns,
		conflictWait:  cw,
		admissionWait: cw * admissionWaitFactor,
		gates:         make(map[string]*writeGate),
	}
}

// Catalog exposes the catalog (examples and the mapping layer use it
// for direct schema inspection).
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Exec runs any statement and reports rows affected (0 for DDL and
// queries; use Query for result sets). The raw statement text keys the
// plan cache, so repeated ad-hoc statements skip replanning.
func (db *DB) Exec(query string, params ...types.Value) (Result, error) {
	st, err := sql.Parse(query)
	if err != nil {
		return Result{}, err
	}
	return db.ExecStmt(st, query, params...)
}

// ExecStmt is Exec for a pre-parsed statement; key is the plan-cache
// key, or "" to derive it from the statement's printed form (callers
// that hold the text, or rendered it once, pass it to skip re-rendering).
func (db *DB) ExecStmt(st sql.Statement, key string, params ...types.Value) (Result, error) {
	switch st := st.(type) {
	case *sql.CreateTableStmt, *sql.CreateIndexStmt, *sql.DropTableStmt,
		*sql.DropIndexStmt:
		err := db.execDDL(st)
		if err == nil {
			db.maybeCheckpoint()
		}
		return Result{}, err
	case *sql.AlterAddColumnStmt, *sql.AlterDropColumnStmt, *sql.AlterColumnTypeStmt:
		err := db.execAlterOnline(st)
		if err == nil {
			db.maybeCheckpoint()
		}
		return Result{}, err
	case *sql.SelectStmt:
		return db.execSelect(st, key, params)
	case *sql.BeginStmt, *sql.CommitStmt, *sql.RollbackStmt, *sql.SavepointStmt:
		return Result{}, fmt.Errorf("engine: %s requires a Session (DB.Exec statements autocommit)", st)
	default:
		res, err := db.execDML(st, key, params)
		if err == nil {
			db.maybeCheckpoint()
		}
		return res, err
	}
}

// readerTxn begins an ephemeral snapshot for an autocommit read when
// interactive transactions are active; release undoes it. With none
// active — the common case — reads run on the plain path at zero cost,
// which is correct: the caller already holds its tables' locks, so
// every version chain it could meet has a committed newest writer and
// the physical rows are exactly the latest committed state.
func (db *DB) readerTxn() (tx *mvcc.Txn, release func()) {
	if db.txns.ActiveCount() == 0 {
		return nil, func() {}
	}
	tx = db.txns.Begin()
	// A pure reader records no writes; aborting deregisters it without
	// spending a commit timestamp.
	return tx, tx.Abort
}

// writerTxn begins an ephemeral transaction for an autocommit DML
// statement when interactive transactions are active: concurrent
// snapshots require the statement's writes to be versioned (pre-images
// recorded) and stamped with a commit timestamp. With none active the
// statement runs unversioned — no snapshot exists that must not see
// it, its commit can be serialized before any transaction that begins
// later, and the table write lock it holds keeps the race window
// closed (a transaction writing the same table would register itself
// before our check).
func (db *DB) writerTxn() *mvcc.Txn {
	if db.txns.ActiveCount() == 0 {
		return nil
	}
	return db.txns.Begin()
}

// noteRollback classifies a failed DML statement's rollback: clean
// (all undo steps applied; the table is back in its pre-statement
// state) or failed partway (exec.RollbackFailedError; the table may be
// inconsistent).
func (db *DB) noteRollback(err error) {
	var rf *exec.RollbackFailedError
	if errors.As(err, &rf) {
		db.stmtRollbackFailures.Add(1)
		return
	}
	db.stmtRollbacks.Add(1)
}

// Query runs a SELECT and returns all rows.
func (db *DB) Query(query string, params ...types.Value) (*Rows, error) {
	st, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("engine: Query needs a SELECT, got %T", st)
	}
	return db.QueryStmt(sel, query, params...)
}

// QueryStmt is Query for a pre-parsed SELECT; key is as for ExecStmt.
func (db *DB) QueryStmt(sel *sql.SelectStmt, key string, params ...types.Value) (*Rows, error) {
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()
	reads := collectReadTables(sel, nil)
	unlock, err := db.lockTables(reads, "")
	if err != nil {
		return nil, err
	}
	defer unlock()
	c, err := db.planFor(key, sel)
	if err != nil {
		return nil, err
	}
	tx, release := db.readerTxn()
	defer release()
	return c.collect(params, &db.execStats, tx)
}

// execSelect runs a SELECT whose result nobody reads (Exec on a
// SELECT): rows are streamed and discarded, never materialized.
func (db *DB) execSelect(sel *sql.SelectStmt, key string, params []types.Value) (Result, error) {
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()
	reads := collectReadTables(sel, nil)
	unlock, err := db.lockTables(reads, "")
	if err != nil {
		return Result{}, err
	}
	defer unlock()
	c, err := db.planFor(key, sel)
	if err != nil {
		return Result{}, err
	}
	tx, release := db.readerTxn()
	defer release()
	_, err = c.drain(params, &db.execStats, tx)
	return Result{}, err
}

// planFor returns the compiled statement for st through the plan cache.
// key is the statement's SQL text ("" means render it from the AST);
// the catalog version completes the cache key, so on-line schema
// changes invalidate stale plans. Callers hold ddlMu shared, which keeps
// the version stable across lookup and build — and means at most one
// build runs per AST object (the in-flight table), which matters
// because the optimizer rewrites the AST in place.
func (db *DB) planFor(key string, st sql.Statement) (*compiled, error) {
	if key == "" {
		key = st.String()
	}
	return db.plans.get(planKey{text: key, version: db.cat.Version()}, func() (plan.Node, error) {
		return db.planner.PlanStatement(st)
	})
}

// Explain plans a statement and renders the operator tree.
func (db *DB) Explain(query string, params ...types.Value) (string, error) {
	st, err := sql.Parse(query)
	if err != nil {
		return "", err
	}
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()
	p, err := db.planner.PlanStatement(st)
	if err != nil {
		return "", err
	}
	return plan.Explain(p), nil
}

// dmlLockSets derives a DML statement's lock sets: the written table
// and the tables its WHERE clause reads.
func dmlLockSets(st sql.Statement) (write string, reads []string, err error) {
	switch st := st.(type) {
	case *sql.InsertStmt:
		write = st.Table
	case *sql.UpdateStmt:
		write = st.Table
		reads = collectExprTables(st.Where, nil)
	case *sql.DeleteStmt:
		write = st.Table
		reads = collectExprTables(st.Where, nil)
	default:
		err = fmt.Errorf("engine: unsupported statement %T", st)
	}
	return write, reads, err
}

// execDML runs one autocommit DML statement. The caller's parsed
// statement becomes its own one-statement transaction: a WAL scope
// committed (durably) at the end, and — when interactive transactions
// are concurrently active — an ephemeral mvcc transaction so the
// statement's writes are versioned and stamped.
func (db *DB) execDML(st sql.Statement, key string, params []types.Value) (Result, error) {
	if db.readOnly.Load() {
		return Result{}, ErrReadOnlyReplica
	}
	write, reads, err := dmlLockSets(st)
	if err != nil {
		return Result{}, err
	}
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()
	unlock, err := db.lockTables(reads, write)
	if err != nil {
		return Result{}, err
	}
	defer unlock()
	c, err := db.planFor(key, st)
	if err != nil {
		return Result{}, err
	}
	p := c.forExec()
	var scope *wal.Scope
	var tbl *catalog.Table
	if db.log != nil {
		scope, err = db.log.Begin()
		if err != nil {
			return Result{}, err
		}
		tbl, err = db.cat.Table(write)
		if err != nil {
			scope.Abort()
			return Result{}, err
		}
		// Install the statement's loggers on the target table (we hold
		// its write lock) so every page mutation — including undo
		// compensations on failure — emits a redo record under this
		// transaction's ID. Cleared before the lock is released.
		tbl.SetWAL(scope.HeapLogger(tbl.Name), scope.TreeLogger())
		defer tbl.SetWAL(nil, nil)
	}
	// Begin after the locks are held: a concurrent autocommit writer on
	// the same table is serialized by the lock, never a false conflict.
	tx := db.writerTxn()
	undo := &catalog.UndoLog{}
	n, err := exec.RunDMLTx(p, params, &db.execStats, tx, undo)
	if err != nil {
		// RunDMLTx rolled the statement's partial effects back before
		// returning (statement-level atomicity).
		db.noteRollback(err)
		if scope != nil {
			scope.Abort()
		}
		if tx != nil {
			tx.Abort()
		}
		return Result{RowsAffected: n}, err
	}
	var cerr error
	if scope != nil {
		// Durability before visibility: the commit record is on the log
		// before the commit timestamp makes the writes visible to
		// snapshots that begin afterwards.
		cerr = scope.Commit()
	}
	if cerr != nil {
		// The commit record is not durable: take the statement back out
		// (the undo log is still whole) instead of leaving writes in
		// memory that the client was told failed and that a crash would
		// silently discard. A torn sync may still have landed the commit
		// record, in which case recovery resurrects the statement — the
		// error means "not committed here", the durable log is the final
		// authority after a crash.
		if db.log.Crashed() {
			// Compensation appends would fail every undo step; revert
			// unlogged. Recovery discards the terminator-less
			// transaction wholesale, matching the undone state.
			tbl.SetWAL(nil, nil)
		}
		ferr := cerr
		if failed, rbErr := undo.RollbackTo(0); rbErr != nil {
			ferr = &exec.RollbackFailedError{Cause: cerr, RB: rbErr, Table: tbl.Name, Failed: failed}
		}
		db.noteRollback(ferr)
		scope.Abort() // best effort; a no-op once the log is down
		if tx != nil {
			tx.Abort()
		}
		return Result{StmtID: scope.ID()}, ferr
	}
	undo.Discard()
	if tx != nil {
		tx.Commit()
	}
	if scope != nil {
		return Result{RowsAffected: n, StmtID: scope.ID()}, nil
	}
	return Result{RowsAffected: n}, nil
}

func (db *DB) execDDL(st sql.Statement) error {
	if db.readOnly.Load() {
		return ErrReadOnlyReplica
	}
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	// DDL is serialized against whole transactions, not just statements:
	// an open snapshot must not watch the schema shift under it, and the
	// version stores hold row-level state no schema change knows how to
	// migrate. Sessions register their transaction under ddlMu (shared)
	// before releasing it, so the count here is authoritative.
	if n := db.txns.ActiveCount(); n > 0 {
		return fmt.Errorf("engine: DDL rejected: %d open transaction(s); COMMIT or ROLLBACK first", n)
	}
	// The catalog version bump already invalidates lookups; purging
	// releases the stale plans' memory promptly.
	defer db.plans.purge()
	var scope *wal.Scope
	if db.log != nil {
		var err error
		scope, err = db.log.Begin()
		if err != nil {
			return err
		}
	}
	ch, err := db.applyDDL(st, scope)
	if scope == nil {
		return err
	}
	if err != nil || ch == nil {
		// Failed, or an IF [NOT] EXISTS no-op: nothing durable happened.
		scope.Abort()
		return err
	}
	if err := scope.CatalogChange(ch.Encode()); err != nil {
		return err
	}
	return scope.Commit()
}

// applyDDL mutates the catalog and returns the schema change to log, or
// (nil, nil) when the statement was a no-op. With a scope, destructive
// statements defer their page frees to the scope's commit point —
// redo-only recovery cannot resurrect pages an uncommitted drop already
// destroyed.
func (db *DB) applyDDL(st sql.Statement, scope *wal.Scope) (*catalog.DDLChange, error) {
	switch st := st.(type) {
	case *sql.CreateTableStmt:
		if st.IfNotExists && db.cat.HasTable(st.Name) {
			return nil, nil
		}
		cols := make([]catalog.Column, len(st.Cols))
		for i, c := range st.Cols {
			cols[i] = catalog.Column{Name: c.Name, Type: c.Type, NotNull: c.NotNull}
		}
		if _, err := db.cat.CreateTable(st.Name, cols); err != nil {
			return nil, err
		}
		return &catalog.DDLChange{Op: catalog.OpCreateTable, Table: st.Name, Cols: cols}, nil
	case *sql.CreateIndexStmt:
		var lg btree.Logger
		if scope != nil {
			lg = scope.TreeLogger()
		}
		ix, err := db.cat.CreateIndexLogged(st.Table, st.Name, st.Columns, st.Unique, lg)
		if err != nil {
			return nil, err
		}
		// The statement is over; later statements install their own
		// loggers via SetWAL.
		ix.Tree.SetLogger(nil)
		// The payload carries the root as of backfill completion, so
		// recovery re-registers the index at its final root; mid-backfill
		// KBTreeRoot records then match nothing, which is fine.
		return &catalog.DDLChange{
			Op: catalog.OpCreateIndex, Table: st.Table, Index: st.Name,
			IndexCols: ix.Cols, Unique: st.Unique, Root: ix.Tree.Root(),
		}, nil
	case *sql.DropTableStmt:
		if st.IfExists && !db.cat.HasTable(st.Name) {
			return nil, nil
		}
		if scope == nil {
			return nil, db.cat.DropTable(st.Name)
		}
		data, index, err := db.cat.DropTableDeferred(st.Name)
		if err != nil {
			return nil, err
		}
		scope.DeferFree(storage.CatData, data...)
		scope.DeferFree(storage.CatIndex, index...)
		return &catalog.DDLChange{Op: catalog.OpDropTable, Table: st.Name}, nil
	case *sql.DropIndexStmt:
		if scope == nil {
			return nil, db.cat.DropIndex(st.Table, st.Name)
		}
		pages, err := db.cat.DropIndexDeferred(st.Table, st.Name)
		if err != nil {
			return nil, err
		}
		scope.DeferFree(storage.CatIndex, pages...)
		return &catalog.DDLChange{Op: catalog.OpDropIndex, Table: st.Table, Index: st.Name}, nil
	case *sql.AlterAddColumnStmt:
		col := catalog.Column{Name: st.Col.Name, Type: st.Col.Type, NotNull: st.Col.NotNull}
		if err := db.cat.AddColumn(st.Table, col); err != nil {
			return nil, err
		}
		return &catalog.DDLChange{
			Op: catalog.OpAddColumn, Table: st.Table, Cols: []catalog.Column{col},
		}, nil
	}
	return nil, fmt.Errorf("engine: unsupported DDL %T", st)
}

// lockTables acquires read locks on reads and a write lock on write,
// in a global order (by lowercased name) to avoid deadlocks. A table
// appearing in both gets only the write lock.
func (db *DB) lockTables(reads []string, write string) (func(), error) {
	if write == "" {
		return db.lockTablesMulti(reads, nil)
	}
	return db.lockTablesMulti(reads, []string{write})
}

// lockTablesMulti is lockTables for several write targets at once (a
// whole transaction's rollback relocks every table it wrote).
func (db *DB) lockTablesMulti(reads, writes []string) (func(), error) {
	type lockReq struct {
		name  string
		write bool
	}
	seen := map[string]*lockReq{}
	for _, r := range reads {
		k := strings.ToLower(r)
		if seen[k] == nil {
			seen[k] = &lockReq{name: r}
		}
	}
	for _, w := range writes {
		k := strings.ToLower(w)
		if seen[k] == nil {
			seen[k] = &lockReq{name: w}
		}
		seen[k].write = true
	}
	var order []string
	for k := range seen {
		order = append(order, k)
	}
	sort.Strings(order)
	var locked []func()
	for _, k := range order {
		req := seen[k]
		t, err := db.cat.Table(req.name)
		if err != nil {
			for i := len(locked) - 1; i >= 0; i-- {
				locked[i]()
			}
			return nil, err
		}
		// Try the fast path first so the uncontended case costs nothing;
		// only a blocked acquisition pays for a clock read and counters.
		if req.write {
			if !t.Mu.TryLock() {
				start := time.Now()
				t.Mu.Lock()
				db.lockWaits.Add(1)
				db.lockWaitNanos.Add(time.Since(start).Nanoseconds())
			}
			locked = append(locked, t.Mu.Unlock)
		} else {
			if !t.Mu.TryRLock() {
				start := time.Now()
				t.Mu.RLock()
				db.lockWaits.Add(1)
				db.lockWaitNanos.Add(time.Since(start).Nanoseconds())
			}
			locked = append(locked, t.Mu.RUnlock)
		}
	}
	return func() {
		for i := len(locked) - 1; i >= 0; i-- {
			locked[i]()
		}
	}, nil
}

// writeGate is a soft per-table write-admission token. A session
// transaction takes the token at its first write to the table and
// returns it when the transaction ends, so under write contention
// transactions queue politely instead of interleaving their statements
// and colliding under first-updater-wins. The gate is scheduling state
// ONLY — it never changes what can commit: a transaction that cannot
// get the token within the bounded deadline is admitted anyway (forced
// admission) and proceeds to the ordinary conflict machinery. That
// keeps single-threaded interleavings (one client juggling several
// sessions) live, and makes the gate trivially deadlock-free: no
// waiter waits forever, and token holders never wait on gates they
// already hold.
type writeGate struct {
	tok chan struct{} // capacity 1, pre-filled: the admission token
}

func newWriteGate() *writeGate {
	g := &writeGate{tok: make(chan struct{}, 1)}
	g.tok <- struct{}{}
	return g
}

// release returns the token. Non-blocking send keeps the capacity-1
// invariant: only an acquire that reported held releases.
func (g *writeGate) release() {
	select {
	case g.tok <- struct{}{}:
	default:
	}
}

// gateFor returns (creating if needed) the admission gate for a table.
func (db *DB) gateFor(lower string) *writeGate {
	db.gateMu.Lock()
	g := db.gates[lower]
	if g == nil {
		g = newWriteGate()
		db.gates[lower] = g
	}
	db.gateMu.Unlock()
	return g
}

// collectReadTables lists the base tables a SELECT touches, including
// derived tables and IN subqueries.
func collectReadTables(s *sql.SelectStmt, acc []string) []string {
	for _, tr := range s.From {
		acc = collectRefTables(tr, acc)
	}
	acc = collectExprTables(s.Where, acc)
	acc = collectExprTables(s.Having, acc)
	return acc
}

func collectRefTables(tr sql.TableRef, acc []string) []string {
	switch tr := tr.(type) {
	case *sql.NamedTable:
		acc = append(acc, tr.Name)
	case *sql.SubqueryTable:
		acc = collectReadTables(tr.Select, acc)
	case *sql.JoinTable:
		acc = collectRefTables(tr.Left, acc)
		acc = collectRefTables(tr.Right, acc)
		acc = collectExprTables(tr.On, acc)
	}
	return acc
}

func collectExprTables(e sql.Expr, acc []string) []string {
	switch e := e.(type) {
	case nil:
		return acc
	case *sql.BinaryExpr:
		acc = collectExprTables(e.L, acc)
		acc = collectExprTables(e.R, acc)
	case *sql.UnaryExpr:
		acc = collectExprTables(e.X, acc)
	case *sql.IsNullExpr:
		acc = collectExprTables(e.X, acc)
	case *sql.LikeExpr:
		acc = collectExprTables(e.X, acc)
		acc = collectExprTables(e.Pattern, acc)
	case *sql.CastExpr:
		acc = collectExprTables(e.X, acc)
	case *sql.FuncExpr:
		for _, a := range e.Args {
			acc = collectExprTables(a, acc)
		}
	case *sql.InExpr:
		acc = collectExprTables(e.X, acc)
		for _, i := range e.List {
			acc = collectExprTables(i, acc)
		}
		if e.Subquery != nil {
			acc = collectReadTables(e.Subquery, acc)
		}
	}
	return acc
}

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	Pool       storage.PoolStats
	PhysReads  int64
	PhysWrites int64
	Tables     int
	MetaBytes  int64
	// StmtRollbacks counts DML statements that failed and were rolled
	// back cleanly to their pre-statement state; StmtRollbackFailures
	// counts failed statements whose undo replay itself failed partway
	// (the table may be inconsistent). Every failed DML statement lands
	// in exactly one of the two.
	StmtRollbacks        int64
	StmtRollbackFailures int64
	// Interactive transaction outcomes: sessions' BEGINs, durable
	// COMMITs, ROLLBACKs (explicit or conflict-forced), and the subset
	// of aborts caused by first-updater-wins write-write conflicts.
	TxnBegins    int64
	TxnCommits   int64
	TxnAborts    int64
	TxnConflicts int64
	// ActiveTxns is the number of transactions begun but not finished at
	// snapshot time; PinnedSnapshots the subset holding a pinned
	// snapshot (constraining the version-GC horizon). Both must drain to
	// zero when every session is closed — the server's leak check.
	ActiveTxns      int64
	PinnedSnapshots int64
	// Contention telemetry. LockWaits/LockWaitNanos count table-latch
	// acquisitions that blocked and their total blocked time. RowWaits/
	// RowWaitNanos count DML statements that parked in bounded
	// wait-then-abort and their total parked time; RowWaitTimeouts are
	// waits that expired into a conflict abort, RowWaitRescues waits
	// that cleared and let the write proceed. ImmediateConflicts are
	// first-updater-wins conflicts no wait could change (the holder
	// committed too new or holds a reserved commit timestamp) or that
	// arrived with waiting disabled. VersionsEnumerated/
	// ChainedRowsResolved are what version chains cost snapshot reads:
	// moved chains (deletes, key changes) statements had to enumerate
	// beside their scan, and chained rows resolved where a scan found
	// them (mvcc.ContentionStats).
	// AdmissionWaits/AdmissionWaitNanos count transactions that parked at
	// a per-table write-admission gate and their total parked time;
	// AdmissionTimeouts count parks that expired into forced admission
	// (the gate is scheduling only — a timed-out transaction proceeds).
	LockWaits          int64
	LockWaitNanos      int64
	AdmissionWaits     int64
	AdmissionWaitNanos int64
	AdmissionTimeouts  int64
	RowWaits           int64
	RowWaitNanos       int64
	RowWaitTimeouts    int64
	RowWaitRescues     int64
	ImmediateConflicts int64

	VersionsEnumerated  int64
	ChainedRowsResolved int64
	// Commit-pipeline telemetry: current and high-water number of
	// reserved commits awaiting publication, publication rounds, and
	// commits published (PublishedTxns / PublishBatches is the mean
	// pipeline batch size).
	CommitPipelineDepth int64
	CommitPipelineMax   int64
	PublishBatches      int64
	PublishedTxns       int64
	// Exec carries executor counters: rows and batches produced by
	// base-table scans, and column values decoded vs skipped by column
	// pruning (the decode savings of narrow queries over wide tables).
	Exec exec.Counters
	// WAL carries durability counters: bytes and records appended, sync
	// calls, commits, the group-commit batch-size histogram, checkpoints
	// taken, and log bytes truncated. Zero when WAL is disabled.
	WAL wal.Stats
	// Recoveries counts how many times this database instance has been
	// rebuilt from its log; RecoveryReplayed is the total number of redo
	// records those recoveries applied.
	Recoveries       int64
	RecoveryReplayed int64
	// Plan-cache effectiveness: lookups served from the compiled-plan
	// LRU vs lookups that had to plan (a DDL bump or first sight of a
	// statement text).
	PlanCacheHits   int64
	PlanCacheMisses int64
	// Replication telemetry. Primary side: ReplShippedLSN is the stream
	// offset shipped to the furthest subscriber, ReplAckedLSN the highest
	// applied LSN a subscriber confirmed, ReplAckRoundTrips the number of
	// acks received. Replica side: ReplAppliedLSN is the frame end of the
	// last applied record, ReplAppliedCommitLSN the last applied commit
	// (the snapshot horizon follower reads are pinned at). ReplLagBytes
	// is durable-horizon minus the confirmed/applied position — on a
	// primary how far the slowest acked subscriber trails, on a replica
	// how many ingested bytes await apply. Zero when unused.
	ReplShippedLSN       uint64
	ReplAckedLSN         uint64
	ReplAckRoundTrips    int64
	ReplAppliedLSN       uint64
	ReplAppliedCommitLSN uint64
	ReplLagBytes         int64
}

// Stats returns current counters.
func (db *DB) Stats() Stats {
	s := Stats{
		Pool:                 db.pool.Stats(),
		PhysReads:            db.disk.PhysReads(),
		PhysWrites:           db.disk.PhysWrites(),
		Tables:               db.cat.NumTables(),
		MetaBytes:            db.cat.MetaBytes(),
		StmtRollbacks:        db.stmtRollbacks.Load(),
		StmtRollbackFailures: db.stmtRollbackFailures.Load(),
		TxnBegins:            db.txnBegins.Load(),
		TxnCommits:           db.txnCommits.Load(),
		TxnAborts:            db.txnAborts.Load(),
		TxnConflicts:         db.txnConflicts.Load(),
		ActiveTxns:           int64(db.txns.ActiveCount()),
		PinnedSnapshots:      int64(db.txns.PinnedCount()),
		Exec:                 db.execStats.Snapshot(),
		Recoveries:           db.recoveries,
		RecoveryReplayed:     db.replayedRecs,
	}
	c := db.txns.Contention()
	s.LockWaits = db.lockWaits.Load()
	s.LockWaitNanos = db.lockWaitNanos.Load()
	s.AdmissionWaits = db.admissionWaits.Load()
	s.AdmissionWaitNanos = db.admissionWaitNanos.Load()
	s.AdmissionTimeouts = db.admissionTimeouts.Load()
	s.RowWaits = c.RowWaits
	s.RowWaitNanos = c.RowWaitNanos
	s.RowWaitTimeouts = c.RowWaitTimeouts
	s.RowWaitRescues = c.RowWaitRescues
	s.ImmediateConflicts = c.ImmediateConflicts
	s.VersionsEnumerated = c.VersionsEnumerated
	s.ChainedRowsResolved = c.ChainedRowsResolved
	s.CommitPipelineDepth = c.PipelineDepth
	s.CommitPipelineMax = c.PipelineMax
	s.PublishBatches = c.PublishBatches
	s.PublishedTxns = c.PublishedTxns
	s.PlanCacheHits, s.PlanCacheMisses = db.plans.counters()
	if db.log != nil {
		s.WAL = db.log.Stats()
	}
	s.ReplShippedLSN = db.replShippedLSN.Load()
	s.ReplAckedLSN = db.replAckedLSN.Load()
	s.ReplAckRoundTrips = db.replAckRounds.Load()
	s.ReplAppliedLSN = db.replAppliedLSN.Load()
	s.ReplAppliedCommitLSN = db.replAppliedCommitLSN.Load()
	if db.log != nil {
		end := uint64(db.log.DurableLSN())
		switch {
		case db.readOnly.Load() && s.ReplAppliedLSN > 0:
			s.ReplLagBytes = int64(end - s.ReplAppliedLSN)
		case s.ReplAckedLSN > 0:
			s.ReplLagBytes = int64(end - s.ReplAckedLSN)
		}
	}
	return s
}

// ResetStats zeroes the counters (used between benchmark phases).
func (db *DB) ResetStats() {
	db.pool.ResetStats()
	db.disk.ResetCounters()
	db.execStats.Reset()
	if db.log != nil {
		db.log.ResetStats()
	}
}

// DropCaches flushes and empties the buffer pool — the cold-cache
// protocol of the paper's Test 5. It takes the DDL lock so no statement
// is mid-flight.
func (db *DB) DropCaches() error {
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	return db.pool.DropAll()
}

// BufferPool exposes the pool for experiment harnesses.
func (db *DB) BufferPool() *storage.BufferPool { return db.pool }

// Disk exposes the disk for experiment harnesses.
func (db *DB) Disk() *storage.Disk { return db.disk }

// WAL exposes the log for experiment harnesses (nil when disabled).
func (db *DB) WAL() *wal.Log { return db.log }

// Txns exposes the transaction manager; the network server's drain
// check and the disconnect tests read its pin counts and GC horizon.
func (db *DB) Txns() *mvcc.Manager { return db.txns }

// ckptPayload is the JSON body of a KCheckpoint record: the catalog at
// checkpoint time plus the dirty-page table (each dirty page's recLSN —
// the oldest log record that may not yet be on disk for it).
type ckptPayload struct {
	Catalog *catalog.Snapshot          `json:"catalog"`
	DPT     map[storage.PageID]wal.LSN `json:"dpt,omitempty"`
}

// Checkpoint takes a fuzzy checkpoint: sync the log, append a snapshot
// of the catalog and the dirty-page table, sync again, then truncate the
// log to the oldest byte still needed — the minimum of the checkpoint's
// own frame and the oldest recLSN of any still-dirty page.
func (db *DB) Checkpoint() error {
	if db.log == nil {
		return nil
	}
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	return db.checkpointLocked()
}

func (db *DB) checkpointLocked() error {
	if err := db.log.Sync(); err != nil {
		return err
	}
	payload := ckptPayload{Catalog: db.cat.Snapshot(), DPT: db.pool.DirtyPageTable()}
	b, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("engine: checkpoint encode: %w", err)
	}
	start, _, err := db.log.AppendCheckpoint(b)
	if err != nil {
		return err
	}
	if err := db.log.Sync(); err != nil {
		return err
	}
	bound := start
	if o := db.pool.OldestRecLSN(); o < bound {
		bound = o
	}
	// An open transaction scope spans statements: if it later commits,
	// recovery must replay it from its first record, so truncation never
	// passes the oldest active scope's begin. (With autocommit-only
	// traffic the checkpoint's exclusive ddlMu means no scope is active
	// and this bound is infinite.)
	if o := db.log.OldestActiveLSN(); o < bound {
		bound = o
	}
	db.log.TruncateTo(bound)
	return nil
}

// maybeCheckpoint runs a checkpoint when enough log has accumulated.
// Called without ddlMu held, after a statement completes. Errors are
// dropped: a failed checkpoint only delays truncation, and if the log
// crashed the next statement reports it.
func (db *DB) maybeCheckpoint() {
	if db.log == nil || db.cfg.CheckpointBytes <= 0 {
		return
	}
	if db.log.BytesSinceCheckpoint() >= db.cfg.CheckpointBytes {
		_ = db.Checkpoint()
	}
}

// CrashImage is what survives a crash: the disk (its durable pages) and
// the log (its durable prefix). Everything else — buffer pool, catalog,
// plans — is volatile and lost. Recover rebuilds a DB from it.
type CrashImage struct {
	Disk *storage.Disk
	Log  *wal.Log
	Cfg  Config

	recoveries   int64
	replayedRecs int64
}

// Crash kills the database: the buffer pool drops every frame without
// writing anything back, the log discards its volatile tail and refuses
// further appends, and the disk rejects all traffic until Recover. The
// returned image is the starting point for Recover.
func (db *DB) Crash() *CrashImage {
	if db.log != nil {
		db.log.Crash()
	}
	db.pool.Crash()
	db.disk.SetCrashed(true)
	return &CrashImage{
		Disk:         db.disk,
		Log:          db.log,
		Cfg:          db.cfg,
		recoveries:   db.recoveries,
		replayedRecs: db.replayedRecs,
	}
}
