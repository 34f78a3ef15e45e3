// Package engine is the embedded relational database the testbed and
// the schema-mapping layer run against: SQL in, rows out. It assembles
// the substrates — disk, buffer pool, catalog with meta-data budget,
// planner, executor — and runs every write as a transaction. Ad-hoc
// Exec/Query statements autocommit, matching the paper's testbed default
// (§4.2: single-request transactions): a write is a transaction of one
// statement (DB.Atomic). A Session additionally offers interactive
// multi-statement transactions (BEGIN/COMMIT/ROLLBACK, SAVEPOINT). Both
// read snapshots via row versioning and write under first-updater-wins
// write-write conflict detection.
package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/lru"
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
	// PageSize in bytes. Default 8192, the paper's setting; at most
	// 65535 (heap and B+tree pages use 16-bit offsets), and Open
	// panics on more.
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
	// StmtID is the statement's WAL identity (0 when the statement was a
	// query).
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
	plans   *lru.Cache[string, int64, *compiled] // text → plan, stamped with the catalog version
	log     *wal.Log
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

	// planHits/planMisses count plan-cache lookups answered by an entry
	// and those that planned; one that waited on another's plan counts
	// in neither.
	planHits, planMisses atomic.Int64

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

	// Transaction outcomes (commits, rollbacks and first-updater-wins
	// conflict aborts) of sessions' transactions and autocommit writes.
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

	// sessions holds the idle sessions of DB.Atomic.
	sessions sync.Pool

	// atomicMu is held shared by a running Session.Atomic transaction
	// and exclusively by structural DDL, taken before ddlMu: DDL waits
	// for those short transactions to finish — and a new one waits for
	// the DDL — where it refuses a client's open transaction.
	atomicMu sync.RWMutex
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
	log := wal.New(wal.Config{
		SyncLatency:   cfg.SyncLatency,
		NoGroupCommit: cfg.NoGroupCommit,
	})
	log.AttachPool(pool)
	pool.SetWALGate(log)
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
		plans:         lru.New[string, int64, *compiled](planCacheSize),
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
		_, err := db.runSelect(st, key, params, nil, false)
		return Result{}, err
	case *sql.BeginStmt, *sql.CommitStmt, *sql.RollbackStmt, *sql.SavepointStmt:
		return Result{}, fmt.Errorf("engine: %s requires a Session (DB.Exec statements autocommit)", st)
	default:
		// INSERT, UPDATE or DELETE: a transaction of one statement.
		var res Result
		err := db.Atomic(func(s *Session) (err error) {
			res, err = s.ExecStmt(st, key, params...)
			return err
		})
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
	return db.runSelect(sel, key, params, nil, true)
}

// runSelect is the one read path: under ddlMu shared it prepares sel
// (its plan, and shared latches on the tables that plan reads) and runs
// it in tx's snapshot — a pinned session transaction, or, when tx is
// nil, an autocommit read on readerTxn. With collect it materializes the
// rows; without (Exec on a SELECT) it streams and discards them and
// returns nil.
func (db *DB) runSelect(sel *sql.SelectStmt, key string, params []types.Value, tx *mvcc.Txn, collect bool) (*Rows, error) {
	if tx != nil {
		db.txns.Pin(tx)
	}
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()
	c, err := db.prepare(key, sel, tx, false)
	if err != nil {
		return nil, err
	}
	defer c.unlatch(false)
	if tx == nil {
		var release func()
		tx, release = db.readerTxn()
		defer release()
	}
	if collect {
		return c.collect(params, &db.execStats, tx)
	}
	_, err = c.drain(params, &db.execStats, tx)
	return nil, err
}

// prepare is the first two steps of running a statement, under ddlMu
// shared (the caller holds it): look st up in the plan cache or plan
// it, then latch the tables the plan touches — exclusive on a DML
// target where exclusive is set. The caller runs it, then unlatches.
// Planning first is safe: the planner reads the catalog, which ddlMu
// holds still, and schema chains, which lock themselves. An online
// ALTER bumps the catalog version before it lets its table's latch go,
// so a version that moved by the time the latches are held may mean a
// plan from before the ALTER: prepare again (DESIGN.md §7).
func (db *DB) prepare(key string, st sql.Statement, tx *mvcc.Txn, exclusive bool) (*compiled, error) {
	for {
		ver := db.cat.Version()
		c, err := db.planForTx(key, st, tx, ver)
		if err != nil {
			return nil, err
		}
		c.latch(db, exclusive)
		if db.cat.Version() == ver {
			return c, nil
		}
		c.unlatch(exclusive)
	}
}

// planFor returns the compiled statement for st through the plan cache,
// under catalog version ver. key is the statement's SQL text ("" means
// render it from the AST).
func (db *DB) planFor(key string, st sql.Statement, ver int64) (*compiled, error) {
	if key == "" {
		key = st.String()
	}
	c, how, err := db.plans.Do(key, ver, func() (*compiled, error) {
		n, err := db.planner.PlanStatement(st)
		if err != nil {
			return nil, err
		}
		return newCompiled(n), nil
	})
	switch how {
	case lru.Hit:
		db.planHits.Add(1)
	case lru.Filled:
		db.planMisses.Add(1)
	}
	return c, err
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

func (db *DB) execDDL(st sql.Statement) error {
	if db.readOnly.Load() {
		return ErrReadOnlyReplica
	}
	db.atomicMu.Lock()
	defer db.atomicMu.Unlock()
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	// DDL is serialized against whole transactions, not just statements:
	// an open snapshot must not watch the schema shift under it, and the
	// version stores hold row-level state no schema change knows how to
	// migrate. Sessions register their transaction under ddlMu (shared)
	// before releasing it, so the count here is authoritative; it holds
	// no Atomic transaction, which atomicMu drained.
	if n := db.txns.ActiveCount(); n > 0 {
		return fmt.Errorf("engine: DDL rejected: %d open transaction(s); COMMIT or ROLLBACK first", n)
	}
	// The catalog version bump already invalidates lookups; purging
	// releases the stale plans' memory promptly.
	defer db.plans.Clear()
	scope, err := db.log.Begin()
	if err != nil {
		return err
	}
	ch, err := db.applyDDL(st, scope)
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
// (nil, nil) when the statement was a no-op. Destructive statements
// defer their page frees to the scope's commit point — redo-only
// recovery cannot resurrect pages an uncommitted drop already
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
		ix, err := db.cat.CreateIndexLogged(st.Table, st.Name, st.Columns, st.Unique, scope.TreeLogger())
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
		t, err := db.cat.DropTableDeferred(st.Name)
		if err != nil {
			return nil, err
		}
		data, index, err := t.Release()
		if err != nil {
			return nil, err
		}
		scope.DeferFree(storage.CatData, data...)
		scope.DeferFree(storage.CatIndex, index...)
		return &catalog.DDLChange{Op: catalog.OpDropTable, Table: st.Name}, nil
	case *sql.DropIndexStmt:
		ix, err := db.cat.DropIndexDeferred(st.Table, st.Name)
		if err != nil {
			return nil, err
		}
		pages, err := ix.Tree.Pages()
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

// lock takes a table latch, shared or exclusive. The fast path costs
// nothing uncontended; only a blocked acquisition pays for a clock read
// and the counters. Statements latch in one global order, by lowercased
// table name (compiled.tables, Session.undoLocked), to avoid deadlocks.
func (db *DB) lock(t *catalog.Table, exclusive bool) {
	try, wait := t.Mu.TryRLock, t.Mu.RLock
	if exclusive {
		try, wait = t.Mu.TryLock, t.Mu.Lock
	}
	if !try() {
		start := time.Now()
		wait()
		db.lockWaits.Add(1)
		db.lockWaitNanos.Add(time.Since(start).Nanoseconds())
	}
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

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	Pool       storage.PoolStats
	PhysReads  int64
	PhysWrites int64
	Tables     int
	MetaBytes  int64
	// DiskPages counts the disk's page ids, DiskExtents the page-size
	// extents they fill (what tables cost on disk beside MetaBytes), and
	// DiskBySize the quarter, half and full pages.
	DiskPages   int
	DiskExtents int
	DiskBySize  [3]int
	// StmtRollbacks counts DML statements that failed and were rolled
	// back cleanly to their pre-statement state; StmtRollbackFailures
	// counts failed statements whose undo replay itself failed partway
	// (the table may be inconsistent). Every failed DML statement lands
	// in exactly one of the two.
	StmtRollbacks        int64
	StmtRollbackFailures int64
	// Transaction outcomes: BEGINs, durable COMMITs, ROLLBACKs
	// (explicit or conflict-forced), and the subset of aborts caused by
	// first-updater-wins write-write conflicts. An autocommit write is a
	// transaction too (DB.Atomic), counted once per attempt: one that
	// meets a conflict aborts and runs again, up to atomicAttempts times.
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
	// committed after the snapshot) or that arrived with waiting
	// disabled; a statement that was its transaction's first to observe
	// the snapshot takes a later one and runs again instead of
	// aborting. VersionsEnumerated/ChainedRowsResolved are what version
	// chains cost snapshot reads: moved chains (deletes, key changes)
	// statements had to enumerate beside their scan, and chained rows
	// resolved where a scan found them (mvcc.ContentionStats).
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
	// taken, and log bytes truncated.
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
	// PlanCacheEntries is the compiled-plan LRU's population: statements
	// compiled and kept, at most planCacheSize.
	PlanCacheEntries int
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
	s.DiskBySize, s.DiskExtents = db.disk.Census(), db.disk.NumPages()
	s.DiskPages = s.DiskBySize[0] + s.DiskBySize[1] + s.DiskBySize[2]
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
	s.PlanCacheHits, s.PlanCacheMisses = db.planHits.Load(), db.planMisses.Load()
	s.PlanCacheEntries, _ = db.plans.Counts()
	s.WAL = db.log.Stats()
	s.ReplShippedLSN = db.replShippedLSN.Load()
	s.ReplAckedLSN = db.replAckedLSN.Load()
	s.ReplAckRoundTrips = db.replAckRounds.Load()
	s.ReplAppliedLSN = db.replAppliedLSN.Load()
	s.ReplAppliedCommitLSN = db.replAppliedCommitLSN.Load()
	end := uint64(db.log.DurableLSN())
	switch {
	case db.readOnly.Load() && s.ReplAppliedLSN > 0:
		s.ReplLagBytes = int64(end - s.ReplAppliedLSN)
	case s.ReplAckedLSN > 0:
		s.ReplLagBytes = int64(end - s.ReplAckedLSN)
	}
	return s
}

// ResetStats zeroes the counters (used between benchmark phases).
func (db *DB) ResetStats() {
	db.pool.ResetStats()
	db.disk.ResetCounters()
	db.execStats.Reset()
	db.log.ResetStats()
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

// WAL exposes the log for experiment harnesses.
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
	if db.cfg.CheckpointBytes <= 0 {
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
	db.log.Crash()
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
