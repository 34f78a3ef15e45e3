package engine

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/mvcc"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/wal"
)

// execAlterOnline runs a column-shape ALTER without fencing off the
// rest of the database. Unlike execDDL it holds ddlMu only SHARED — the
// same posture as a DML statement — so concurrent queries, writes, and
// whole open transactions keep running; only the target table's write
// latch is held, and only for the metadata flip, never for a data scan.
//
// The protocol is publish-then-migrate:
//
//  1. Compute the successor column list under the table's write latch.
//     Every supported ALTER keeps the grow-only physical invariant
//     (see internal/schemaver): ADD appends a slot, DROP flips a flag
//     in place, WIDEN changes a declared type in place. No row needs
//     rewriting for the new schema to be readable.
//  2. Log the change (durability before visibility) as a committed
//     one-record transaction.
//  3. Stamp the new version with a fresh commit timestamp via
//     mvcc.StampDDL and publish it onto the table's schema chain. The
//     stamp is strictly newer than every pre-existing snapshot, so
//     in-flight transactions keep planning and reading under the
//     version pinned at their begin (see DB.planForTx) while
//     statements that start afterwards see the new schema.
//  4. Hand the table to the background backfiller, which lazily
//     rewrites stale row encodings in small yielding batches.
//
// Open transactions are NOT rejected — that is the point. The fenced
// path (execDDL) remains for structural DDL: CREATE/DROP TABLE and
// CREATE/DROP INDEX move pages around and so still serialize against
// everything (CREATE INDEX in particular scans the heap; keeping it
// fenced is a documented exception to online evolution).
func (db *DB) execAlterOnline(st sql.Statement) error {
	if db.readOnly.Load() {
		return ErrReadOnlyReplica
	}
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()

	var (
		table string
		ch    *catalog.DDLChange
	)
	switch st := st.(type) {
	case *sql.AlterAddColumnStmt:
		table = st.Table
	case *sql.AlterDropColumnStmt:
		table = st.Table
	case *sql.AlterColumnTypeStmt:
		table = st.Table
	default:
		return fmt.Errorf("engine: not an online ALTER: %T", st)
	}
	t, err := db.cat.Table(table)
	if err != nil {
		return err
	}

	t.Mu.Lock()
	defer t.Mu.Unlock()

	var cols []catalog.Column
	switch st := st.(type) {
	case *sql.AlterAddColumnStmt:
		col := catalog.Column{Name: st.Col.Name, Type: st.Col.Type, NotNull: st.Col.NotNull}
		cols, err = t.ComputeAddColumn(col)
		ch = &catalog.DDLChange{Op: catalog.OpAddColumn, Table: t.Name, Cols: []catalog.Column{col}}
	case *sql.AlterDropColumnStmt:
		cols, err = t.ComputeDropColumn(st.Col)
		ch = &catalog.DDLChange{Op: catalog.OpDropColumn, Table: t.Name,
			Cols: []catalog.Column{{Name: st.Col}}}
	case *sql.AlterColumnTypeStmt:
		cols, err = t.ComputeWidenColumn(st.Col, st.Type)
		ch = &catalog.DDLChange{Op: catalog.OpWidenColumn, Table: t.Name,
			Cols: []catalog.Column{{Name: st.Col, Type: st.Type}}}
	}
	if err != nil {
		return err
	}

	// Durability before visibility: the schema change must be on the log
	// before any snapshot can observe it, or a crash after a post-ALTER
	// write would recover rows no surviving schema explains.
	if db.log != nil {
		var scope *wal.Scope
		scope, err = db.log.Begin()
		if err != nil {
			return err
		}
		if err = scope.CatalogChange(ch.Encode()); err != nil {
			scope.Abort()
			return err
		}
		if err = scope.Commit(); err != nil {
			scope.Abort()
			return err
		}
	}

	// Publish. StampDDL burns one commit timestamp through the ordinary
	// pipeline, so the version's stamp is strictly newer than every
	// snapshot pinned before this line — exactly the row-MVCC rule.
	ts := db.txns.StampDDL()
	db.cat.PublishSchema(t, cols, ts)
	// Cached plans key on the catalog version, which PublishSchema
	// bumped; purging just releases their memory promptly.
	db.plans.purge()
	db.backfill().enqueue(t.Name)
	return nil
}

// planForTx plans st for a specific transaction: a snapshot pinned
// before the newest schema publication replans under its own schema
// epoch; everything else takes the ordinary cached path.
func (db *DB) planForTx(key string, st sql.Statement, tx *mvcc.Txn) (*compiled, error) {
	if tx != nil && tx.BeginTS() < db.cat.SchemaTS() {
		return db.planAsOf(st, tx.BeginTS())
	}
	return db.planFor(key, st)
}

// planAsOf plans st under the schema versions visible at ts. The
// statement is re-parsed from its printed form so the planner gets a
// private AST: the optimizer rewrites ASTs in place, and the shared
// AST object may concurrently be planned under the newest schema by
// another session. The plan is never cached — old-snapshot plans die
// with their transaction, and the cache key (text, catalog version)
// has no epoch dimension — so the compiled statement, and the tree its
// one execution builds, are the caller's alone and go when it returns.
func (db *DB) planAsOf(st sql.Statement, ts uint64) (*compiled, error) {
	fresh, err := sql.Parse(st.String())
	if err != nil {
		return nil, fmt.Errorf("engine: replan as-of snapshot: %w", err)
	}
	p := &plan.Planner{Cat: db.cat, Mode: db.cfg.Optimizer, AsOf: ts, AsOfSet: true}
	n, err := p.PlanStatement(fresh)
	if err != nil {
		return nil, err
	}
	// Private already, so not marked stateful: forExec need not clone.
	return &compiled{node: n}, nil
}
