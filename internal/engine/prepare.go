package engine

import (
	"fmt"

	"repro/internal/sql"
	"repro/internal/types"
)

// Stmt is a prepared statement: parsed once, planned through the
// engine's shared plan cache (the same cache ad-hoc Exec/Query use),
// with plans invalidated when a DDL operation bumps the catalog
// version (on-line schema changes invalidate cached plans, they do not
// break them).
//
// A Stmt is safe for concurrent use and executions do not serialize:
// plans that carry per-execution state (e.g. materialized
// IN-subqueries) are cloned per execution, everything else is shared
// read-only.
type Stmt struct {
	db  *DB
	st  sql.Statement
	key string // plan-cache key: the statement's printed form
}

// Prepare parses a statement for repeated execution. DDL and
// transaction-control statements cannot be prepared (they execute once
// by nature, through a Session for the latter).
func (db *DB) Prepare(query string) (*Stmt, error) {
	st, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	switch st.(type) {
	case *sql.SelectStmt, *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
	default:
		return nil, fmt.Errorf("engine: cannot prepare %T (DDL and transaction control execute directly)", st)
	}
	return &Stmt{db: db, st: st, key: query}, nil
}

// Query executes a prepared SELECT.
func (s *Stmt) Query(params ...types.Value) (*Rows, error) {
	sel, ok := s.st.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("engine: prepared statement is not a SELECT")
	}
	return s.db.QueryStmt(sel, s.key, params...)
}

// Exec executes a prepared DML statement through the same path as
// ad-hoc Exec — WAL scope, statement-level atomicity, mvcc stamping —
// so a prepared write is every bit as durable as an ad-hoc one.
func (s *Stmt) Exec(params ...types.Value) (Result, error) {
	if _, isSel := s.st.(*sql.SelectStmt); isSel {
		_, err := s.Query(params...)
		return Result{}, err
	}
	res, err := s.db.execDML(s.st, s.key, params)
	if err == nil {
		s.db.maybeCheckpoint()
	}
	return res, err
}
