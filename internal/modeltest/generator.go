package modeltest

import (
	"fmt"
	"math/rand"
)

// OpKind enumerates the workload's statement shapes.
type OpKind int

// Statement shapes emitted by the generator.
const (
	OpBegin OpKind = iota
	OpCommit
	OpRollback
	OpSavepoint
	OpRollbackTo
	OpInsert
	OpUpdateBal
	OpUpdateV
	OpDelete
	OpRangeUpdate
	OpUpdateByBal
	OpUpdateAllV
	OpDeleteRange
	OpSelectPoint
	OpSelectRange
	OpSelectAgg
)

// Op is one generated statement.
type Op struct {
	Kind   OpKind
	Table  string
	K      int64  // point target / insert key
	Delta  int64  // bal increment
	Lo, Hi int64  // range bounds
	Str    string // VARCHAR payload
	Name   string // savepoint name
}

// String renders the op roughly as the SQL the driver issues.
func (o Op) String() string {
	switch o.Kind {
	case OpBegin:
		return "BEGIN"
	case OpCommit:
		return "COMMIT"
	case OpRollback:
		return "ROLLBACK"
	case OpSavepoint:
		return "SAVEPOINT " + o.Name
	case OpRollbackTo:
		return "ROLLBACK TO " + o.Name
	case OpInsert:
		return fmt.Sprintf("INSERT INTO %s VALUES (%d, %q, %d)", o.Table, o.K, o.Str, o.Delta)
	case OpUpdateBal:
		return fmt.Sprintf("UPDATE %s SET bal = bal + %d WHERE k = %d", o.Table, o.Delta, o.K)
	case OpUpdateV:
		return fmt.Sprintf("UPDATE %s SET v = %q WHERE k = %d", o.Table, o.Str, o.K)
	case OpDelete:
		return fmt.Sprintf("DELETE FROM %s WHERE k = %d", o.Table, o.K)
	case OpRangeUpdate:
		return fmt.Sprintf("UPDATE %s SET bal = bal + %d WHERE k >= %d AND k < %d", o.Table, o.Delta, o.Lo, o.Hi)
	case OpUpdateByBal:
		return fmt.Sprintf("UPDATE %s SET bal = bal + %d WHERE bal >= %d AND bal < %d", o.Table, o.Delta, o.Lo, o.Hi)
	case OpUpdateAllV:
		return fmt.Sprintf("UPDATE %s SET v = %q", o.Table, o.Str)
	case OpDeleteRange:
		return fmt.Sprintf("DELETE FROM %s WHERE k >= %d AND k < %d", o.Table, o.Lo, o.Hi)
	case OpSelectPoint:
		return fmt.Sprintf("SELECT v, bal FROM %s WHERE k = %d", o.Table, o.K)
	case OpSelectRange:
		return fmt.Sprintf("SELECT k, bal FROM %s WHERE k >= %d AND k < %d ORDER BY k", o.Table, o.Lo, o.Hi)
	case OpSelectAgg:
		return fmt.Sprintf("SELECT COUNT(*), SUM(bal) FROM %s", o.Table)
	}
	return "?"
}

// Workload layout: each table is pre-seeded with keys [0, SeedRows).
// The stable prefix [0, StableKeys) is never deleted (inserts aimed
// there provoke unique violations and conflict classification); the
// volatile remainder takes deletes. Fresh inserts draw monotonically
// increasing keys from FreshBase up — never reused, so a fresh insert
// can only collide with concurrent work, not with history.
const (
	SeedRows   = 100
	StableKeys = 50
	FreshBase  = 10_000
)

// Generator produces a deterministic multi-tenant transaction
// workload from a seed. Ops are state-aware — the generator inspects
// the model session (in transaction? aborted?) to keep the mix
// productive — but every branch is taken with some probability, so
// error paths (BEGIN inside a txn, COMMIT outside, unknown savepoints,
// statements on an aborted txn) are exercised too.
type Generator struct {
	rng     *rand.Rand
	nextKey int64
}

// NewGenerator returns a generator for the given seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed)), nextKey: FreshBase}
}

func (g *Generator) table() string {
	if g.rng.Intn(2) == 0 {
		return "acct1"
	}
	return "acct2"
}

func (g *Generator) spName() string {
	return fmt.Sprintf("sp%d", g.rng.Intn(3))
}

// hotKey picks a pre-seeded key: mostly a narrow hot range to force
// write-write conflicts between sessions.
func (g *Generator) hotKey() int64 {
	if g.rng.Intn(100) < 60 {
		return int64(g.rng.Intn(8)) // hot spot
	}
	return int64(g.rng.Intn(SeedRows))
}

// Next produces the next op for a session, using its model-visible
// state to weight the choices.
func (g *Generator) Next(s *MSession) Op {
	r := g.rng.Intn(100)
	if s.Aborted() {
		// The txn owes a ROLLBACK; mostly pay it, sometimes poke the
		// aborted state with other statements to check error parity.
		switch {
		case r < 55:
			return Op{Kind: OpRollback}
		case r < 70:
			return Op{Kind: OpCommit}
		default:
			return g.stmt()
		}
	}
	if !s.InTxn() {
		switch {
		case r < 42:
			return Op{Kind: OpBegin}
		case r < 45:
			return Op{Kind: OpCommit} // error parity: no txn open
		case r < 47:
			return Op{Kind: OpSavepoint, Name: g.spName()}
		default:
			return g.stmt() // autocommit statement
		}
	}
	// Inside a transaction.
	switch {
	case r < 16:
		return Op{Kind: OpCommit}
	case r < 21:
		return Op{Kind: OpRollback}
	case r < 27:
		return Op{Kind: OpSavepoint, Name: g.spName()}
	case r < 33:
		return Op{Kind: OpRollbackTo, Name: g.spName()}
	default:
		return g.stmt()
	}
}

// stmt picks a data statement (valid in or out of a transaction).
func (g *Generator) stmt() Op {
	tab := g.table()
	r := g.rng.Intn(100)
	switch {
	case r < 26: // point balance update on a hot key
		return Op{Kind: OpUpdateBal, Table: tab, K: g.hotKey(), Delta: int64(g.rng.Intn(19) - 9)}
	case r < 36:
		return Op{Kind: OpUpdateV, Table: tab, K: g.hotKey(),
			Str: fmt.Sprintf("w-%06d", g.rng.Intn(1_000_000))}
	case r < 44: // delete in the volatile range only
		return Op{Kind: OpDelete, Table: tab, K: int64(StableKeys + g.rng.Intn(SeedRows-StableKeys))}
	case r < 54:
		g.nextKey++
		return Op{Kind: OpInsert, Table: tab, K: g.nextKey,
			Str: fmt.Sprintf("n-%06d", g.nextKey), Delta: int64(g.rng.Intn(200))}
	case r < 58: // insert aimed at a stable committed key: violation/conflict
		return Op{Kind: OpInsert, Table: tab, K: int64(g.rng.Intn(StableKeys)),
			Str: "dup", Delta: 1}
	case r < 64:
		lo := int64(g.rng.Intn(SeedRows))
		return Op{Kind: OpRangeUpdate, Table: tab, Lo: lo, Hi: lo + int64(1+g.rng.Intn(6)),
			Delta: int64(g.rng.Intn(9) - 4)}
	case r < 68: // by the column it writes, beside the seeded balance of 100
		lo := int64(101 + g.rng.Intn(15))
		if g.rng.Intn(2) == 0 {
			lo = int64(80 + g.rng.Intn(15))
		}
		return Op{Kind: OpUpdateByBal, Table: tab, Lo: lo, Hi: lo + int64(1+g.rng.Intn(4)),
			Delta: int64(g.rng.Intn(9) - 4)}
	case r < 69: // no WHERE: every visible row
		return Op{Kind: OpUpdateAllV, Table: tab, Str: fmt.Sprintf("a-%06d", g.rng.Intn(1_000_000))}
	case r < 71: // range delete, volatile keys only
		lo := int64(StableKeys + g.rng.Intn(SeedRows-StableKeys))
		return Op{Kind: OpDeleteRange, Table: tab, Lo: lo, Hi: lo + int64(1+g.rng.Intn(3))}
	case r < 82:
		return Op{Kind: OpSelectPoint, Table: tab, K: g.hotKey()}
	case r < 93:
		lo := int64(g.rng.Intn(SeedRows + 20))
		return Op{Kind: OpSelectRange, Table: tab, Lo: lo, Hi: lo + int64(1+g.rng.Intn(30))}
	default:
		return Op{Kind: OpSelectAgg, Table: tab}
	}
}
