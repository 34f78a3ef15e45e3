// Package exec evaluates physical plans batch-at-a-time: every operator
// pulls batches of rows from its children through one NextBatch
// protocol. Concurrency control happens above this layer: the engine
// acquires the table locks a statement needs before running its plan.
package exec

import (
	"fmt"

	"repro/internal/mvcc"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/types"
)

// Context carries per-execution state.
type Context struct {
	Params []types.Value
	// Stats receives executor counters (rows scanned, batches, decode
	// savings); may be nil. Iterators flush into it on Close.
	Stats *Stats
	// Txn, when set, makes scans snapshot-consistent: rows resolve
	// through their version chains for this transaction instead of
	// being read straight off the pages. nil keeps the plain path.
	Txn *mvcc.Txn
}

// Iterator is the operator interface: Open, then NextBatch until it
// returns nil, then Close. NextBatch returns a non-empty batch or nil at
// end of stream; the batch and its rows stay the iterator's and are
// reused by its next NextBatch call (see Batch for the ownership rule).
type Iterator interface {
	Open(ctx *Context) error
	NextBatch() (*Batch, error)
	Close() error
}

// Build compiles a plan node into an iterator tree and binds IN-subquery
// scalars to this executor.
func Build(n plan.Node) (Iterator, error) { return BuildTx(n, nil) }

// BuildTx is Build binding IN-subquery materialization to tx's
// snapshot, so subqueries see the same version of the database as the
// enclosing statement.
func BuildTx(n plan.Node, tx *mvcc.Txn) (Iterator, error) {
	it, err := build(n)
	if err != nil {
		return nil, err
	}
	bindSubqueries(n, tx)
	return it, nil
}

func build(n plan.Node) (Iterator, error) {
	switch n := n.(type) {
	case *plan.SeqScan:
		return &seqScanIter{node: n}, nil
	case *plan.IndexScan:
		return &indexScanIter{node: n}, nil
	case *plan.Values:
		return &valuesIter{node: n}, nil
	case *plan.Filter:
		child, err := build(n.Child)
		if err != nil {
			return nil, err
		}
		return &filterIter{child: child, cond: n.Cond}, nil
	case *plan.Project:
		child, err := build(n.Child)
		if err != nil {
			return nil, err
		}
		return &projectIter{child: child, exprs: n.Exprs}, nil
	case *plan.HashJoin:
		l, err := build(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := build(n.Right)
		if err != nil {
			return nil, err
		}
		return &hashJoinIter{node: n, right: r, joinCore: joinCore{outer: l,
			innerWidth: len(n.Right.Schema()), residual: n.Residual, leftJoin: n.Type == sql.LeftJoin}}, nil
	case *plan.IndexNLJoin:
		outer, err := build(n.Outer)
		if err != nil {
			return nil, err
		}
		return &indexNLJoinIter{node: n, joinCore: joinCore{outer: outer,
			residual: n.Residual, leftJoin: n.Type == sql.LeftJoin}}, nil
	case *plan.NLJoin:
		l, err := build(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := build(n.Right)
		if err != nil {
			return nil, err
		}
		return &nlJoinIter{right: r, joinCore: joinCore{outer: l,
			innerWidth: len(n.Right.Schema()), residual: n.Cond, leftJoin: n.Type == sql.LeftJoin}}, nil
	case *plan.HashAggregate:
		child, err := build(n.Child)
		if err != nil {
			return nil, err
		}
		return &hashAggIter{node: n, child: child}, nil
	case *plan.Sort:
		child, err := build(n.Child)
		if err != nil {
			return nil, err
		}
		return &sortIter{materializeIter: materializeIter{child: child}, keys: n.Keys}, nil
	case *plan.Limit:
		child, err := build(n.Child)
		if err != nil {
			return nil, err
		}
		return &limitIter{child: child, n: n.N}, nil
	case *plan.Distinct:
		child, err := build(n.Child)
		if err != nil {
			return nil, err
		}
		return &distinctIter{child: child}, nil
	case *plan.Materialize:
		child, err := build(n.Sub)
		if err != nil {
			return nil, err
		}
		return &materializeIter{child: child}, nil
	}
	// renameNode and other pass-through wrappers.
	if w, ok := n.(interface{ Child() plan.Node }); ok {
		return build(w.Child())
	}
	return nil, fmt.Errorf("exec: no iterator for %T", n)
}

// Collect runs a plan to completion and returns all rows.
func Collect(n plan.Node, params []types.Value) ([][]types.Value, error) {
	return CollectStats(n, params, nil)
}

// CollectStats is Collect feeding executor counters into st (nil ok).
func CollectStats(n plan.Node, params []types.Value, st *Stats) ([][]types.Value, error) {
	return CollectTx(n, params, st, nil)
}

// CollectTx is CollectStats under a transaction snapshot (tx nil ok).
// The returned rows are copies, owned by the caller.
func CollectTx(n plan.Node, params []types.Value, st *Stats, tx *mvcc.Txn) ([][]types.Value, error) {
	it, err := BuildTx(n, tx)
	if err != nil {
		return nil, err
	}
	return drain(it, &Context{Params: params, Stats: st, Txn: tx})
}

// Drain runs a plan to completion, discarding rows, and returns the
// row count. DB.Exec on a SELECT uses it so a result set nobody reads
// is streamed and counted instead of materialized.
func Drain(n plan.Node, params []types.Value) (int64, error) {
	return DrainStats(n, params, nil)
}

// DrainStats is Drain feeding executor counters into st (nil ok).
// Batches are counted and dropped without any copying.
func DrainStats(n plan.Node, params []types.Value, st *Stats) (int64, error) {
	return DrainTx(n, params, st, nil)
}

// DrainTx is DrainStats under a transaction snapshot (tx nil ok).
func DrainTx(n plan.Node, params []types.Value, st *Stats, tx *mvcc.Txn) (int64, error) {
	it, err := BuildTx(n, tx)
	if err != nil {
		return 0, err
	}
	if err := it.Open(&Context{Params: params, Stats: st, Txn: tx}); err != nil {
		return 0, err
	}
	defer it.Close()
	var count int64
	for {
		b, err := it.NextBatch()
		if err != nil || b == nil {
			return count, err
		}
		count += int64(len(b.Rows))
	}
}

// bindSubqueries installs the Materialize callback on every InSubquery
// scalar in the plan and resets cached sets from prior runs. With a
// transaction, subqueries materialize under its snapshot.
func bindSubqueries(n plan.Node, tx *mvcc.Txn) {
	for _, s := range nodeScalars(n) {
		walkScalar(s, func(sc plan.Scalar) {
			if in, ok := sc.(*plan.InSubquery); ok {
				in.Reset()
				if tx == nil {
					in.Materialize = Collect
				} else {
					in.Materialize = func(p plan.Node, params []types.Value) ([][]types.Value, error) {
						return CollectTx(p, params, nil, tx)
					}
				}
				bindSubqueries(in.Plan, tx)
			}
		})
	}
	for _, c := range n.Children() {
		bindSubqueries(c, tx)
	}
}

// nodeScalars lists the scalar expressions a node evaluates.
func nodeScalars(n plan.Node) []plan.Scalar {
	var out []plan.Scalar
	add := func(ss ...plan.Scalar) {
		for _, s := range ss {
			if s != nil {
				out = append(out, s)
			}
		}
	}
	switch n := n.(type) {
	case *plan.SeqScan:
		add(n.Filter)
	case *plan.IndexScan:
		add(n.Residual)
		add(n.Path.EqPrefix...)
		add(n.Path.Lo, n.Path.Hi)
	case *plan.Filter:
		add(n.Cond)
	case *plan.Project:
		add(n.Exprs...)
	case *plan.HashJoin:
		add(n.LeftKeys...)
		add(n.RightKeys...)
		add(n.Residual)
	case *plan.IndexNLJoin:
		add(n.Residual)
		add(n.Path.EqPrefix...)
		add(n.Path.Lo, n.Path.Hi)
	case *plan.NLJoin:
		add(n.Cond)
	case *plan.HashAggregate:
		add(n.GroupBy...)
		for _, a := range n.Aggs {
			add(a.Arg)
		}
	case *plan.Values:
		for _, row := range n.Rows {
			add(row...)
		}
	case *plan.UpdatePlan:
		add(n.Filter)
		add(n.SetExprs...)
		if n.Path != nil {
			add(n.Path.EqPrefix...)
			add(n.Path.Lo, n.Path.Hi)
		}
	case *plan.DeletePlan:
		add(n.Filter)
		if n.Path != nil {
			add(n.Path.EqPrefix...)
			add(n.Path.Lo, n.Path.Hi)
		}
	case *plan.InsertPlan:
		for _, row := range n.Rows {
			add(row...)
		}
	}
	return out
}

// walkScalar visits s and its operands.
func walkScalar(s plan.Scalar, fn func(plan.Scalar)) {
	if s == nil {
		return
	}
	fn(s)
	switch s := s.(type) {
	case *plan.Binary:
		walkScalar(s.L, fn)
		walkScalar(s.R, fn)
	case *plan.Not:
		walkScalar(s.X, fn)
	case *plan.Neg:
		walkScalar(s.X, fn)
	case *plan.IsNull:
		walkScalar(s.X, fn)
	case *plan.InList:
		walkScalar(s.X, fn)
		for _, i := range s.List {
			walkScalar(i, fn)
		}
	case *plan.InSubquery:
		walkScalar(s.X, fn)
	case *plan.Like:
		walkScalar(s.X, fn)
		walkScalar(s.Pattern, fn)
	case *plan.Cast:
		walkScalar(s.X, fn)
	}
}
