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
// returns nil, then Close — and then, possibly, Open again for the
// tree's next execution. NextBatch returns a non-empty batch or nil at
// end of stream; the batch and its rows stay the iterator's and are
// reused by its next NextBatch call (see Batch for the ownership rule).
//
// Close ends one execution, not the iterator. It drops everything that
// belongs to that execution — the Context, the transaction snapshot,
// every buffered row set (hash build, NL right side, sort or materialize
// buffer, distinct set) — and keeps what only has capacity: output
// batch arenas, row and RID scratch, need masks, key buffers, the
// re-seekable index cursor. A following Open rebinds all of it.
type Iterator interface {
	Open(ctx *Context) error
	NextBatch() (*Batch, error)
	Close() error
}

// treeBudget bounds what a Tree may keep between executions: the
// capacity of its operators' batches, in bytes. A batch grows with the
// widest page or join fan-out it ever held, so one unusual execution
// could otherwise pin that much for as long as the plan stays cached.
// For scale: the 14 batches of §6.2's Q2 at scale 30 over Chunk6 settle
// at 0.45 MB, the 24 of scale 60 at 1.4 MB.
const treeBudget = 2 << 20

// Tree is one instantiated operator tree of a plan, the per-execution
// half of a compiled statement: the plan is immutable and shared, a
// Tree holds everything an execution mutates. It serves one execution
// at a time and may serve any number in sequence; between them it keeps
// the capacity its operators grew, so a warm statement allocates its
// result and little else.
type Tree struct {
	root Iterator
	// ctx is the running execution's Context, zero between executions:
	// every operator holds a pointer to it, so clearing it here releases
	// parameters and snapshot for all of them. subctx is the same without
	// Stats, for subquery plans, whose scans have never been counted.
	ctx, subctx Context
	// subs are the IN-subquery scalars of the tree's own copy of the
	// plan, bound to it at Build.
	subs []*plan.InSubquery
	// batches are the operators' output batches, subquery plans'
	// included: the part of a tree whose size depends on the data.
	batches []*Batch
	failed  bool
}

// Build instantiates a plan as an operator tree. A plan that carries
// execution state (IN-subquery sets) is cloned first, once for the
// tree's lifetime, so n itself is only ever read and may be shared.
func Build(n plan.Node) (*Tree, error) {
	t := &Tree{}
	if plan.HasExecState(n) {
		n = plan.CloneForExec(n)
		if err := t.bindSubqueries(n); err != nil {
			return nil, err
		}
	}
	var err error
	t.root, err = t.build(n)
	return t, err
}

// bindSubqueries gives every InSubquery scalar of n — which must be
// private to the caller — an operator tree of its own inside t and a
// Materialize callback that runs it under the snapshot t is bound to at
// the time, so subqueries see the same version of the database as the
// enclosing statement.
func (t *Tree) bindSubqueries(n plan.Node) error {
	t.subs = plan.Subqueries(n)
	for _, in := range t.subs {
		root, err := t.build(in.Plan)
		if err != nil {
			return err
		}
		in.Materialize = func(plan.Node, []types.Value) ([][]types.Value, error) {
			return drain(root, &t.subctx)
		}
	}
	return nil
}

// bind attaches the tree to one execution's parameters, counters (nil
// ok) and snapshot (nil: the pages as they are).
func (t *Tree) bind(params []types.Value, st *Stats, tx *mvcc.Txn) {
	t.ctx = Context{Params: params, Stats: st, Txn: tx}
	t.subctx = Context{Params: params, Txn: tx}
}

// run is one execution: bind, pull every batch into sink, unbind.
func (t *Tree) run(params []types.Value, st *Stats, tx *mvcc.Txn, sink func(*Batch)) error {
	t.bind(params, st, tx)
	err := t.root.Open(&t.ctx)
	if err == nil {
		for {
			var b *Batch
			if b, err = t.root.NextBatch(); err != nil || b == nil {
				break
			}
			sink(b)
		}
		if cerr := t.root.Close(); err == nil {
			err = cerr
		}
	}
	for _, in := range t.subs {
		in.Reset()
	}
	t.ctx, t.subctx = Context{}, Context{}
	t.failed = t.failed || err != nil
	return err
}

// Collect runs the tree to completion under params, feeding executor
// counters into st (nil ok) and reading tx's snapshot (nil: the pages
// as they are). The returned rows are copies, owned by the caller.
func (t *Tree) Collect(params []types.Value, st *Stats, tx *mvcc.Txn) ([][]types.Value, error) {
	var rows [][]types.Value
	err := t.run(params, st, tx, func(b *Batch) {
		for _, row := range b.Rows {
			rows = append(rows, copyRow(row))
		}
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Drain is Collect for a result nobody reads (DB.Exec on a SELECT):
// batches are counted and dropped without any copying.
func (t *Tree) Drain(params []types.Value, st *Stats, tx *mvcc.Txn) (int64, error) {
	var count int64
	err := t.run(params, st, tx, func(b *Batch) { count += int64(len(b.Rows)) })
	return count, err
}

// Reusable reports whether the tree may serve another execution: none
// of its executions failed (a failed one may have stopped anywhere, so
// the tree is dropped, not repaired), and what it retains fits
// treeBudget.
func (t *Tree) Reusable() bool {
	if t.failed {
		return false
	}
	size := 0
	for _, b := range t.batches {
		size += b.retained()
	}
	return size <= treeBudget
}

// newBatch makes an operator's output batch and registers it with the
// tree.
func (t *Tree) newBatch() *Batch {
	b := &Batch{}
	t.batches = append(t.batches, b)
	return b
}

func (t *Tree) build(n plan.Node) (Iterator, error) {
	switch n := n.(type) {
	case *plan.SeqScan:
		want := len(n.Table.Columns)
		return &seqScanIter{node: n, want: want, need: needMask(n.Needed, want), b: t.newBatch()}, nil
	case *plan.IndexScan:
		want := len(n.Table.Columns)
		return &indexScanIter{node: n, want: want, need: needMask(n.Needed, want), b: t.newBatch()}, nil
	case *plan.Values:
		return &valuesIter{node: n}, nil
	case *plan.Filter:
		child, err := t.build(n.Child)
		if err != nil {
			return nil, err
		}
		return &filterIter{child: child, cond: n.Cond}, nil
	case *plan.Project:
		child, err := t.build(n.Child)
		if err != nil {
			return nil, err
		}
		return &projectIter{child: child, exprs: n.Exprs, b: t.newBatch()}, nil
	case *plan.HashJoin:
		l, err := t.build(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := t.build(n.Right)
		if err != nil {
			return nil, err
		}
		return &hashJoinIter{node: n, right: r, keys: make([]types.Value, len(n.RightKeys)),
			joinCore: t.joinCore(l, len(n.Right.Schema()), n.Residual, n.Type)}, nil
	case *plan.IndexNLJoin:
		outer, err := t.build(n.Outer)
		if err != nil {
			return nil, err
		}
		width := len(n.Inner.Columns)
		return &indexNLJoinIter{node: n, need: needMask(n.NeededInner, width),
			joinCore: t.joinCore(outer, width, n.Residual, n.Type)}, nil
	case *plan.NLJoin:
		l, err := t.build(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := t.build(n.Right)
		if err != nil {
			return nil, err
		}
		return &nlJoinIter{right: r, joinCore: t.joinCore(l, len(n.Right.Schema()), n.Cond, n.Type)}, nil
	case *plan.HashAggregate:
		child, err := t.build(n.Child)
		if err != nil {
			return nil, err
		}
		return &hashAggIter{node: n, child: child}, nil
	case *plan.Sort:
		child, err := t.build(n.Child)
		if err != nil {
			return nil, err
		}
		return &sortIter{materializeIter: materializeIter{child: child}, keys: n.Keys}, nil
	case *plan.Limit:
		child, err := t.build(n.Child)
		if err != nil {
			return nil, err
		}
		return &limitIter{child: child, n: n.N}, nil
	case *plan.Distinct:
		child, err := t.build(n.Child)
		if err != nil {
			return nil, err
		}
		return &distinctIter{child: child}, nil
	case *plan.Materialize:
		child, err := t.build(n.Sub)
		if err != nil {
			return nil, err
		}
		return &materializeIter{child: child}, nil
	}
	// renameNode and other pass-through wrappers.
	if w, ok := n.(interface{ Child() plan.Node }); ok {
		return t.build(w.Child())
	}
	return nil, fmt.Errorf("exec: no iterator for %T", n)
}

func (t *Tree) joinCore(outer Iterator, innerWidth int, residual plan.Scalar, typ sql.JoinType) joinCore {
	return joinCore{outer: outer, innerWidth: innerWidth, residual: residual,
		leftJoin: typ == sql.LeftJoin, out: t.newBatch()}
}
