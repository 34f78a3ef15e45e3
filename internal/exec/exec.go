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

// Context carries per-execution state: the Env scalars evaluate
// against, and what only operators read.
type Context struct {
	plan.Env
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
// A batch marked Last is followed by nil, so a consumer may stop
// pulling there.
//
// Close ends one execution, not the iterator. It drops everything that
// belongs to that execution — the Context, the transaction snapshot,
// every buffered row set (hash build, NL right side, sort or materialize
// buffer, distinct set) — and keeps what only has capacity: output
// batch arenas, RID scratch, need masks, key buffers, the re-seekable
// index cursor. A following Open rebinds all of it.
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
// at 0.11 MB, the 24 of scale 60 at 0.20 MB.
const treeBudget = 2 << 20

// Tree is one instantiated operator tree of a plan, the per-execution
// half of a compiled statement: the plan is only ever read and may be
// shared by any number of trees, a Tree holds everything an execution
// mutates, the IN-subquery sets included. It serves one execution at a
// time and may serve any number in sequence; between them it keeps the
// capacity its operators grew, so a warm statement allocates its result
// and little else.
type Tree struct {
	root Iterator
	// ctx is the running execution's Context, zero between executions:
	// every operator holds a pointer to it, so clearing it here releases
	// parameters and snapshot for all of them. subctx is the same without
	// Stats, for subquery plans, whose scans have never been counted.
	// Both reach the tree's sets through Env.Sets.
	ctx, subctx Context
	// subs are the operator trees of the plan's IN subqueries, by slot,
	// each built at its subquery's first evaluation and kept; sets are
	// what they materialized in the running execution.
	subs []Iterator
	sets []*plan.InSet
	// batches are the operators' output batches, subquery plans'
	// included: the part of a tree whose size depends on the data.
	batches []*Batch
	failed  bool
}

// Build instantiates a plan as an operator tree. n is only read.
func Build(n plan.Node) (*Tree, error) {
	t := &Tree{}
	var err error
	t.root, err = t.build(n, 0)
	return t, err
}

// InSet implements plan.InSets: the first evaluation of a subquery in
// an execution runs its plan under the snapshot the tree is bound to,
// so subqueries see the same version of the database as the enclosing
// statement.
func (t *Tree) InSet(in *plan.InSubquery) (*plan.InSet, error) {
	if in.Slot >= len(t.sets) {
		t.subs = append(t.subs, make([]Iterator, in.Slot+1-len(t.subs))...)
		t.sets = append(t.sets, make([]*plan.InSet, in.Slot+1-len(t.sets))...)
	}
	if set := t.sets[in.Slot]; set != nil {
		return set, nil
	}
	if t.subs[in.Slot] == nil {
		root, err := t.build(in.Plan, 0)
		if err != nil {
			return nil, err
		}
		t.subs[in.Slot] = root
	}
	// Indexed again after the drain: a nested subquery may have grown
	// the slices under it.
	rows, err := drain(t.subs[in.Slot], &t.subctx)
	if err != nil {
		return nil, err
	}
	t.sets[in.Slot] = plan.NewInSet(rows)
	return t.sets[in.Slot], nil
}

// bind attaches the tree to one execution's parameters, counters (nil
// ok) and snapshot (nil: the pages as they are).
func (t *Tree) bind(params []types.Value, st *Stats, tx *mvcc.Txn) {
	env := plan.Env{Params: params, Sets: t}
	t.ctx = Context{Env: env, Stats: st, Txn: tx}
	t.subctx = Context{Env: env, Txn: tx}
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
	clear(t.sets)
	t.ctx, t.subctx = Context{}, Context{}
	t.failed = t.failed || err != nil
	return err
}

// Collect runs the tree to completion under params, feeding executor
// counters into st (nil ok) and reading tx's snapshot (nil: the pages
// as they are). The returned rows are copies, owned by the caller: one
// slab a batch, each row capped at its length.
func (t *Tree) Collect(params []types.Value, st *Stats, tx *mvcc.Txn) ([][]types.Value, error) {
	var rows [][]types.Value
	err := t.run(params, st, tx, func(b *Batch) {
		n := 0
		for _, row := range b.Rows {
			n += len(row)
		}
		slab := make([]types.Value, n)
		for _, row := range b.Rows {
			n = copy(slab, row)
			rows = append(rows, slab[:n:n])
			slab = slab[n:]
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

// build instantiates n, whose rows the joins above it grow to room
// values (0: none does), so that they can grow them in place.
func (t *Tree) build(n plan.Node, room int) (Iterator, error) {
	switch n := n.(type) {
	case *plan.SeqScan:
		want := len(n.Table.Columns)
		return &seqScanIter{node: n, want: want, room: room, need: needMask(n.Needed, want), b: t.newBatch()}, nil
	case *plan.IndexScan:
		want := len(n.Table.Columns)
		return &indexScanIter{node: n, want: want, room: room, need: needMask(n.Needed, want), b: t.newBatch()}, nil
	case *plan.Values:
		return &valuesIter{node: n}, nil
	case *plan.Filter:
		child, err := t.build(n.Child, room)
		if err != nil {
			return nil, err
		}
		return &filterIter{child: child, cond: n.Cond}, nil
	case *plan.Project:
		child, err := t.build(n.Child, 0)
		if err != nil {
			return nil, err
		}
		return &projectIter{child: child, exprs: n.Exprs, ords: colOrdinals(n.Exprs), room: room, b: t.newBatch()}, nil
	case *plan.HashJoin:
		l, err := t.build(n.Left, max(room, len(n.Schema())))
		if err != nil {
			return nil, err
		}
		r, err := t.build(n.Right, 0)
		if err != nil {
			return nil, err
		}
		return &hashJoinIter{node: n, right: r, keys: make([]types.Value, len(n.RightKeys)),
			joinCore: t.joinCore(l, len(n.Right.Schema()), room, n.Residual, n.Type)}, nil
	case *plan.IndexNLJoin:
		outer, err := t.build(n.Outer, max(room, len(n.Schema())))
		if err != nil {
			return nil, err
		}
		width := len(n.Inner.Columns)
		return &indexNLJoinIter{node: n, need: needMask(n.NeededInner, width),
			joinCore: t.joinCore(outer, width, room, n.Residual, n.Type)}, nil
	case *plan.NLJoin:
		l, err := t.build(n.Left, max(room, len(n.Schema())))
		if err != nil {
			return nil, err
		}
		r, err := t.build(n.Right, 0)
		if err != nil {
			return nil, err
		}
		return &nlJoinIter{right: r, joinCore: t.joinCore(l, len(n.Right.Schema()), room, n.Cond, n.Type)}, nil
	case *plan.HashAggregate:
		child, err := t.build(n.Child, 0)
		if err != nil {
			return nil, err
		}
		return &hashAggIter{node: n, child: child}, nil
	case *plan.Sort:
		child, err := t.build(n.Child, 0)
		if err != nil {
			return nil, err
		}
		return &sortIter{materializeIter: materializeIter{child: child}, keys: n.Keys}, nil
	case *plan.Limit:
		child, err := t.build(n.Child, room)
		if err != nil {
			return nil, err
		}
		return &limitIter{child: child, n: n.N}, nil
	case *plan.Distinct:
		child, err := t.build(n.Child, room)
		if err != nil {
			return nil, err
		}
		return &distinctIter{child: child}, nil
	case *plan.Materialize:
		child, err := t.build(n.Sub, 0)
		if err != nil {
			return nil, err
		}
		return &materializeIter{child: child}, nil
	}
	// renameNode and other pass-through wrappers.
	if w, ok := n.(interface{ Child() plan.Node }); ok {
		return t.build(w.Child(), room)
	}
	return nil, fmt.Errorf("exec: no iterator for %T", n)
}

// colOrdinals returns the ordinals exprs read when every one is a
// column reference, else nil.
func colOrdinals(exprs []plan.Scalar) []int {
	ords := make([]int, len(exprs))
	for i, e := range exprs {
		c, ok := e.(*plan.ColRef)
		if !ok {
			return nil
		}
		ords[i] = c.Idx
	}
	return ords
}

func (t *Tree) joinCore(outer Iterator, innerWidth, room int, residual plan.Scalar, typ sql.JoinType) joinCore {
	return joinCore{outer: outer, innerWidth: innerWidth, room: room, residual: residual,
		leftJoin: typ == sql.LeftJoin, out: t.newBatch()}
}
