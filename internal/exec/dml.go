package exec

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/mvcc"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// RollbackFailedError reports a statement whose undo replay itself
// failed: the statement's effects were only partially reverted and the
// table may be inconsistent. Cause is the error that triggered the
// rollback; RB the rollback failure; Failed how many undo steps could
// not be applied. errors.Is/As match RB through Unwrap, never Cause: a
// statement that could not be taken back is not the error that started
// it, so a conflict whose undo failed is not retried as a conflict.
type RollbackFailedError struct {
	Cause  error
	RB     error
	Table  string
	Failed int
}

func (e *RollbackFailedError) Error() string {
	return fmt.Sprintf("%v (%v; table %s may be inconsistent)", e.Cause, e.RB, e.Table)
}

func (e *RollbackFailedError) Unwrap() error { return e.RB }

type notDMLError struct{ n plan.Node }

func (e notDMLError) Error() string { return "exec: not a DML plan: " + e.n.Label() }

func errNotDML(n plan.Node) error { return notDMLError{n} }

const (
	verbInsert = iota
	verbUpdate
	verbDelete
)

// PreparedDML is the read-only half of a DML statement: the gathered
// match set and fully evaluated new rows, ready to apply. Between
// Prepare and Apply nothing is mutated, so a prepared statement can be
// dropped at no cost (a conflict discovered by the bounded wait).
type PreparedDML struct {
	table   *catalog.Table
	verb    int
	rows    [][]types.Value // insert: evaluated VALUES rows
	rids    []storage.RID   // update/delete: matched RIDs
	oldRows [][]types.Value // update/delete: matched pre-images
	newRows [][]types.Value // update: evaluated post-images
}

// Table returns the statement's target table.
func (p *PreparedDML) Table() *catalog.Table { return p.table }

// WriteSet returns the RIDs the statement will overwrite — the rows
// the bounded conflict wait must clear. Inserts return nil: a fresh
// slot cannot conflict, and unique-key collisions are detected during
// apply.
func (p *PreparedDML) WriteSet() []storage.RID {
	if p.verb == verbInsert {
		return nil
	}
	return p.rids
}

// PrepareDML evaluates a DML plan without mutating anything: it gathers
// the snapshot-visible match set and evaluates VALUES/SET expressions
// against the pre-statement rows. The caller must hold at least shared
// latches on the target table and every table the plan reads. n is only
// read; the call's IN-subquery sets die with it.
func PrepareDML(n plan.Node, params []types.Value, st *Stats, tx *mvcc.Txn) (*PreparedDML, error) {
	// A DML plan has no operator tree of its own; this one holds the
	// execution's context and what its subqueries build.
	t := &Tree{}
	t.bind(params, st, tx)
	ctx := &t.ctx
	switch n := n.(type) {
	case *plan.InsertPlan:
		w := len(n.Table.Columns)
		slab := make([]types.Value, len(n.Rows)*w)
		rows := make([][]types.Value, len(n.Rows))
		for r, exprs := range n.Rows {
			row := rowAt(slab, r, w)
			for i, e := range exprs {
				v, err := e.Eval(nil, &ctx.Env)
				if err != nil {
					return nil, err
				}
				row[n.ColMap[i]] = v
			}
			rows[r] = row
		}
		// The write set: the heap page the first row will go to (by its
		// size before normalization, which is close enough for a hint)
		// and every index. Sizing the row and searching the free-space
		// cache is work, so ask first whether hints are live.
		if len(rows) > 0 && n.Table.Heap.Prefetching() {
			var buf [256]byte // on the stack: a longer row spills to the heap
			n.Table.Heap.PrefetchInsert(len(types.EncodeRow(buf[:0], rows[0])))
		}
		announce(n.Table, false, n.Table.Indexes...)
		return &PreparedDML{table: n.Table, verb: verbInsert, rows: rows}, nil
	case *plan.UpdatePlan:
		// The write set: the indexes SET re-keys.
		for _, ix := range n.Table.Indexes {
			if slices.ContainsFunc(ix.Cols, func(c int) bool { return slices.Contains(n.SetCols, c) }) {
				announce(n.Table, false, ix)
			}
		}
		// Each match is gathered twice over: the second copy becomes its
		// new row.
		rids, rows, err := gatherMatches(n.Table, n.Path, n.Filter, ctx, announcePath, 2)
		if err != nil {
			return nil, err
		}
		// Evaluate every SET expression against the pre-statement rows
		// before mutating anything, then apply the batch with unique
		// checks deferred: UPDATE t SET k = k+1 must not depend on scan
		// order.
		oldRows, newRows := rows[:len(rids):len(rids)], rows[len(rids):]
		for i, oldRow := range oldRows {
			for j, col := range n.SetCols {
				v, err := n.SetExprs[j].Eval(oldRow, &ctx.Env)
				if err != nil {
					return nil, err
				}
				newRows[i][col] = v
			}
		}
		return &PreparedDML{table: n.Table, verb: verbUpdate, rids: rids, oldRows: oldRows, newRows: newRows}, nil
	case *plan.DeletePlan:
		announce(n.Table, false, n.Table.Indexes...)
		rids, rows, err := gatherMatches(n.Table, n.Path, n.Filter, ctx, announcePath, 1)
		if err != nil {
			return nil, err
		}
		return &PreparedDML{table: n.Table, verb: verbDelete, rids: rids, oldRows: rows}, nil
	default:
		return nil, errNotDML(n)
	}
}

// ApplyDML performs a prepared statement's physical writes, appending
// undo steps as they apply. The caller must hold the target table's
// exclusive latch for the whole call and, on error, replay the
// statement's undo suffix before releasing it (statement atomicity: a
// failed statement affects zero rows while its transaction stays
// usable). The mutators' own first-updater-wins checks re-run here,
// under the latch — they are what makes the latch-free wait sound
// against writers that slip in after it returns.
func ApplyDML(pd *PreparedDML, tx *mvcc.Txn, undo *catalog.UndoLog) (int64, error) {
	switch pd.verb {
	case verbInsert:
		return pd.table.InsertRowsTxn(tx, pd.rows, undo)
	case verbUpdate:
		if err := pd.table.UpdateRowsDeferredTxn(tx, pd.rids, pd.oldRows, pd.newRows, undo); err != nil {
			return 0, err
		}
		return int64(len(pd.rids)), nil
	default:
		return pd.table.DeleteRowsTxn(tx, pd.rids, pd.oldRows, undo)
	}
}

// gatherMatches scans via the access path (or sequentially) and buffers
// every (rid, row) whose filter evaluates to TRUE. Rows are decoded in
// full (no column pruning: SET expressions, index maintenance, and undo
// all need complete rows) into a reused scratch buffer; only matching
// rows are copied out, so rows the filter rejects cost no allocation.
// The matches wait in a pooled scratch until their count is known; the
// rows returned are the match set copies times over, in match order
// each time, cut from one slab of exactly that size.
//
// Under a transaction, matching follows the snapshot. A gathered
// version that no longer matches the physical row necessarily has an
// invisible newest writer, so the mutators' first-updater-wins check
// turns it into a conflict before any byte changes; whenever the check
// passes, the visible version and the physical row are identical.
//
// announce decides, for an index path, between the index and a heap of
// one page (see announcePath); either way the matches come in index
// order.
func gatherMatches(t *catalog.Table, path *plan.AccessPath, filter plan.Scalar, ctx *Context, announce pathAnnouncer, copies int) ([]storage.RID, [][]types.Value, error) {
	held := heldMatches.Get().(*[]types.Value)
	vals := (*held)[:0]
	var rids []storage.RID
	err := scanMatches(t, path, ctx, announce, func(rid storage.RID, row []types.Value) error {
		if filter != nil {
			v, err := filter.Eval(row, &ctx.Env)
			if err != nil {
				return err
			}
			if !plan.IsTrue(v) {
				return nil
			}
		}
		rids = append(rids, rid)
		vals = append(vals, row...)
		return nil
	})
	var rows [][]types.Value
	if err == nil && len(rids) > 0 {
		slab := make([]types.Value, 0, copies*len(vals))
		for range copies {
			slab = append(slab, vals...)
		}
		w := len(vals) / len(rids)
		rows = make([][]types.Value, copies*len(rids))
		for i := range rows {
			rows[i] = rowAt(slab, i, w)
		}
	}
	clear(vals) // the pool holds no strings of this statement
	*held = vals[:0]
	heldMatches.Put(held)
	return rids, rows, err
}

// heldMatches lends gatherMatches the scratch its matches wait in.
var heldMatches = sync.Pool{New: func() any { return new([]types.Value) }}

// scanMatches calls keep with every row the access path (nil: a heap
// scan) reaches that the statement's snapshot sees, decoded in full
// into a scratch row that keep must copy to retain.
func scanMatches(t *catalog.Table, path *plan.AccessPath, ctx *Context, announce pathAnnouncer, keep func(storage.RID, []types.Value) error) error {
	var scratch []types.Value
	if path != nil {
		var keys keyRange
		lo, hi, ok, err := keys.set(path, nil, &ctx.Env)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		page, one := announce(t, path.Index)
		snap, err := openSnapshot(ctx, t, path.Index)
		if err != nil {
			return err
		}
		if one {
			if ctx.Stats != nil {
				ctx.Stats.onePageReads.Add(1)
			}
			var pr pageRange
			if err := pr.load(t, path.Index, page, lo, hi); err != nil {
				return err
			}
			for _, e := range pr.ents {
				row, _, _, ok, err := snap.decode(t, scratch, e.rid, e.rec, nil)
				if err != nil {
					return err
				}
				scratch = row
				if !ok {
					continue
				}
				if err := keep(e.rid, row); err != nil {
					return err
				}
			}
			return snap.inRange(lo, hi, keep)
		}
		var it btree.Iterator
		it.HintRows(t.Heap)
		if err := it.Seek(path.Index.Tree, lo, hi); err != nil {
			return err
		}
		defer it.Release()
		for ; it.Valid(); it.Next() {
			rid := it.RID()
			row, _, _, ok, err := snap.fetch(t, scratch, rid, nil)
			if err != nil {
				return err
			}
			scratch = row
			if !ok {
				continue
			}
			if err := keep(rid, row); err != nil {
				return err
			}
		}
		if err := it.Err(); err != nil {
			return err
		}
		return snap.inRange(lo, hi, keep)
	}
	snap, err := openSnapshot(ctx, t, nil)
	if err != nil {
		return err
	}
	want := len(t.Columns)
	match := func(rid storage.RID, rec []byte) error {
		row, err := types.DecodeRowInto(scratch, rec, want)
		if err != nil {
			return err
		}
		scratch = row
		return keep(rid, row)
	}
	scanner := t.Heap.Scanner()
	for {
		rid, rec, ok, err := scanner.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if snap != nil {
			if rec, ok = snap.visible(rid, rec); !ok {
				continue
			}
		}
		if err := match(rid, rec); err != nil {
			return err
		}
	}
	if snap != nil {
		for _, m := range snap.moved {
			if err := match(m.rid, m.rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// rowAt is row i of a slab of rows of width w.
func rowAt(slab []types.Value, i, w int) []types.Value {
	return slab[i*w : (i+1)*w : (i+1)*w]
}
