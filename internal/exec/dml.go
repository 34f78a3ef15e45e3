package exec

import (
	"fmt"
	"slices"

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
// not be applied. errors.Is/As match Cause through Unwrap.
type RollbackFailedError struct {
	Cause  error
	RB     error
	Table  string
	Failed int
}

func (e *RollbackFailedError) Error() string {
	return fmt.Sprintf("%v (%v; table %s may be inconsistent)", e.Cause, e.RB, e.Table)
}

func (e *RollbackFailedError) Unwrap() error { return e.Cause }

// RunDML executes an INSERT, UPDATE, or DELETE plan and returns the
// number of rows affected. The caller must already hold the target
// table's write lock.
//
// Statements are atomic: every physical sub-step (heap write, index
// entry) is undo-logged as it applies, and any error replays the log
// in reverse before the write lock is released, so a failed statement
// affects zero rows and leaves the table in its pre-statement state.
func RunDML(n plan.Node, params []types.Value) (int64, error) {
	return RunDMLStats(n, params, nil)
}

// RunDMLStats is RunDML feeding executor counters into st (nil ok).
func RunDMLStats(n plan.Node, params []types.Value, st *Stats) (int64, error) {
	undo := &catalog.UndoLog{}
	count, err := RunDMLTx(n, params, st, nil, undo)
	if err == nil {
		undo.Discard()
	}
	return count, err
}

// RunDMLTx executes a DML plan on behalf of a transaction (tx nil for
// autocommit), appending physical undo steps to the caller's undo log.
// On error the statement's own suffix of the log is replayed in
// reverse — entries from earlier statements of the same transaction
// are untouched — so a failed statement affects zero rows while the
// transaction stays usable. On success the statement's entries remain
// in the log for a later full-transaction rollback; the caller owns
// their lifecycle (Discard after an autocommit success).
//
// RunDMLTx runs gather and apply back to back, which is correct under
// a whole-statement exclusive table lock (the autocommit path). The
// session path instead calls PrepareDML under shared latches, runs the
// bounded conflict wait latch-free, and ApplyDML under the exclusive
// latch — same two halves, pulled apart.
func RunDMLTx(n plan.Node, params []types.Value, st *Stats, tx *mvcc.Txn, undo *catalog.UndoLog) (int64, error) {
	pd, err := PrepareDML(n, params, st, tx)
	if err != nil {
		return 0, err
	}
	mark := undo.Mark()
	count, err := ApplyDML(pd, tx, undo)
	if err == nil {
		return count, nil
	}
	if failed, rbErr := undo.RollbackTo(mark); rbErr != nil {
		return 0, &RollbackFailedError{Cause: err, RB: rbErr, Table: pd.table.Name, Failed: failed}
	}
	return 0, err
}

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

// PrepareDML evaluates a DML plan without mutating anything: it binds
// subqueries, gathers the snapshot-visible match set, and evaluates
// VALUES/SET expressions against the pre-statement rows. The caller
// must hold at least shared latches on the target table and every
// table the plan reads, and — because binding writes into the plan's
// IN-subquery scalars — must not share n with another execution.
func PrepareDML(n plan.Node, params []types.Value, st *Stats, tx *mvcc.Txn) (*PreparedDML, error) {
	ctx := &Context{Params: params, Stats: st, Txn: tx}
	if plan.HasExecState(n) {
		// A DML plan has no operator tree of its own; this one is what
		// its subqueries' trees hang off.
		t := &Tree{}
		t.bind(params, st, tx)
		if err := t.bindSubqueries(n); err != nil {
			return nil, err
		}
	}
	switch n := n.(type) {
	case *plan.InsertPlan:
		rows := make([][]types.Value, 0, len(n.Rows))
		for _, exprs := range n.Rows {
			row := make([]types.Value, len(n.Table.Columns))
			for i, e := range exprs {
				v, err := e.Eval(nil, ctx.Params)
				if err != nil {
					return nil, err
				}
				row[n.ColMap[i]] = v
			}
			rows = append(rows, row)
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
		rids, rows, err := gatherMatches(n.Table, n.Path, n.Filter, ctx, announcePath)
		if err != nil {
			return nil, err
		}
		// Evaluate every SET expression against the pre-statement rows
		// before mutating anything, then apply the batch with unique
		// checks deferred: UPDATE t SET k = k+1 must not depend on scan
		// order.
		newRows := make([][]types.Value, len(rids))
		for i := range rids {
			oldRow := rows[i]
			newRow := append([]types.Value(nil), oldRow...)
			for j, col := range n.SetCols {
				v, err := n.SetExprs[j].Eval(oldRow, ctx.Params)
				if err != nil {
					return nil, err
				}
				newRow[col] = v
			}
			newRows[i] = newRow
		}
		return &PreparedDML{table: n.Table, verb: verbUpdate, rids: rids, oldRows: rows, newRows: newRows}, nil
	case *plan.DeletePlan:
		announce(n.Table, false, n.Table.Indexes...)
		rids, rows, err := gatherMatches(n.Table, n.Path, n.Filter, ctx, announcePath)
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
// statement's undo suffix before releasing it. The mutators' own
// first-updater-wins checks re-run here, under the latch — they are
// what makes the latch-free wait sound against writers that slip in
// after it returns.
func ApplyDML(pd *PreparedDML, tx *mvcc.Txn, undo *catalog.UndoLog) (int64, error) {
	switch pd.verb {
	case verbInsert:
		return pd.table.InsertRowsTxn(tx, pd.rows, undo)
	case verbUpdate:
		if _, err := pd.table.UpdateRowsDeferredTxn(tx, pd.rids, pd.oldRows, pd.newRows, undo); err != nil {
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
func gatherMatches(t *catalog.Table, path *plan.AccessPath, filter plan.Scalar, ctx *Context, announce pathAnnouncer) ([]storage.RID, [][]types.Value, error) {
	var rids []storage.RID
	var rows [][]types.Value
	var scratch []types.Value
	keep := func(rid storage.RID, row []types.Value) error {
		if filter != nil {
			v, err := filter.Eval(row, ctx.Params)
			if err != nil {
				return err
			}
			if !plan.IsTrue(v) {
				return nil
			}
		}
		rids = append(rids, rid)
		rows = append(rows, copyRow(row))
		return nil
	}
	if path != nil {
		var keys keyRange
		lo, hi, ok, err := keys.set(path, nil, ctx.Params)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return nil, nil, nil
		}
		page, one := announce(t, path.Index)
		snap, err := openSnapshot(ctx, t, path.Index)
		if err != nil {
			return nil, nil, err
		}
		if one {
			if ctx.Stats != nil {
				ctx.Stats.onePageReads.Add(1)
			}
			var pr pageRange
			if err := pr.load(t, path.Index, page, lo, hi); err != nil {
				return nil, nil, err
			}
			for _, e := range pr.ents {
				row, _, _, ok, err := snap.decode(t, scratch, e.rid, e.rec, nil)
				if err != nil {
					return nil, nil, err
				}
				scratch = row
				if !ok {
					continue
				}
				if err := keep(e.rid, row); err != nil {
					return nil, nil, err
				}
			}
			return rids, rows, snap.inRange(lo, hi, keep)
		}
		var it btree.Iterator
		it.HintRows(t.Heap)
		if err := it.Seek(path.Index.Tree, lo, hi); err != nil {
			return nil, nil, err
		}
		for ; it.Valid(); it.Next() {
			rid := it.RID()
			row, _, _, ok, err := snap.fetch(t, scratch, rid, nil)
			if err != nil {
				return nil, nil, err
			}
			scratch = row
			if !ok {
				continue
			}
			if err := keep(rid, row); err != nil {
				return nil, nil, err
			}
		}
		if err := it.Err(); err != nil {
			return nil, nil, err
		}
		return rids, rows, snap.inRange(lo, hi, keep)
	}
	snap, err := openSnapshot(ctx, t, nil)
	if err != nil {
		return nil, nil, err
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
			return nil, nil, err
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
			return nil, nil, err
		}
	}
	if snap != nil {
		for _, m := range snap.moved {
			if err := match(m.rid, m.rec); err != nil {
				return nil, nil, err
			}
		}
	}
	return rids, rows, nil
}
