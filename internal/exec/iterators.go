package exec

import (
	"fmt"
	"sort"

	"repro/internal/btree"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// --- scans -------------------------------------------------------------------

// seqScanIter decodes, per NextBatch, every live record of one heap page
// — fetched in a single buffer-pool visit — straight into the batch's
// value arena, materializing only the columns the plan needs and
// evaluating the pushed-down filter in place.
type seqScanIter struct {
	node *plan.SeqScan
	ctx  *Context
	scan *storage.HeapScanner
	want int
	room int // capacity of a row: what the joins above grow it to
	need []bool
	snap *snapshot // nil: plain read
	mi   int       // next of snap.moved to serve
	b    *Batch
	cnt  scanCounters
}

func (it *seqScanIter) Open(ctx *Context) error {
	it.ctx = ctx
	it.scan = it.node.Table.Heap.Scanner()
	it.mi = 0
	var err error
	it.snap, err = openSnapshot(ctx, it.node.Table, nil)
	return err
}

func (it *seqScanIter) NextBatch() (*Batch, error) {
	for {
		rids, recs, ok, err := it.scan.NextPage()
		if err != nil {
			return nil, err
		}
		if !ok {
			// The pages are done; the moved chains the snapshot captured
			// form the final batch(es).
			if it.snap == nil || it.mi == len(it.snap.moved) {
				return nil, nil
			}
			rids = nil
			for ; it.mi < len(it.snap.moved) && len(recs) < BatchSize; it.mi++ {
				recs = append(recs, it.snap.moved[it.mi].rec)
			}
		}
		it.cnt.batches++
		it.b.reset()
		for i, rec := range recs {
			if it.snap != nil && rids != nil {
				if rec, ok = it.snap.visible(rids[i], rec); !ok {
					continue
				}
			}
			dst := it.b.alloc(it.want, it.room)
			row, dec, skip, err := types.DecodeRowPartial(dst, rec, it.need, it.want)
			if err != nil {
				return nil, err
			}
			it.cnt.decoded += int64(dec)
			it.cnt.skipped += int64(skip)
			if it.node.Filter != nil {
				v, err := it.node.Filter.Eval(row, &it.ctx.Env)
				if err != nil {
					return nil, err
				}
				if !plan.IsTrue(v) {
					it.b.freeLast(dst)
					continue
				}
			}
			it.b.Rows = append(it.b.Rows, row)
		}
		if len(it.b.Rows) > 0 {
			it.cnt.rows += int64(len(it.b.Rows))
			return it.b, nil
		}
	}
}

func (it *seqScanIter) Close() error {
	it.cnt.flush(it.ctx)
	it.scan, it.snap = nil, nil // the scanner holds the file's page list
	return nil
}

// keyRange holds an index operator's search keys in buffers it keeps
// from probe to probe and from execution to execution. An index-NL join
// binds it once per execution: the head of the equality prefix that no
// outer row changes — its leading constants and parameters, such as
// Chunk Folding's Tenant, Table and Chunk — is encoded then, and each
// probe's set evaluates and appends only the rest.
type keyRange struct {
	prefix, lo, hi []byte
	head, fixed    int  // bytes of prefix, and EqPrefix elements, bind encoded
	null           bool // bind met a NULL: every range is empty
}

// bind encodes the row-independent head of path's EqPrefix under env.
func (k *keyRange) bind(path *plan.AccessPath, env *plan.Env) error {
	k.prefix, k.fixed, k.null = k.prefix[:0], 0, false
head:
	for _, e := range path.EqPrefix {
		switch e.(type) {
		case *plan.Const, *plan.ParamRef:
		default:
			break head
		}
		v, err := e.Eval(nil, env)
		if err != nil {
			return err
		}
		k.fixed++
		if k.null = v.IsNull(); k.null {
			break
		}
		k.prefix = types.EncodeKey(k.prefix, v)
	}
	k.head = len(k.prefix)
	return nil
}

// set computes the [lo, hi) key range for an access path given the row
// the path's scalars are evaluated against (nil for constants), after
// what bind encoded, if anything. lo and hi alias k's buffers: they are
// valid until the next set. ok=false means the range is provably empty
// (an equality on NULL).
func (k *keyRange) set(path *plan.AccessPath, row []types.Value, env *plan.Env) (lo, hi []byte, ok bool, err error) {
	if k.null {
		return nil, nil, false, nil
	}
	k.prefix = k.prefix[:k.head]
	for _, e := range path.EqPrefix[k.fixed:] {
		v, err := e.Eval(row, env)
		if err != nil {
			return nil, nil, false, err
		}
		if v.IsNull() {
			return nil, nil, false, nil // col = NULL matches nothing
		}
		k.prefix = types.EncodeKey(k.prefix, v)
	}
	if len(k.prefix) == 0 && path.Lo == nil && path.Hi == nil {
		return nil, nil, true, nil
	}
	lo = k.prefix
	if hi = btree.AppendPrefixSuccessor(k.hi, k.prefix); hi != nil {
		k.hi = hi
	}
	if path.Lo != nil {
		v, err := path.Lo.Eval(row, env)
		if err != nil {
			return nil, nil, false, err
		}
		if v.IsNull() {
			return nil, nil, false, nil
		}
		k.lo = types.EncodeKey(append(k.lo[:0], k.prefix...), v)
		lo = k.lo
		if !path.LoInc {
			lo = btree.AppendPrefixSuccessor(k.lo, k.lo)
		}
	}
	if path.Hi != nil {
		v, err := path.Hi.Eval(row, env)
		if err != nil {
			return nil, nil, false, err
		}
		if v.IsNull() {
			return nil, nil, false, nil
		}
		k.hi = types.EncodeKey(append(k.hi[:0], k.prefix...), v)
		hi = k.hi
		if path.HiInc {
			hi = btree.AppendPrefixSuccessor(k.hi, k.hi)
		}
		if path.Lo == nil {
			// NULL encodes lowest but is less than nothing: start just
			// past the NULL keys after the prefix.
			k.lo = types.EncodeKey(append(k.lo[:0], k.prefix...), types.Null())
			lo = btree.AppendPrefixSuccessor(k.lo, k.lo)
		}
	}
	return lo, hi, true, nil
}

// indexScanIter gathers, per NextBatch, up to BatchSize RIDs from the
// B+tree, then FETCHes each heap row with a partial decode
// (only the plan's needed columns) into the batch arena while the row's
// page is pinned — no intermediate record copy. On a heap of one page it
// reads that page instead (page): the same entries in the same order,
// batched and decoded alike, so only the fetches differ.
type indexScanIter struct {
	node    *plan.IndexScan
	ctx     *Context
	keys    keyRange
	it      btree.Iterator
	onePage bool
	page    pageRange
	pi      int // next of page.ents to serve
	done    bool
	snap    *snapshot       // nil: plain read
	extras  [][]types.Value // the snapshot's moved rows in range
	ei      int
	want    int
	room    int // capacity of a row: what the joins above grow it to
	need    []bool
	rids    []storage.RID
	b       *Batch
	cnt     scanCounters
}

func (it *indexScanIter) Open(ctx *Context) error { return it.open(ctx, announcePath) }

// open is Open with the choice of path left to announce.
func (it *indexScanIter) open(ctx *Context, announce pathAnnouncer) error {
	it.ctx = ctx
	it.done = false
	it.ei, it.pi = 0, 0
	lo, hi, ok, err := it.keys.set(&it.node.Path, nil, &ctx.Env)
	if err != nil {
		return err
	}
	if !ok {
		it.done = true
		return nil
	}
	t, ix := it.node.Table, it.node.Path.Index
	page, one := announce(t, ix)
	it.onePage = one
	if !one {
		it.it.Forget() // a recycled tree's cursor remembers a leaf of an earlier statement
		it.it.HintRows(t.Heap)
	}
	if it.snap, err = openSnapshot(ctx, t, ix); err != nil {
		return err
	}
	err = it.snap.inRange(lo, hi, func(_ storage.RID, row []types.Value) error {
		it.extras = append(it.extras, row)
		return nil
	})
	if err != nil {
		return err
	}
	if one {
		it.cnt.onePage++
		return it.page.load(t, ix, page, lo, hi)
	}
	return it.it.Seek(ix.Tree, lo, hi)
}

// nextExtras emits the residual-surviving version rows as batches.
func (it *indexScanIter) nextExtras() (*Batch, error) {
	for it.ei < len(it.extras) {
		it.cnt.batches++
		it.b.reset()
		for it.ei < len(it.extras) && len(it.b.Rows) < BatchSize {
			row := it.extras[it.ei]
			it.ei++
			if it.node.Residual != nil {
				v, err := it.node.Residual.Eval(row, &it.ctx.Env)
				if err != nil {
					return nil, err
				}
				if !plan.IsTrue(v) {
					continue
				}
			}
			it.b.Rows = append(it.b.Rows, row)
		}
		if len(it.b.Rows) > 0 {
			it.cnt.rows += int64(len(it.b.Rows))
			return it.b, nil
		}
	}
	return nil, nil
}

func (it *indexScanIter) NextBatch() (*Batch, error) {
	if it.done {
		return nil, nil
	}
	for {
		it.rids = it.rids[:0]
		var ents []pageEntry // one page: the batch's entries
		if it.onePage {
			ents = it.page.ents[it.pi:min(it.pi+BatchSize, len(it.page.ents))]
			it.pi += len(ents)
			for _, e := range ents {
				it.rids = append(it.rids, e.rid)
			}
		} else {
			for len(it.rids) < BatchSize && it.it.Valid() {
				it.rids = append(it.rids, it.it.RID())
				it.it.Next()
			}
			if err := it.it.Err(); err != nil && len(it.rids) == 0 {
				return nil, err
			}
		}
		if len(it.rids) == 0 {
			b, err := it.nextExtras()
			if err != nil || b != nil {
				return b, err
			}
			it.done = true
			return nil, nil
		}
		it.cnt.batches++
		it.b.reset()
		for i, rid := range it.rids {
			dst := it.b.alloc(it.want, it.room)
			row, dec, skip, ok, err := it.row(dst, rid, ents, i)
			if err != nil {
				return nil, err
			}
			if !ok {
				it.b.freeLast(dst)
				continue
			}
			it.cnt.decoded += int64(dec)
			it.cnt.skipped += int64(skip)
			if it.node.Residual != nil {
				v, err := it.node.Residual.Eval(row, &it.ctx.Env)
				if err != nil {
					return nil, err
				}
				if !plan.IsTrue(v) {
					it.b.freeLast(dst)
					continue
				}
			}
			it.b.Rows = append(it.b.Rows, row)
		}
		if len(it.b.Rows) > 0 {
			it.cnt.rows += int64(len(it.b.Rows))
			// Nothing follows a spent range without snapshot extras.
			it.b.Last = len(it.extras) == 0 && (it.onePage && it.pi == len(it.page.ents) ||
				!it.onePage && !it.it.Valid() && it.it.Err() == nil)
			return it.b, nil
		}
	}
}

// row decodes the batch's ith row, at rid, into dst: from the record
// the one-page read holds in ents, or fetched from the heap.
func (it *indexScanIter) row(dst []types.Value, rid storage.RID, ents []pageEntry, i int) ([]types.Value, int, int, bool, error) {
	if it.onePage {
		return it.snap.decode(it.node.Table, dst, rid, ents[i].rec, it.need)
	}
	return it.snap.fetch(it.node.Table, dst, rid, it.need)
}

func (it *indexScanIter) Close() error {
	it.it.Release() // a LIMIT may close the scan mid-range
	it.cnt.flush(it.ctx)
	it.snap, it.extras = nil, nil
	return nil
}

// rowsOut serves rows an operator computed at Open as batches; values,
// aggregation, sort and materialize embed it for NextBatch and Close.
// The rows are the operator's own, so they outlive any batch.
type rowsOut struct {
	rows [][]types.Value
	b    Batch
}

func (o *rowsOut) NextBatch() (*Batch, error) {
	if len(o.rows) == 0 {
		return nil, nil
	}
	n := min(len(o.rows), BatchSize)
	o.b.Rows = o.rows[:n:n]
	o.rows = o.rows[n:]
	return &o.b, nil
}

// Close drops the rows: they are one execution's row set.
func (o *rowsOut) Close() error {
	o.rows, o.b.Rows = nil, nil
	return nil
}

type valuesIter struct {
	node *plan.Values
	rowsOut
}

func (it *valuesIter) Open(ctx *Context) error {
	it.rows = make([][]types.Value, len(it.node.Rows))
	for r, exprs := range it.node.Rows {
		row := make([]types.Value, len(exprs))
		for i, e := range exprs {
			v, err := e.Eval(nil, &ctx.Env)
			if err != nil {
				return err
			}
			row[i] = v
		}
		it.rows[r] = row
	}
	return nil
}

// --- filter / project ---------------------------------------------------------

// filterIter compacts the child's batch in place (the rows survive
// untouched; only the Rows index shrinks, and the child rebuilds it on
// its next fill anyway).
type filterIter struct {
	child Iterator
	cond  plan.Scalar
	ctx   *Context
}

func (it *filterIter) Open(ctx *Context) error {
	it.ctx = ctx
	return it.child.Open(ctx)
}

func (it *filterIter) NextBatch() (*Batch, error) {
	for {
		b, err := it.child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		keep := b.Rows[:0]
		for _, row := range b.Rows {
			v, err := it.cond.Eval(row, &it.ctx.Env)
			if err != nil {
				return nil, err
			}
			if plan.IsTrue(v) {
				keep = append(keep, row)
			}
		}
		b.Rows = keep
		if len(b.Rows) > 0 {
			return b, nil
		}
	}
}

func (it *filterIter) Close() error { return it.child.Close() }

// projectIter evaluates the output expressions of a whole child batch
// into its own arena, so projection allocates nothing per row. When
// every expression is a column reference, ords holds their ordinals
// and a row is copied by ordinal instead.
type projectIter struct {
	child Iterator
	exprs []plan.Scalar
	ords  []int
	room  int // capacity of a row: what the joins above grow it to
	ctx   *Context
	b     *Batch
}

func (it *projectIter) Open(ctx *Context) error {
	it.ctx = ctx
	return it.child.Open(ctx)
}

func (it *projectIter) NextBatch() (*Batch, error) {
	b, err := it.child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	it.b.reset()
	for _, row := range b.Rows {
		out := it.b.alloc(len(it.exprs), it.room)
		if it.ords != nil {
			for i, o := range it.ords {
				out[i] = row[o]
			}
		} else {
			for i, e := range it.exprs {
				v, err := e.Eval(row, &it.ctx.Env)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
		}
		it.b.Rows = append(it.b.Rows, out)
	}
	it.b.Last = b.Last
	return it.b, nil
}

func (it *projectIter) Close() error { return it.child.Close() }

// --- joins ---------------------------------------------------------------------

// joinCore is what the three joins share: the walk over the outer input
// and the output side. nextBatch hands each outer row to the join's
// match function, which writes each candidate outer‖inner row where
// next says and hands it to keep, which keeps it if the residual
// accepts it; an outer row of a LEFT JOIN that kept nothing is
// NULL-extended. A batch closes once it holds BatchSize rows, always on
// an outer-row boundary, so a LIMIT above a join stops it within one
// batch of work. The outer batch is held across calls, which is within
// the ownership rule: it is replaced only by this join's own pull.
//
// The first kept row of an outer row is that row grown in place, into
// its spare capacity (see Batch); later ones are copies carved from the
// output arena with room for the joins above. A grown row is still the
// outer's storage, so before the join pulls its outer again it moves
// the grown rows its output batch holds into its own arena — unless the
// outer said its batch was the Last, and the pull is skipped.
type joinCore struct {
	outer      Iterator
	innerWidth int
	room       int // capacity of an output row: what the joins above grow it to
	residual   plan.Scalar
	leftJoin   bool
	ctx        *Context

	ob      *Batch // current outer batch
	oi      int
	first   int  // len(out.Rows) when the current outer row began
	inPlace bool // the row next returned last is the outer row grown
	grown   []int
	done    bool // outer exhausted
	out     *Batch
}

func (j *joinCore) open(ctx *Context) error {
	j.ctx, j.ob, j.oi, j.done = ctx, nil, 0, false
	return j.outer.Open(ctx)
}

// nextBatch fills the output batch. release, when not nil, drops what
// match holds from one call to the next: it runs before the outer input
// is pulled and before nextBatch returns.
func (j *joinCore) nextBatch(match func(orow []types.Value) error, release func()) (*Batch, error) {
	if release != nil {
		defer release()
	}
	j.out.reset()
	j.grown = j.grown[:0]
	for len(j.out.Rows) < BatchSize && !j.done {
		if j.ob == nil || j.oi == len(j.ob.Rows) {
			if j.ob != nil && j.ob.Last {
				j.done = true
				break
			}
			if release != nil {
				release()
			}
			j.moveOut()
			b, err := j.outer.NextBatch()
			if err != nil {
				return nil, err
			}
			if b == nil {
				j.done = true
				break
			}
			j.ob, j.oi = b, 0
			continue
		}
		orow := j.ob.Rows[j.oi]
		j.oi++
		j.first = len(j.out.Rows)
		if err := match(orow); err != nil {
			return nil, err
		}
		if len(j.out.Rows) == j.first && j.leftJoin {
			crow := j.next(orow)
			clear(crow[len(orow):]) // NULL-extend the inner half
			j.add(crow)
		}
	}
	j.done = j.done || j.ob != nil && j.ob.Last && j.oi == len(j.ob.Rows)
	if len(j.out.Rows) == 0 {
		return nil, nil
	}
	j.out.Last = j.done
	return j.out, nil
}

// next returns the row the next candidate for orow is written to, its
// outer half filled: orow grown in place while no kept row holds it and
// it has the capacity, else a row carved from the output arena.
func (j *joinCore) next(orow []types.Value) []types.Value {
	width := len(orow) + j.innerWidth
	if j.inPlace = len(j.out.Rows) == j.first && cap(orow) >= width; j.inPlace {
		return orow[:width]
	}
	crow := j.out.alloc(width, j.room)
	copy(crow, orow)
	return crow
}

// keep adds crow, the row next returned, if the residual accepts it.
func (j *joinCore) keep(crow []types.Value) error {
	if j.residual != nil {
		v, err := j.residual.Eval(crow, &j.ctx.Env)
		if err != nil {
			return err
		}
		if !plan.IsTrue(v) {
			j.discard(crow)
			return nil
		}
	}
	j.add(crow)
	return nil
}

// add appends crow, the row next returned, to the output.
func (j *joinCore) add(crow []types.Value) {
	if j.inPlace {
		j.grown = append(j.grown, len(j.out.Rows))
	}
	j.out.Rows = append(j.out.Rows, crow)
}

// discard drops crow, the row next returned: a carved row goes back to
// the arena, a grown one is simply overwritten by the next candidate.
func (j *joinCore) discard(crow []types.Value) {
	if !j.inPlace {
		j.out.freeLast(crow)
	}
}

// emit is next and keep for an inner row held elsewhere.
func (j *joinCore) emit(orow, irow []types.Value) error {
	crow := j.next(orow)
	copy(crow[len(orow):], irow)
	return j.keep(crow)
}

// moveOut copies the rows the output batch grew in place into the
// output arena, before the outer's next batch reuses their storage.
func (j *joinCore) moveOut() {
	for _, i := range j.grown {
		row := j.out.Rows[i]
		j.out.Rows[i] = j.out.alloc(len(row), j.room)
		copy(j.out.Rows[i], row)
	}
	j.grown = j.grown[:0]
}

func (j *joinCore) Close() error {
	j.ob = nil
	return j.outer.Close()
}

// hashJoinIter builds a hash table over its right input at Open and
// probes it with the left (outer) rows.
type hashJoinIter struct {
	joinCore
	node  *plan.HashJoin
	right Iterator
	table map[uint64][][]types.Value
	keys  []types.Value
}

// joinKeys evaluates exprs over row into it.keys; false means a key was
// NULL, which never joins.
func (it *hashJoinIter) joinKeys(exprs []plan.Scalar, row []types.Value) (bool, error) {
	for i, k := range exprs {
		v, err := k.Eval(row, &it.ctx.Env)
		if err != nil || v.IsNull() {
			return false, err
		}
		it.keys[i] = v
	}
	return true, nil
}

func (it *hashJoinIter) Open(ctx *Context) error {
	it.ctx = ctx
	it.table = make(map[uint64][][]types.Value)
	rows, err := drain(it.right, ctx)
	if err != nil {
		return err
	}
	for _, row := range rows {
		ok, err := it.joinKeys(it.node.RightKeys, row)
		if err != nil {
			return err
		}
		if ok {
			h := types.HashRow(it.keys)
			it.table[h] = append(it.table[h], row)
		}
	}
	return it.open(ctx)
}

func (it *hashJoinIter) NextBatch() (*Batch, error) { return it.nextBatch(it.probe, nil) }

func (it *hashJoinIter) probe(lrow []types.Value) error {
	ok, err := it.joinKeys(it.node.LeftKeys, lrow)
	if err != nil || !ok {
		return err
	}
candidates:
	for _, rrow := range it.table[types.HashRow(it.keys)] {
		for i, k := range it.node.RightKeys {
			rv, err := k.Eval(rrow, &it.ctx.Env)
			if err != nil {
				return err
			}
			if !types.Equal(it.keys[i], rv) {
				continue candidates
			}
		}
		if err := it.emit(lrow, rrow); err != nil {
			return err
		}
	}
	return nil
}

func (it *hashJoinIter) Close() error {
	it.table = nil
	return it.joinCore.Close()
}

// indexNLJoinIter probes the inner table's index once per outer row,
// through one cursor it seeks again for every probe. Across the probes
// of one outer batch the cursor holds its leaf and page holds the inner
// heap page last read, both pinned, so adjacent keys — the aligning
// joins' consecutive Row ids — cost neither a Fetch nor a descent. Both
// are released before NextBatch returns, whatever it returns, and before
// the outer input is pulled. A rootless index has no leaf to hold: its
// table's one page, read into rows once per Open, answers every probe
// by a binary search.
type indexNLJoinIter struct {
	joinCore
	node  *plan.IndexNLJoin
	snap  *snapshot // of the inner table; nil: plain read
	need  []bool
	keys  keyRange
	inner btree.Iterator
	page  storage.HeapReader
	paged bool // the inner index is rootless: rows answers the probes
	rows  pageRange
	cnt   scanCounters
}

func (it *indexNLJoinIter) Open(ctx *Context) error {
	t, ix := it.node.Inner, it.node.Path.Index
	// Captured once for every probe: the inner table cannot change while
	// the statement holds its latch, only lose chains to GC.
	announce(t, true, ix)
	// The cursor keeps its leaf from probe to probe, never from statement
	// to statement: only this statement's latch holds the index still.
	it.inner.Forget()
	it.inner.HintRows(t.Heap)
	if err := it.keys.bind(&it.node.Path, &ctx.Env); err != nil {
		return err
	}
	var err error
	if it.snap, err = openSnapshot(ctx, t, ix); err != nil {
		return err
	}
	if it.paged = !ix.Built(); it.paged {
		page, _, _ := t.Heap.OnePage() // InvalidPageID: an empty heap
		if err := it.rows.load(t, ix, page, nil, nil); err != nil {
			return err
		}
	}
	return it.open(ctx)
}

func (it *indexNLJoinIter) NextBatch() (*Batch, error) { return it.nextBatch(it.probe, it.release) }

// release unpins what the probes hold.
func (it *indexNLJoinIter) release() {
	it.inner.Release()
	it.page.Release()
}

func (it *indexNLJoinIter) probe(orow []types.Value) error {
	lo, hi, ok, err := it.keys.set(&it.node.Path, orow, &it.ctx.Env)
	if err != nil || !ok { // !ok: NULL key, no match possible
		return err
	}
	if it.paged {
		for _, e := range it.rows.within(lo, hi) {
			if err := it.join(orow, e.rid, e.rec); err != nil {
				return err
			}
		}
	} else {
		inner, t := &it.inner, it.node.Inner
		if err := inner.Seek(it.node.Path.Index.Tree, lo, hi); err != nil {
			return err
		}
		for ; inner.Valid(); inner.Next() {
			rid := inner.RID()
			rec, err := it.page.Record(t.Heap, rid)
			if err != nil {
				return err
			}
			if err := it.join(orow, rid, rec); err != nil {
				return err
			}
		}
		if err := inner.Err(); err != nil {
			return err
		}
	}
	return it.snap.inRange(lo, hi, func(_ storage.RID, irow []types.Value) error {
		it.cnt.rows++
		return it.emit(orow, irow)
	})
}

// join emits orow joined with the inner record rec at rid, if the
// statement's snapshot sees it; the record decodes straight into the
// output row.
func (it *indexNLJoinIter) join(orow []types.Value, rid storage.RID, rec []byte) error {
	crow := it.next(orow)
	_, dec, skip, ok, err := it.snap.decode(it.node.Inner, crow[len(orow):], rid, rec, it.need)
	if err != nil {
		return err
	}
	if !ok {
		it.discard(crow)
		return nil
	}
	it.cnt.rows++
	it.cnt.decoded += int64(dec)
	it.cnt.skipped += int64(skip)
	return it.keep(crow)
}

func (it *indexNLJoinIter) Close() error {
	it.cnt.flush(it.ctx)
	it.snap = nil
	return it.joinCore.Close()
}

// nlJoinIter buffers its right input at Open and pairs every left
// (outer) row with all of it.
type nlJoinIter struct {
	joinCore
	right     Iterator
	rightRows [][]types.Value
}

func (it *nlJoinIter) Open(ctx *Context) error {
	var err error
	if it.rightRows, err = drain(it.right, ctx); err != nil {
		return err
	}
	return it.open(ctx)
}

func (it *nlJoinIter) NextBatch() (*Batch, error) { return it.nextBatch(it.pair, nil) }

func (it *nlJoinIter) Close() error {
	it.rightRows = nil
	return it.joinCore.Close()
}

func (it *nlJoinIter) pair(lrow []types.Value) error {
	for _, rrow := range it.rightRows {
		if err := it.emit(lrow, rrow); err != nil {
			return err
		}
	}
	return nil
}

// --- aggregation ----------------------------------------------------------------

type aggState struct {
	group  []types.Value
	counts []int64
	sums   []types.Value // running SUM/MIN/MAX per agg
}

func newAggState(group []types.Value, aggs int) *aggState {
	st := &aggState{group: group, counts: make([]int64, aggs), sums: make([]types.Value, aggs)}
	for i := range st.sums {
		st.sums[i] = types.Null()
	}
	return st
}

type hashAggIter struct {
	node  *plan.HashAggregate
	child Iterator
	rowsOut
}

func (it *hashAggIter) Open(ctx *Context) error {
	if err := it.child.Open(ctx); err != nil {
		return err
	}
	defer it.child.Close()
	// Accumulation reads each row once and retains only evaluated
	// group/aggregate values, so batch rows need no copying and a
	// scan→aggregate pipeline runs without per-row allocation.
	var groups []*aggState
	byKey := map[uint64][]*aggState{}
	gvals := make([]types.Value, len(it.node.GroupBy))
	for {
		b, err := it.child.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for _, row := range b.Rows {
			for i, g := range it.node.GroupBy {
				v, err := g.Eval(row, &ctx.Env)
				if err != nil {
					return err
				}
				gvals[i] = v
			}
			h := types.HashRow(gvals)
			var st *aggState
			for _, cand := range byKey[h] {
				if sameGroup(cand.group, gvals) {
					st = cand
					break
				}
			}
			if st == nil {
				st = newAggState(copyRow(gvals), len(it.node.Aggs))
				byKey[h] = append(byKey[h], st)
				groups = append(groups, st)
			}
			for i, spec := range it.node.Aggs {
				if err := accumulate(st, i, spec, row, &ctx.Env); err != nil {
					return err
				}
			}
		}
	}
	// Global aggregation over an empty input still emits one row.
	if len(it.node.GroupBy) == 0 && len(groups) == 0 {
		groups = append(groups, newAggState(nil, len(it.node.Aggs)))
	}
	it.rows = make([][]types.Value, len(groups))
	for g, st := range groups {
		out := make([]types.Value, 0, len(st.group)+len(it.node.Aggs))
		out = append(out, st.group...)
		for i, spec := range it.node.Aggs {
			switch spec.Func {
			case plan.AggCount, plan.AggCountStar:
				out = append(out, types.NewInt(st.counts[i]))
			case plan.AggSum, plan.AggMin, plan.AggMax:
				out = append(out, st.sums[i])
			case plan.AggAvg:
				if st.counts[i] == 0 {
					out = append(out, types.Null())
				} else {
					f, err := types.Cast(st.sums[i], types.KindFloat)
					if err != nil {
						return err
					}
					out = append(out, types.NewFloat(f.Float()/float64(st.counts[i])))
				}
			}
		}
		it.rows[g] = out
	}
	return nil
}

// sameGroup compares rows position by position, NULLs equal to each
// other (SQL GROUP BY / DISTINCT semantics).
func sameGroup(a, b []types.Value) bool {
	for i := range a {
		if a[i].IsNull() || b[i].IsNull() {
			if a[i].IsNull() != b[i].IsNull() {
				return false
			}
		} else if !types.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func accumulate(st *aggState, i int, spec plan.AggSpec, row []types.Value, env *plan.Env) error {
	if spec.Func == plan.AggCountStar {
		st.counts[i]++
		return nil
	}
	v, err := spec.Arg.Eval(row, env)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // aggregates skip NULLs
	}
	st.counts[i]++
	switch spec.Func {
	case plan.AggCount:
	case plan.AggSum, plan.AggAvg:
		if st.sums[i].IsNull() {
			st.sums[i] = v
		} else {
			sum, err := addValues(st.sums[i], v)
			if err != nil {
				return err
			}
			st.sums[i] = sum
		}
	case plan.AggMin:
		if st.sums[i].IsNull() {
			st.sums[i] = v
		} else if c, err := types.Compare(v, st.sums[i]); err != nil {
			return err
		} else if c < 0 {
			st.sums[i] = v
		}
	case plan.AggMax:
		if st.sums[i].IsNull() {
			st.sums[i] = v
		} else if c, err := types.Compare(v, st.sums[i]); err != nil {
			return err
		} else if c > 0 {
			st.sums[i] = v
		}
	}
	return nil
}

func addValues(a, b types.Value) (types.Value, error) {
	if a.Kind == types.KindInt && b.Kind == types.KindInt {
		return types.NewInt(a.Int + b.Int), nil
	}
	af, err := types.Cast(a, types.KindFloat)
	if err != nil {
		return types.Null(), fmt.Errorf("exec: SUM over %s", a.Kind)
	}
	bf, err := types.Cast(b, types.KindFloat)
	if err != nil {
		return types.Null(), fmt.Errorf("exec: SUM over %s", b.Kind)
	}
	return types.NewFloat(af.Float() + bf.Float()), nil
}

// --- materialize / sort / limit / distinct ----------------------------------------

// materializeIter fully evaluates its child at Open — the naive
// optimizer's derived-table behaviour (the paper's Test 1).
type materializeIter struct {
	child Iterator
	rowsOut
}

func (it *materializeIter) Open(ctx *Context) (err error) {
	it.rows, err = drain(it.child, ctx)
	return err
}

// sortIter is a materialize that orders what it buffered.
type sortIter struct {
	materializeIter
	keys []plan.SortKey
}

func (it *sortIter) Open(ctx *Context) error {
	if err := it.materializeIter.Open(ctx); err != nil {
		return err
	}
	rows := it.rows
	var sortErr error
	sort.SliceStable(rows, func(a, b int) bool {
		for _, k := range it.keys {
			c, err := types.Compare(rows[a][k.Col], rows[b][k.Col])
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				return (c > 0) == k.Desc
			}
		}
		return false
	})
	return sortErr
}

// limitIter truncates the batch that straddles n and never pulls
// another.
type limitIter struct {
	child Iterator
	n     int64
	seen  int64
}

func (it *limitIter) Open(ctx *Context) error { it.seen = 0; return it.child.Open(ctx) }

func (it *limitIter) NextBatch() (*Batch, error) {
	if it.seen >= it.n {
		return nil, nil
	}
	b, err := it.child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	if rest := it.n - it.seen; int64(len(b.Rows)) > rest {
		b.Rows = b.Rows[:rest]
	}
	it.seen += int64(len(b.Rows))
	return b, nil
}

func (it *limitIter) Close() error { return it.child.Close() }

// distinctIter compacts the child's batch down to first occurrences,
// keeping its own copy of every distinct row seen.
type distinctIter struct {
	child Iterator
	seen  map[uint64][][]types.Value
}

func (it *distinctIter) Open(ctx *Context) error {
	it.seen = make(map[uint64][][]types.Value)
	return it.child.Open(ctx)
}

func (it *distinctIter) NextBatch() (*Batch, error) {
	for {
		b, err := it.child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		keep := b.Rows[:0]
	rows:
		for _, row := range b.Rows {
			h := types.HashRow(row)
			for _, prev := range it.seen[h] {
				if sameGroup(prev, row) {
					continue rows
				}
			}
			it.seen[h] = append(it.seen[h], copyRow(row))
			keep = append(keep, row)
		}
		b.Rows = keep
		if len(b.Rows) > 0 {
			return b, nil
		}
	}
}

func (it *distinctIter) Close() error {
	it.seen = nil
	return it.child.Close()
}
