package exec

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/types"
)

// BatchSize is the row count batch producers aim for. Scans batch at
// page granularity instead (one buffer-pool visit decodes a whole
// page), so a batch may hold more or fewer rows; consumers must only
// rely on a batch being non-empty.
const BatchSize = 64

// Batch is the unit of flow between operators, under one ownership
// rule: a batch and its rows belong to the producer and are valid only
// until the producer's next NextBatch (or Close). A consumer may shrink
// Rows in place (filter, limit and distinct do); whoever retains a row
// beyond that copies it (copyRow, drain). Sharing the Values themselves
// is safe — strings are immutable Go strings.
//
// A row's spare capacity is its own: no other row lives between its
// length and its capacity, so the consumer holding a row may write
// there. A join grows an outer row in place that way (see joinCore),
// which is why a producer carves its rows with the room the joins above
// it will grow them to (alloc), and why a grown row is still the
// producer's storage, valid only until the producer's next NextBatch.
//
// The storage outlives the execution: a Tree keeps its batches from one
// execution to the next, so after Close a batch still has its capacity
// and whatever values the last fill left there, and nothing may still
// point into it — which the rule above already guarantees, since Close
// ends the producer's last NextBatch.
type Batch struct {
	Rows [][]types.Value

	// Last reports that the producer's next NextBatch returns nil, so a
	// consumer that knows it need not pull again — a join, which must
	// move the rows it grew in place out of the way before each pull.
	// False promises nothing: producers that cannot tell say nothing.
	Last bool

	// arena backs the rows of producers that materialize values. Rows
	// are carved off its tail; when a chunk fills, a fresh one is
	// started and already-carved rows keep the old chunk alive, so
	// carved slices are never invalidated mid-batch.
	arena []types.Value
}

// reset recycles the batch for the producer's next fill. Previously
// returned rows become invalid (their storage is about to be reused).
func (b *Batch) reset() {
	b.Rows = b.Rows[:0]
	b.Last = false
	if b.arena != nil {
		b.arena = b.arena[:0]
	}
}

// alloc carves a width-value row with capacity room (at least width)
// off the arena tail. Arena chunks are reused across batches, so the
// returned slice holds stale values: the caller must write (or
// explicitly NULL) every position. Chunks double from 4 rows up to a
// full batch, so a statement that moves a handful of rows through ten
// joins does not pay for ten full-batch arenas.
func (b *Batch) alloc(width, room int) []types.Value {
	room = max(room, width)
	n := len(b.arena)
	if n+room > cap(b.arena) {
		c := min(max(2*cap(b.arena), 4*room), BatchSize*room)
		b.arena = make([]types.Value, 0, c)
		n = 0
	}
	b.arena = b.arena[:n+room]
	return b.arena[n : n+width : n+room]
}

// retained is what the batch holds on to between fills, in bytes: the
// capacity of its arena chunk and of its row index.
func (b *Batch) retained() int {
	const valueSize, sliceSize = int(unsafe.Sizeof(types.Value{})), int(unsafe.Sizeof([]types.Value{}))
	return cap(b.arena)*valueSize + cap(b.Rows)*sliceSize
}

// freeLast returns row, the most recent alloc, to the arena so a
// filtered-out row's storage is reused immediately.
func (b *Batch) freeLast(row []types.Value) {
	b.arena = b.arena[:len(b.arena)-cap(row)]
}

// copyRow clones a row out of reused batch storage. Values are shared
// (strings are immutable), only the slice is fresh.
func copyRow(row []types.Value) []types.Value {
	out := make([]types.Value, len(row))
	copy(out, row)
	return out
}

// drain opens child, runs it to completion and closes it, returning a
// retained copy of every row: the one place an input is buffered whole
// (Collect, sort, materialize, the NL-join right side, the hash build).
func drain(child Iterator, ctx *Context) ([][]types.Value, error) {
	if err := child.Open(ctx); err != nil {
		return nil, err
	}
	defer child.Close()
	var rows [][]types.Value
	for {
		b, err := child.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return rows, nil
		}
		for _, row := range b.Rows {
			rows = append(rows, copyRow(row))
		}
	}
}

// --- executor counters --------------------------------------------------------

// Stats aggregates executor counters across statements. Iterators
// accumulate locally and flush on Close, so the atomics cost nothing
// per row; safe for concurrent executions sharing one Stats.
type Stats struct {
	rowsScanned   atomic.Int64
	scanBatches   atomic.Int64
	valuesDecoded atomic.Int64
	valuesSkipped atomic.Int64
	onePageReads  atomic.Int64
}

// Counters is a point-in-time snapshot of Stats.
type Counters struct {
	// RowsScanned counts rows produced by base-table access (seq scans,
	// index scans, index-NL-join inner fetches).
	RowsScanned int64
	// ScanBatches counts page/rid batches those accesses materialized.
	ScanBatches int64
	// ValuesDecoded / ValuesSkipped count column values materialized vs
	// skipped by column pruning — the decode savings.
	ValuesDecoded int64
	ValuesSkipped int64
	// OnePageReads counts index scans and DML gathers answered from a
	// heap of one page (or none) instead of the index.
	OnePageReads int64
}

// Snapshot returns current counter values.
func (s *Stats) Snapshot() Counters {
	return Counters{
		RowsScanned:   s.rowsScanned.Load(),
		ScanBatches:   s.scanBatches.Load(),
		ValuesDecoded: s.valuesDecoded.Load(),
		ValuesSkipped: s.valuesSkipped.Load(),
		OnePageReads:  s.onePageReads.Load(),
	}
}

// Reset zeroes the counters.
func (s *Stats) Reset() {
	s.rowsScanned.Store(0)
	s.scanBatches.Store(0)
	s.valuesDecoded.Store(0)
	s.valuesSkipped.Store(0)
	s.onePageReads.Store(0)
}

// scanCounters is the per-iterator local accumulator.
type scanCounters struct {
	rows, batches, decoded, skipped, onePage int64
}

// flush adds the local counts to the execution's Stats (nil-safe) and
// zeroes them so Close is idempotent.
func (c *scanCounters) flush(ctx *Context) {
	if ctx == nil || ctx.Stats == nil {
		*c = scanCounters{}
		return
	}
	st := ctx.Stats
	st.rowsScanned.Add(c.rows)
	st.scanBatches.Add(c.batches)
	st.valuesDecoded.Add(c.decoded)
	st.valuesSkipped.Add(c.skipped)
	st.onePageReads.Add(c.onePage)
	*c = scanCounters{}
}

// needMask expands a sorted needed-ordinal list into a width-sized
// lookup mask for types.DecodeRowPartial; nil means decode everything.
func needMask(needed []int, width int) []bool {
	if needed == nil {
		return nil
	}
	m := make([]bool, width)
	for _, ord := range needed {
		if ord >= 0 && ord < width {
			m[ord] = true
		}
	}
	return m
}
