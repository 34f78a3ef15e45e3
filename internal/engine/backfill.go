package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/schemaver"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

// backfiller migrates cold rows to the newest schema encoding in the
// background so an online ALTER's debt does not live forever. Foreground
// DML already upgrades every row it rewrites (lazy migration); the
// backfiller walks the rest of the heap in one-page batches, each batch
// its own WAL'd micro-transaction taken and released under the same
// latch order as any statement (ddlMu shared, then the table's write
// latch), so it yields to foreground traffic at page granularity and a
// crash mid-backfill loses at most one uncommitted batch.
//
// Two row repairs are version-sensitive and run only once the schema
// chain has pruned to a single version (no live snapshot can read the
// old shape anymore): nulling out a Dropped slot's retained bytes and
// coercing a widened column's stored INTs to FLOAT. Arity padding (ADD
// COLUMN) is safe at any time — decode already pads, the rewrite just
// materializes it. Rows with a live MVCC version chain are skipped and
// retried on a later pass (rewriting under a chain would fight the
// version store for the slot).
type backfiller struct {
	db *DB

	mu      sync.Mutex
	pending []string          // queued tables, FIFO, deduped
	queued  map[string]bool   // lowercased name -> in pending
	parked  map[string]string // blocked tables awaiting a nudge
	running bool

	tracker *schemaver.Tracker
}

// backfillBatchRows caps how many live records one batch (one page
// visit) rewrites before releasing its latches. Pages hold fewer rows
// than this in practice; the cap only matters for tiny records.
const backfillBatchRows = 512

// backfill returns the lazily created worker state.
func (db *DB) backfill() *backfiller {
	db.backfillOnce.Do(func() {
		db.backfillState = &backfiller{
			db:      db,
			queued:  make(map[string]bool),
			parked:  make(map[string]string),
			tracker: schemaver.NewTracker(),
		}
	})
	return db.backfillState
}

// BackfillStatus snapshots per-table backfill progress. Tables never
// touched by an online ALTER are absent.
func (db *DB) BackfillStatus() []schemaver.Progress {
	return db.backfill().tracker.Snapshot()
}

// NudgeBackfill re-queues parked backfills. Session ends call it (the
// GC horizon may have advanced past the snapshot that blocked a prune);
// status probes call it so a "stuck" verdict is never one nudge stale.
func (db *DB) NudgeBackfill() { db.backfill().nudge() }

// WaitBackfill blocks until every queued backfill reports done, or the
// timeout expires. Intended for tests, benchmarks, and mtdsql's
// .migrate-status; foreground traffic never needs it.
func (db *DB) WaitBackfill(timeout time.Duration) error {
	b := db.backfill()
	deadline := time.Now().Add(timeout)
	for {
		b.nudge()
		if n := b.tracker.Pending(); n == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("engine: backfill incomplete after %v: %d table(s) pending", timeout, b.tracker.Pending())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// enqueue queues a table for backfill and ensures the worker runs.
func (b *backfiller) enqueue(table string) {
	k := strings.ToLower(table)
	b.mu.Lock()
	b.tracker.Begin(table)
	delete(b.parked, k)
	if !b.queued[k] {
		b.queued[k] = true
		b.pending = append(b.pending, table)
	}
	start := !b.running
	if start {
		b.running = true
	}
	b.mu.Unlock()
	if start {
		go b.run()
	}
}

// nudge re-queues every parked table. Cheap when nothing is parked.
func (b *backfiller) nudge() {
	b.mu.Lock()
	if len(b.parked) == 0 {
		b.mu.Unlock()
		return
	}
	for k, name := range b.parked {
		if !b.queued[k] {
			b.queued[k] = true
			b.pending = append(b.pending, name)
		}
		delete(b.parked, k)
	}
	start := !b.running
	if start {
		b.running = true
	}
	b.mu.Unlock()
	if start {
		go b.run()
	}
}

// run drains the queue and exits; enqueue/nudge restart it. The
// drain-and-exit shape means there is no long-lived goroutine to shut
// down: an idle database has no backfill worker at all.
func (b *backfiller) run() {
	for {
		b.mu.Lock()
		if len(b.pending) == 0 {
			b.running = false
			b.mu.Unlock()
			return
		}
		name := b.pending[0]
		b.pending = b.pending[1:]
		delete(b.queued, strings.ToLower(name))
		b.mu.Unlock()

		done, progressed, err := b.pass(name)
		switch {
		case err != nil:
			// Log down (crash) or table dropped: abandon the table. A
			// recovery rebuilds a fresh DB whose chains are collapsed.
			b.tracker.Update(name, func(p *schemaver.Progress) { p.Done = true })
		case done:
			b.tracker.Update(name, func(p *schemaver.Progress) {
				p.Done = true
				p.IdlePasses = 0
			})
		default:
			// Blocked on live snapshots or chained rows: park until a
			// transaction ends and nudges us, instead of spinning.
			b.tracker.Update(name, func(p *schemaver.Progress) {
				if !progressed {
					p.IdlePasses++
				} else {
					p.IdlePasses = 0
				}
			})
			b.mu.Lock()
			k := strings.ToLower(name)
			if !b.queued[k] {
				b.parked[k] = name
			}
			b.mu.Unlock()
		}
		b.db.maybeCheckpoint()
	}
}

// pass walks the whole table once in one-page batches. It reports
// whether the table is fully migrated (no stale encodings remain and
// the schema chain has collapsed to one version) and whether the pass
// rewrote anything (for idle-pass accounting).
func (b *backfiller) pass(name string) (done bool, progressed bool, err error) {
	db := b.db
	var (
		sc        *storage.HeapScanner
		remaining int64 // stale rows this pass could not repair yet
		rewrote   int64
		single    bool
	)
	b.tracker.Update(name, func(p *schemaver.Progress) { p.Passes++ })
	for {
		db.ddlMu.RLock()
		t, terr := db.cat.Table(name)
		if terr != nil {
			db.ddlMu.RUnlock()
			return false, rewrote > 0, terr // dropped underneath us
		}
		t.Mu.Lock()
		if sc == nil {
			// Pages appended after this snapshot hold only freshly encoded
			// rows, so scanning the snapshot list is a complete pass.
			sc = t.Heap.Scanner()
		}
		// Repairs that erase old-version state wait for the chain to
		// collapse: once no snapshot's beginTS can reach an older version,
		// the old shape is unobservable and its bytes are garbage.
		t.Schemas.Prune(db.txns.Horizon())
		single = t.Schemas.Len() == 1

		rids, recs, ok, serr := sc.NextPage()
		var wrote int64
		if serr == nil && ok {
			wrote, remaining, serr = b.migratePage(t, rids, recs, single, remaining)
			rewrote += wrote
		}
		t.Mu.Unlock()
		db.ddlMu.RUnlock()
		if serr != nil {
			return false, rewrote > 0, serr
		}
		if !ok {
			break
		}
		b.tracker.Update(name, func(p *schemaver.Progress) {
			p.Batches++
			p.Scanned += int64(len(rids))
			p.Rewritten += wrote
		})
		// Yield between batches so foreground statements contending for
		// the same latch get scheduled.
		runtime.Gosched()
	}
	return remaining == 0 && single, rewrote > 0, nil
}

// migratePage repairs one page's records in place. Called under the
// table's write latch; record slices are arena copies, so rewriting the
// page under them is safe. The WAL scope is opened lazily on the first
// actual rewrite: a batch that finds nothing to repair — the common
// case once a table converges — touches the log not at all, so idle
// re-passes are free and deterministic for crash-site accounting.
func (b *backfiller) migratePage(t *catalog.Table, rids []storage.RID, recs [][]byte, single bool, remaining int64) (wrote, rem int64, err error) {
	var scope *wal.Scope
	defer func() {
		if scope == nil {
			return
		}
		t.SetWAL(nil, nil, nil)
		if err == nil && wrote > 0 {
			err = scope.Commit()
		} else {
			scope.Abort()
		}
	}()
	ensureScope := func() error {
		if scope != nil {
			return nil
		}
		s, serr := b.db.log.Begin()
		if serr != nil {
			return serr
		}
		scope = s
		t.SetWAL(scope.HeapLogger(t.Name), scope.TreeLogger(), scope)
		return nil
	}
	cols := t.Columns
	width := len(cols)
	hasDropped, hasWiden := false, false
	for _, c := range cols {
		if c.Dropped {
			hasDropped = true
		}
		if c.Type.Kind == types.KindFloat {
			hasWiden = true
		}
	}
	rem = remaining
	n := 0
	for i, rec := range recs {
		if n >= backfillBatchRows {
			break
		}
		arity, un := binary.Uvarint(rec)
		if un <= 0 {
			return wrote, rem, fmt.Errorf("engine: backfill %s: corrupt record header at %v", t.Name, rids[i])
		}
		stale := int(arity) < width
		needsScrub := single && (hasDropped || hasWiden)
		if !stale && !needsScrub {
			continue
		}
		// Rows with a live version chain belong to the version store until
		// the chain resolves; retry them on a later pass.
		if t.Vers.Pinned(rids[i]) {
			rem++
			b.tracker.Update(t.Name, func(p *schemaver.Progress) { p.Skipped++ })
			continue
		}
		row, derr := types.DecodeRowInto(nil, rec, width)
		if derr != nil {
			return wrote, rem, fmt.Errorf("engine: backfill %s: %w", t.Name, derr)
		}
		changed := stale
		if single {
			for ci, c := range cols {
				if c.Dropped && row[ci].Kind != types.KindNull {
					row[ci] = types.Null()
					changed = true
				}
				if !c.Dropped && c.Type.Kind == types.KindFloat && row[ci].Kind == types.KindInt {
					row[ci] = types.NewFloat(float64(row[ci].Int))
					changed = true
				}
			}
		} else if !stale {
			continue
		}
		if !changed {
			continue
		}
		if err = ensureScope(); err != nil {
			return wrote, rem, err
		}
		enc := types.EncodeRow(nil, row)
		uerr := t.Heap.UpdateInPlace(rids[i], enc)
		switch {
		case errors.Is(uerr, storage.ErrPageFull):
			// The padded encoding no longer fits its page. The row stays in
			// its old (still decodable) shape; a foreground update will
			// relocate it eventually. Counted, not fatal, and not blocking
			// completion — it is readable under every surviving schema.
			b.tracker.Update(t.Name, func(p *schemaver.Progress) { p.Residual++ })
		case uerr != nil:
			return wrote, rem, uerr
		default:
			wrote++
			n++
		}
	}
	return wrote, rem, nil
}
