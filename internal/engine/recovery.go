package engine

import (
	"encoding/json"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/mvcc"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Crash recovery: rebuild a consistent database from the durable halves
// (disk pages + log prefix) alone.
//
// The log is redo-only, so recovery replays forward and never undoes
// page bytes. That works because of two run-time rules. First, the
// no-steal gate: a page carrying an in-flight transaction's mutation is
// never written back, so the disk holds no bytes from transactions that
// were still open at the crash ("losers" — whether a single autocommit
// statement or a multi-statement BEGIN block). Second, aborted
// transactions append their logical compensations (through the same
// loggers) before their KAbort, so replaying an aborted transaction
// start to finish lands on its compensated — invisible — state; a
// partial rollback to a SAVEPOINT logs its compensations the same way,
// so savepoint markers themselves need no replay. Recovery therefore
// replays every record whose transaction has a durable terminator
// (KCommit or KAbort) and skips loser records entirely; per-page
// idempotence comes from the pageLSN skip (apply a record iff it is
// newer than the page).
//
// Aborted transactions must replay because their structural side effects
// survive an abort: a B+tree split or a heap page added while backfilling
// stays in place even though the rows were compensated away, and later
// committed records depend on that structure. Losers cannot be depended
// on the same way — even under fine-grained conflict control, a session
// applies each statement's physical writes while holding the table's
// exclusive latch, so a loser's records for a table form contiguous
// statement-sized runs exactly as under whole-statement write locks,
// and the no-steal gate kept every page it dirtied out of the disk
// image: nothing durable follows it on the same pages. The conflict
// machinery around the latch — bounded waits on version chains, the
// reserve/publish commit pipeline — is volatile mvcc state the log
// never records: a reserved-but-unpublished commit either has a durable
// KCommit (it replays committed) or not (it is a loser and is skipped),
// and publication order only ever gated in-memory visibility, which
// every crash discards wholesale. Durability-before-visibility still
// holds because a timestamp publishes only after the commit record's
// group sync returns; commit timestamps themselves are rebuilt fresh by
// the new Manager.

// RecoverReport summarizes what recovery found and did.
type RecoverReport struct {
	// DurableRecords is the log size in records after the torn tail was
	// trimmed; CheckpointLSN is the last durable checkpoint (0 if none).
	DurableRecords int
	CheckpointLSN  wal.LSN
	// Committed / Aborted / Losers partition the transactions seen
	// (an autocommit statement is a one-statement transaction).
	Committed int
	Aborted   int
	Losers    int
	// Replayed page mutations vs Skipped (already on disk per pageLSN)
	// vs Unallocated (page since freed; nothing to redo).
	Replayed    int
	Skipped     int
	Unallocated int
	// FreedPages executed committed deferred frees; OrphanPages reclaimed
	// allocations no durable structure references (loser page allocs and
	// abandoned backfills).
	FreedPages  int
	OrphanPages int
}

// Recover rebuilds a database from a crash image: reopen the log
// (trimming any torn tail), restore the catalog from the last
// checkpoint, replay the durable history onto it and the disk image
// through the applier, reclaim unreferenced pages, and verify
// invariants. The rebuilt state is left dirty in the buffer pool —
// recovery itself writes no checkpoint, so running it twice from the
// same image is byte-identical (idempotence).
func Recover(img *CrashImage) (*DB, *RecoverReport, error) {
	db, rep, _, err := recoverImpl(img, false)
	return db, rep, err
}

// recoverImpl is Recover with an optional replica mode. A replica's
// "losers" are not dead: they are the PRIMARY's open transactions, whose
// remaining records (and terminators) arrive later over the stream. So
// in replica mode their records replay too, and they stay open in the
// returned applier, versioned as the live stream versions them and with
// their catalog changes and frees still buffered. Two further
// differences: pages allocated by open transactions are exempt from the
// orphan sweep, and the structural invariant check is skipped when open
// transactions exist (their mid-statement state is consistent only at
// applied-commit boundaries).
func recoverImpl(img *CrashImage, replica bool) (*DB, *RecoverReport, *Applier, error) {
	img.Log.Reopen()
	if replica {
		// Reopen cleared the active map (on a primary those statements
		// died with the crash). Rebuild it: the no-steal gate must keep
		// treating the primary's open transactions as live, both during
		// the replay below and for the resumed apply loop.
		img.Log.RecoverActive()
	}
	img.Disk.SetCrashed(false)
	img.Disk.SetFault(nil) // recovery is a fresh boot: planted faults die with the old process
	img.Disk.Settle()      // a grow that never reached the disk replays from the log

	cfg := img.Cfg
	pool := storage.NewBufferPool(img.Disk, cfg.MemoryBytes)
	img.Log.AttachPool(pool)
	pool.SetWALGate(img.Log)

	recs := img.Log.DurableRecords()
	rep := &RecoverReport{DurableRecords: len(recs)}

	// Pass 1: find the last checkpoint and classify transactions.
	snap := &catalog.Snapshot{}
	committed := map[uint64]bool{}
	ended := map[uint64]bool{}
	seen := map[uint64]bool{}
	var lastCommit wal.LSN
	for _, r := range recs {
		switch r.Kind {
		case wal.KCheckpoint:
			var p ckptPayload
			if err := json.Unmarshal(r.Data, &p); err != nil {
				return nil, rep, nil, fmt.Errorf("engine: checkpoint decode at LSN %d: %w", r.LSN, err)
			}
			snap = p.Catalog
			rep.CheckpointLSN = r.LSN
		case wal.KCommit:
			committed[r.Txn] = true
			ended[r.Txn] = true
			lastCommit = r.LSN
		case wal.KAbort:
			ended[r.Txn] = true
		}
		if r.Txn != 0 {
			seen[r.Txn] = true
		}
	}
	for id := range seen {
		switch {
		case committed[id]:
			rep.Committed++
		case ended[id]:
			rep.Aborted++
		default:
			rep.Losers++
		}
	}

	// Pass 2: restore the catalog as of that checkpoint and replay every
	// retained record through the applier, in log order. Checkpoint
	// records are skipped: their statistics and truncation are the live
	// stream's, and recovery writes nothing durable.
	txns := mvcc.NewManager()
	cat := catalog.Restore(pool, catalog.Config{
		MemoryBytes:       cfg.MemoryBytes,
		MetaBytesPerTable: cfg.MetaBytesPerTable,
		InsertMode:        cfg.InsertMode,
		Versions:          txns,
	}, snap)
	db := newDB(cfg, img.Disk, pool, cat, img.Log, txns)
	a := &Applier{
		db:      db,
		txns:    make(map[uint64]*applyTxn),
		pageLSN: make(map[storage.PageID]wal.LSN),
		ckpt:    rep.CheckpointLSN,
		ended:   ended,
	}
	openAlloc := map[storage.PageID]bool{}
	frameStart := img.Log.Base()
	for _, r := range recs {
		start := frameStart
		frameStart = r.LSN
		if r.Kind == wal.KCheckpoint {
			continue
		}
		if r.Txn != 0 && !ended[r.Txn] {
			if !replica && r.Kind != wal.KHeapGrow {
				// Loser: its pages never reached disk. Its grows, which
				// moved no row, replay: a committed write may use the room.
				continue
			}
			if r.Kind == wal.KPageAlloc {
				openAlloc[r.Page] = true
			}
		}
		if err := a.applyLocked(r, start); err != nil {
			return nil, rep, nil, fmt.Errorf("engine: redo %s at LSN %d: %w", r.Kind, r.LSN, err)
		}
	}
	a.ended = nil
	rep.Replayed, rep.Skipped, rep.Unallocated, rep.FreedPages = a.replayed, a.skipped, a.unallocated, a.freed

	// Recompute the derived state the log deliberately does not carry.
	if err := cat.RecomputeAll(); err != nil {
		return nil, rep, nil, err
	}

	// Orphan sweep: free any disk page no durable structure references —
	// loser allocations and abandoned index backfills. Tree walks happen
	// after replay, so the reachable sets are final. On a replica, pages
	// allocated by still-open transactions are exempt: a split mid-flight
	// at the cut point may have allocated pages not yet linked into any
	// structure, and the stream's next records will write into them.
	referenced := map[storage.PageID]bool{}
	for _, name := range cat.TableNames() {
		t, err := cat.Table(name)
		if err != nil {
			return nil, rep, nil, err
		}
		for _, p := range t.Heap.Pages() {
			referenced[p] = true
		}
		for _, ix := range t.Indexes {
			pages, err := ix.Tree.Pages()
			if err != nil {
				return nil, rep, nil, err
			}
			for _, p := range pages {
				referenced[p] = true
			}
		}
	}
	for _, id := range img.Disk.PageIDs() {
		if !referenced[id] && !openAlloc[id] {
			if err := pool.FreePage(id); err != nil {
				return nil, rep, nil, err
			}
			rep.OrphanPages++
		}
	}

	// The recovered database must satisfy every structural invariant —
	// except a replica with open transactions, whose mid-statement state
	// (a heap row inserted, its index entry still in flight) is by design
	// consistent only at applied-commit boundaries.
	if !replica || rep.Losers == 0 {
		for _, name := range cat.TableNames() {
			t, err := cat.Table(name)
			if err != nil {
				return nil, rep, nil, err
			}
			if err := t.CheckInvariants(); err != nil {
				return nil, rep, nil, fmt.Errorf("engine: post-recovery invariant violation on %s: %w", name, err)
			}
		}
	}

	db.recoveries = img.recoveries + 1
	db.replayedRecs = img.replayedRecs + int64(rep.Replayed)
	if replica {
		// The applier carries on from the durable horizon.
		db.readOnly.Store(true)
		end := img.Log.DurableLSN()
		a.cur = img.Log.ReadFrom(end)
		db.replAppliedLSN.Store(uint64(end))
		db.replAppliedCommitLSN.Store(uint64(lastCommit))
	}
	return db, rep, a, nil
}
