package engine

import (
	"encoding/json"
	"fmt"

	"repro/internal/btree"
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
// (trimming any torn tail), replay the durable history onto the disk
// image, rebuild the catalog from the last checkpoint plus replayed
// schema changes, reclaim unreferenced pages, and verify invariants.
// The rebuilt state is left dirty in the buffer pool — recovery itself
// writes no checkpoint, so running it twice from the same image is
// byte-identical (idempotence).
func Recover(img *CrashImage) (*DB, *RecoverReport, error) {
	db, rep, _, err := recoverImpl(img, false)
	return db, rep, err
}

// recoverImpl is Recover with an optional replica mode. A replica's
// "losers" are not dead: they are the PRIMARY's open transactions, whose
// remaining records (and terminators) arrive later over the stream. So
// in replica mode their physical records replay too (the primary's log
// is the truth about page state), their row-level effects are journaled
// — with pre-images captured at replay position, exactly what the live
// applier would have recorded — for the applier to resume, and their
// buffered metadata (KCatalog, KPageFree) stays buffered instead of
// applying. Three further differences: every KPageAlloc is executed up
// front (on a replica allocation happens at apply time, which a crash
// can separate from the record's ingest), pages allocated by open
// transactions are exempt from the orphan sweep, and the structural
// invariant check is skipped when open transactions exist (their
// mid-statement state is consistent only at applied-commit boundaries).
func recoverImpl(img *CrashImage, replica bool) (*DB, *RecoverReport, []journalEntry, error) {
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

	cfg := img.Cfg
	pool := storage.NewBufferPool(img.Disk, cfg.MemoryBytes)
	img.Log.AttachPool(pool)
	pool.SetWALGate(img.Log)

	recs := img.Log.DurableRecords()
	rep := &RecoverReport{DurableRecords: len(recs)}

	// Pass 1: find the last checkpoint and classify transactions.
	snap := &catalog.Snapshot{}
	committed := map[uint64]bool{}
	terminated := map[uint64]bool{}
	seen := map[uint64]bool{}
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
			terminated[r.Txn] = true
		case wal.KAbort:
			terminated[r.Txn] = true
		}
		if r.Txn != 0 {
			seen[r.Txn] = true
		}
	}
	for id := range seen {
		switch {
		case committed[id]:
			rep.Committed++
		case terminated[id]:
			rep.Aborted++
		default:
			rep.Losers++
		}
	}

	// Pass 2: replay terminated transactions in log order. pageLSN tracks
	// each touched page's progress (seeded from the disk's durable
	// stamp); deferred frees from committed statements run after the
	// loop so earlier records can still redo onto those pages.
	pageLSN := map[storage.PageID]wal.LSN{}
	cur := func(id storage.PageID) wal.LSN {
		if lsn, ok := pageLSN[id]; ok {
			return lsn
		}
		lsn := img.Disk.PageLSN(id)
		pageLSN[id] = lsn
		return lsn
	}
	type freeReq struct {
		page storage.PageID
	}
	var frees []freeReq
	var journal []journalEntry
	openAlloc := map[storage.PageID]bool{}
	if replica {
		// A replica allocates pages when it APPLIES a KPageAlloc, which a
		// crash can separate from the record's ingest; on a primary the
		// allocation preceded the record and the Disk object carries it
		// across the crash. Execute every retained alloc up front
		// (idempotently) so the physical redo below never meets an
		// unallocated page, and remember which allocations belong to open
		// transactions — the orphan sweep must not reclaim them.
		for _, r := range recs {
			if r.Kind != wal.KPageAlloc {
				continue
			}
			if err := img.Disk.AllocAt(r.Page, r.Cat); err != nil {
				return nil, rep, nil, err
			}
			if r.Txn != 0 && !terminated[r.Txn] {
				openAlloc[r.Page] = true
			}
		}
	}
	ckpt := rep.CheckpointLSN
	frameStart := img.Log.Base()
	for _, r := range recs {
		start := frameStart
		frameStart = r.LSN
		open := r.Txn != 0 && !terminated[r.Txn]
		if open && !replica {
			continue // loser: its pages never reached disk
		}
		// Metadata replay: schema-shaped records older than the
		// checkpoint are already reflected in its snapshot. An open
		// transaction's catalog changes and page frees stay buffered (the
		// journal) until its commit streams in; its structural records
		// (heap growth, root moves) apply like an aborted transaction's —
		// structure survives either outcome.
		switch r.Kind {
		case wal.KBegin:
			if open {
				journal = append(journal, journalEntry{rec: r})
			}
			continue
		case wal.KCatalog:
			if open {
				journal = append(journal, journalEntry{rec: r})
				continue
			}
			if r.LSN > ckpt {
				ch, err := catalog.DecodeDDLChange(r.Data)
				if err != nil {
					return nil, rep, nil, err
				}
				if err := snap.Apply(ch); err != nil {
					return nil, rep, nil, err
				}
			}
			continue
		case wal.KHeapNewPage:
			if r.LSN > ckpt {
				if err := snap.AddHeapPage(r.Table, r.Page); err != nil {
					return nil, rep, nil, err
				}
			}
			// Fall through below to the physical redo (page format).
		case wal.KBTreeRoot:
			if r.LSN > ckpt {
				snap.SetRoot(r.Page, r.Page2)
			}
			continue
		case wal.KPageFree:
			if open {
				journal = append(journal, journalEntry{rec: r})
				continue
			}
			if committed[r.Txn] {
				frees = append(frees, freeReq{page: r.Page})
			}
			continue
		case wal.KCommit, wal.KAbort, wal.KCheckpoint, wal.KPageAlloc, wal.KSavepoint:
			continue
		}
		// Physical redo of page-addressed records.
		if !img.Disk.Allocated(r.Page) {
			rep.Unallocated++
			continue
		}
		if open {
			// Journal the row-level effect with its pre-image read at this
			// replay position — identical to what the live applier recorded
			// before the crash, because replay reproduces page state in log
			// order and the no-steal gate kept open-transaction bytes off
			// the disk image.
			switch r.Kind {
			case wal.KHeapInsert, wal.KHeapInsertAt:
				journal = append(journal, journalEntry{rec: r})
			case wal.KHeapDelete, wal.KHeapUpdate:
				pre, err := storage.ReadSlot(pool, r.Page, r.Slot)
				if err != nil {
					return nil, rep, nil, err
				}
				journal = append(journal, journalEntry{rec: r, pre: pre})
			}
		}
		if r.LSN <= cur(r.Page) {
			rep.Skipped++
			continue
		}
		if err := redoPage(pool, r); err != nil {
			return nil, rep, nil, fmt.Errorf("engine: redo %s at LSN %d: %w", r.Kind, r.LSN, err)
		}
		pageLSN[r.Page] = r.LSN
		pool.StampLSN(r.Page, r.LSN, start)
		rep.Replayed++
	}

	for _, f := range frees {
		if img.Disk.Allocated(f.page) {
			if err := pool.FreePage(f.page); err != nil {
				return nil, rep, nil, err
			}
			rep.FreedPages++
		}
	}

	// Rebuild the live catalog from the replayed model and recompute the
	// derived state the log deliberately does not carry.
	txns := mvcc.NewManager()
	cat := catalog.Restore(pool, catalog.Config{
		MemoryBytes:       cfg.MemoryBytes,
		MetaBytesPerTable: cfg.MetaBytesPerTable,
		InsertMode:        cfg.InsertMode,
		Versions:          txns,
	}, snap)
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

	db := newDB(cfg, img.Disk, pool, cat, img.Log, txns)
	db.recoveries = img.recoveries + 1
	db.replayedRecs = img.replayedRecs + int64(rep.Replayed)
	return db, rep, journal, nil
}

// redoPage applies one page-addressed record. The pageLSN check has
// already established the page is in the exact pre-record state.
func redoPage(pool *storage.BufferPool, r *wal.Record) error {
	switch r.Kind {
	case wal.KHeapNewPage:
		return storage.ReplayHeapInit(pool, r.Page)
	case wal.KHeapInsert:
		return storage.ReplayHeapInsert(pool, r.Page, r.Slot, r.Data)
	case wal.KHeapInsertAt:
		return storage.ReplayHeapInsertAt(pool, r.Page, r.Slot, r.Data)
	case wal.KHeapDelete:
		return storage.ReplayHeapDelete(pool, r.Page, r.Slot)
	case wal.KHeapUpdate:
		return storage.ReplayHeapUpdate(pool, r.Page, r.Slot, r.Data)
	case wal.KBTreeInit:
		return btree.ReplayInit(pool, r.Page)
	case wal.KBTreeInsert:
		return btree.ReplayInsert(pool, r.Page, r.Key, r.RID)
	case wal.KBTreeDelete:
		return btree.ReplayDelete(pool, r.Page, r.Key)
	case wal.KBTreeUpdate:
		return btree.ReplayUpdate(pool, r.Page, r.Key, r.RID)
	case wal.KBTreeImage:
		return btree.ReplayImage(pool, r.Page, r.Data)
	}
	return fmt.Errorf("engine: unexpected redo kind %s", r.Kind)
}
