package engine

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/mvcc"
	"repro/internal/storage"
	"repro/internal/wal"
)

// This file is the follower half of WAL-shipping replication: a
// continuous applier that ingests the primary's durable frames into the
// replica's (mirror) log and replays them into pages, catalogs, and
// MVCC state, publishing each commit in log order. Reads on the replica
// go through the ordinary engine paths — an applier transaction is a
// real mvcc.Txn, its pre-images live in the ordinary version chains, so
// a snapshot pinned between commits never sees a torn transaction.

// journalEntry is one open-transaction record carried across a replica
// crash: recovery replays the primary's still-open transactions
// physically (pages must match the stream position) but cannot publish
// them, so their row-level effects — with pre-images read at the replay
// position — are handed to the resumed applier, which rebuilds the
// in-memory transaction state exactly as the pre-crash applier held it.
type journalEntry struct {
	rec *wal.Record
	pre []byte
}

// applyTxn is the applier's in-flight image of one primary transaction:
// the mvcc transaction its writes are attributed to, plus the catalog
// changes and page frees that must not take effect until its commit
// record streams in (mirroring the primary, which logs KPageFree and
// applies frees only inside Scope.Commit).
type applyTxn struct {
	tx       *mvcc.Txn
	catalogs [][]byte
	frees    []storage.PageID
}

// Applier replays a primary's WAL stream onto a replica DB. It is the
// only writer on the replica: Feed ingests a durable byte range and
// drains every whole frame under the DB's exclusive DDL fence, so
// concurrent readers (which hold the fence shared per statement)
// observe page state only at batch boundaries — and MVCC hides even
// intra-batch transactions from them. Single goroutine per replica.
type Applier struct {
	db   *DB
	cur  *wal.Cursor
	txns map[uint64]*applyTxn

	// pageLSN memoizes the replay guard (same role as recovery's): a
	// record at or below the page's stamped LSN already happened —
	// re-ingested overlap after a reconnect must be apply-twice safe.
	pageLSN map[storage.PageID]wal.LSN
}

// newApplier positions a cursor at the durable horizon — everything the
// replica's log retains was applied by recovery — and seeds telemetry.
func newApplier(db *DB) *Applier {
	end := db.log.DurableLSN()
	a := &Applier{
		db:      db,
		cur:     db.log.ReadFrom(end),
		txns:    make(map[uint64]*applyTxn),
		pageLSN: make(map[storage.PageID]wal.LSN),
	}
	db.replAppliedLSN.Store(uint64(end))
	var lastCommit wal.LSN
	for _, r := range db.log.DurableRecords() {
		if r.Kind == wal.KCommit {
			lastCommit = r.LSN
		}
	}
	db.replAppliedCommitLSN.Store(uint64(lastCommit))
	return a
}

// resume rebuilds in-flight transaction state from the recovery
// journal: begin transactions anew, re-buffer catalog changes and
// frees, and push the journaled pre-images into the version chains so
// snapshots keep resolving around the still-open writes.
func (a *Applier) resume(journal []journalEntry) error {
	db := a.db
	for _, e := range journal {
		r := e.rec
		switch r.Kind {
		case wal.KBegin:
			a.txns[r.Txn] = &applyTxn{tx: db.txns.BeginLazy()}
		case wal.KCatalog:
			at := a.txns[r.Txn]
			if at == nil {
				return fmt.Errorf("engine: journal references unknown txn %d", r.Txn)
			}
			at.catalogs = append(at.catalogs, append([]byte(nil), r.Data...))
		case wal.KPageFree:
			at := a.txns[r.Txn]
			if at == nil {
				return fmt.Errorf("engine: journal references unknown txn %d", r.Txn)
			}
			at.frees = append(at.frees, r.Page)
		case wal.KHeapInsert, wal.KHeapInsertAt, wal.KHeapDelete, wal.KHeapUpdate:
			at := a.txns[r.Txn]
			if at == nil {
				return fmt.Errorf("engine: journal references unknown txn %d", r.Txn)
			}
			t, err := db.cat.Table(r.Table)
			if err != nil {
				return err
			}
			t.Vers.RecordWrite(at.tx, storage.RID{Page: r.Page, Slot: r.Slot}, e.pre, e.pre != nil)
		default:
			return fmt.Errorf("engine: unexpected journal record %s", r.Kind)
		}
	}
	return nil
}

// Feed ingests one durable byte range shipped by the primary and
// applies every whole frame it completes. start is the stream offset of
// buf's first byte; overlap with already-held history is deduplicated,
// a gap is an error (wal.ErrStreamGap — the subscriber should
// re-subscribe from DurableLSN). Returns the new durable horizon.
func (a *Applier) Feed(start wal.LSN, buf []byte) (wal.LSN, error) {
	db := a.db
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	end, err := db.log.IngestDurable(start, buf)
	if err != nil {
		return 0, err
	}
	if err := a.drainLocked(); err != nil {
		return end, err
	}
	return end, nil
}

// AppliedLSN is the stream offset up to which every record has been
// applied; AppliedCommitLSN is the LSN of the last applied commit — the
// replica's published, snapshot-consistent position.
func (a *Applier) AppliedLSN() wal.LSN { return wal.LSN(a.db.replAppliedLSN.Load()) }

// AppliedCommitLSN reports the LSN of the newest applied commit record.
func (a *Applier) AppliedCommitLSN() wal.LSN { return wal.LSN(a.db.replAppliedCommitLSN.Load()) }

// OpenTxns reports how many primary transactions are currently
// mid-flight on the stream (begun but neither committed nor aborted).
func (a *Applier) OpenTxns() int {
	a.db.ddlMu.RLock()
	defer a.db.ddlMu.RUnlock()
	return len(a.txns)
}

// drainLocked replays every whole frame between the cursor and the
// durable horizon. Caller holds db.ddlMu exclusively.
func (a *Applier) drainLocked() error {
	for {
		start := a.cur.Pos()
		r, ok, err := a.cur.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := a.applyLocked(r, start); err != nil {
			return fmt.Errorf("engine: apply %s at LSN %d: %w", r.Kind, r.LSN, err)
		}
		a.db.replAppliedLSN.Store(uint64(r.LSN))
	}
}

// applyLocked replays one record. start is the frame's first byte (the
// recLSN a dirty page remembers); r.LSN is the frame's end.
func (a *Applier) applyLocked(r *wal.Record, start wal.LSN) error {
	db := a.db
	switch r.Kind {
	case wal.KBegin:
		a.txns[r.Txn] = &applyTxn{tx: db.txns.BeginLazy()}
		return nil

	case wal.KCommit:
		at := a.txns[r.Txn]
		if at == nil {
			return fmt.Errorf("engine: commit for unknown txn %d", r.Txn)
		}
		// Catalog changes first (a reader admitted after the commit
		// publishes must see the new schema), then publish the commit
		// timestamp, then release pages — the primary's Scope.Commit
		// order. The applier is the only transaction ever in the
		// reservation queue, so MarkDurable publishes immediately.
		for _, payload := range at.catalogs {
			ch, err := catalog.DecodeDDLChange(payload)
			if err != nil {
				return err
			}
			if err := a.applyCatalogLocked(ch); err != nil {
				return err
			}
		}
		db.txns.ReserveCommit(at.tx)
		db.txns.MarkDurable(at.tx)
		for _, p := range at.frees {
			if db.disk.Allocated(p) {
				if err := db.pool.FreePage(p); err != nil {
					return err
				}
			}
		}
		delete(a.txns, r.Txn)
		db.replAppliedCommitLSN.Store(uint64(r.LSN))
		return nil

	case wal.KAbort:
		if at := a.txns[r.Txn]; at != nil {
			// The primary's compensation writes were logged as ordinary
			// heap records and already replayed here; aborting the mvcc
			// transaction makes its chain entries invisible (and
			// GC-collectable) without touching pages.
			at.tx.Abort()
			delete(a.txns, r.Txn)
		}
		return nil

	case wal.KCatalog:
		at := a.txns[r.Txn]
		if at == nil {
			return fmt.Errorf("engine: catalog record for unknown txn %d", r.Txn)
		}
		at.catalogs = append(at.catalogs, append([]byte(nil), r.Data...))
		return nil

	case wal.KPageFree:
		at := a.txns[r.Txn]
		if at == nil {
			return fmt.Errorf("engine: page-free record for unknown txn %d", r.Txn)
		}
		at.frees = append(at.frees, r.Page)
		return nil

	case wal.KPageAlloc:
		// Idempotent exact-ID allocation: replays of re-ingested overlap
		// and follower-recovery's alloc pre-pass both land on ok.
		return db.disk.AllocAt(r.Page, r.Cat)

	case wal.KCheckpoint:
		return a.checkpointLocked(start)

	case wal.KSavepoint:
		return nil // marker only; rollback arrives as compensation writes

	case wal.KBTreeRoot:
		// Root moves are catalog metadata, not page bytes. The matching
		// index is "whichever tree's root is the old page" — same rule
		// recovery's snapshot uses. No match is fine: the index may have
		// been dropped later in already-applied history.
		a.setRootLocked(r.Page, r.Page2)
		return nil

	case wal.KHeapNewPage:
		if err := a.redoLocked(r, start); err != nil {
			return err
		}
		t, err := db.cat.Table(r.Table)
		if err != nil {
			return err
		}
		t.Heap.AdoptPage(r.Page)
		return nil

	case wal.KHeapInsert, wal.KHeapInsertAt, wal.KHeapDelete, wal.KHeapUpdate:
		at := a.txns[r.Txn]
		if at == nil {
			return fmt.Errorf("engine: heap record for unknown txn %d", r.Txn)
		}
		t, err := db.cat.Table(r.Table)
		if err != nil {
			return err
		}
		// Version the row BEFORE redo: the pre-image is whatever the
		// slot holds now. Inserts version with a nil pre-image (the slot
		// held nothing a reader could see). Skipped redo (re-ingested
		// overlap) still must not re-version — the chain entry from the
		// first pass is live — so gate both on the replay guard.
		//
		// The stream carries physical heap records, not key changes, and
		// an index may be adopted after a record was versioned, so every
		// delete and update (a non-nil pre-image) is recorded as moved —
		// the conservative value: follower reads enumerate the chain. An
		// insert never is.
		if r.LSN > a.stampedLSN(r.Page) {
			var pre []byte
			if r.Kind == wal.KHeapDelete || r.Kind == wal.KHeapUpdate {
				pre, err = storage.ReadSlot(db.pool, r.Page, r.Slot)
				if err != nil {
					return err
				}
			}
			t.Vers.RecordWrite(at.tx, storage.RID{Page: r.Page, Slot: r.Slot}, pre, pre != nil)
		}
		return a.redoLocked(r, start)

	default:
		// Remaining kinds are page-addressed b-tree records.
		return a.redoLocked(r, start)
	}
}

// redoLocked replays one page-addressed record through the recovery
// redo dispatch, guarded by the page's stamped LSN so re-applied
// overlap is a no-op.
func (a *Applier) redoLocked(r *wal.Record, start wal.LSN) error {
	db := a.db
	if !db.disk.Allocated(r.Page) {
		// Page freed by an already-applied committed drop; the record
		// predates the free in a re-ingested overlap.
		return nil
	}
	if r.LSN <= a.stampedLSN(r.Page) {
		return nil
	}
	if err := redoPage(db.pool, r); err != nil {
		return err
	}
	a.pageLSN[r.Page] = r.LSN
	db.pool.StampLSN(r.Page, r.LSN, start)
	return nil
}

// stampedLSN memoizes the page's current LSN, reading through the
// buffer pool (which may be ahead of disk for a dirty page).
func (a *Applier) stampedLSN(id storage.PageID) wal.LSN {
	if lsn, ok := a.pageLSN[id]; ok {
		return lsn
	}
	lsn := a.db.pool.PageLSN(id)
	a.pageLSN[id] = lsn
	return lsn
}

// checkpointLocked reacts to the primary's checkpoint record: re-derive
// the planner's table statistics and reclaim mirrored log history the
// replica no longer needs (bounded by its own dirty pages and open
// stream transactions, exactly like the primary's truncation rule).
func (a *Applier) checkpointLocked(start wal.LSN) error {
	db := a.db
	if err := db.cat.RecomputeAll(); err != nil {
		return err
	}
	bound := start
	if o := db.pool.OldestRecLSN(); o < bound {
		bound = o
	}
	if o := db.log.OldestActiveLSN(); o < bound {
		bound = o
	}
	db.log.TruncateTo(bound)
	// The guard memo only ever answers "already applied?"; entries at or
	// below truncated history can never be asked about again.
	a.pageLSN = make(map[storage.PageID]wal.LSN)
	return nil
}

// setRootLocked relinks whichever index currently roots at old.
func (a *Applier) setRootLocked(old, new storage.PageID) {
	db := a.db
	for _, name := range db.cat.TableNames() {
		t, err := db.cat.Table(name)
		if err != nil {
			continue
		}
		for _, ix := range t.Indexes {
			if ix.Tree.SetRoot(old, new) {
				return
			}
		}
	}
}

// applyCatalogLocked replays one committed DDL change through the live
// catalog — the same mutations the primary's execDDL/execAlterOnline
// performed, minus page movement (that arrived as physical records) and
// minus backfill (a replica never self-writes; the primary's backfill
// rewrites stream in as ordinary heap updates).
func (a *Applier) applyCatalogLocked(ch *catalog.DDLChange) error {
	db := a.db
	defer db.plans.purge()
	switch ch.Op {
	case catalog.OpCreateTable:
		_, err := db.cat.CreateTable(ch.Table, ch.Cols)
		return err
	case catalog.OpDropTable:
		// Discard the returned page lists: the transaction's own
		// KPageFree records are the authoritative free list.
		_, _, err := db.cat.DropTableDeferred(ch.Table)
		return err
	case catalog.OpCreateIndex:
		ix, err := db.cat.AdoptIndex(ch.Table, ch.Index, ch.IndexCols, ch.Unique, ch.Root)
		if err != nil {
			return err
		}
		return ix.Tree.RecountSize()
	case catalog.OpDropIndex:
		_, err := db.cat.DropIndexDeferred(ch.Table, ch.Index)
		return err
	case catalog.OpAddColumn, catalog.OpDropColumn, catalog.OpWidenColumn:
		t, err := db.cat.Table(ch.Table)
		if err != nil {
			return err
		}
		t.Mu.Lock()
		defer t.Mu.Unlock()
		var cols []catalog.Column
		switch ch.Op {
		case catalog.OpAddColumn:
			cols, err = t.ComputeAddColumn(ch.Cols[0])
		case catalog.OpDropColumn:
			cols, err = t.ComputeDropColumn(ch.Cols[0].Name)
		case catalog.OpWidenColumn:
			cols, err = t.ComputeWidenColumn(ch.Cols[0].Name, ch.Cols[0].Type)
		}
		if err != nil {
			return err
		}
		// Same publish rule as execAlterOnline: the version's stamp is
		// strictly newer than every snapshot pinned before this line, so
		// in-flight replica readers keep their pinned schema.
		ts := db.txns.StampDDL()
		db.cat.PublishSchema(t, cols, ts)
		return nil
	}
	return fmt.Errorf("engine: replica apply of unknown DDL op %q", ch.Op)
}
