package engine

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/mvcc"
	"repro/internal/storage"
	"repro/internal/wal"
)

// This file is the one replay path. Crash recovery restores the
// catalog from the last checkpoint and feeds every retained record
// through applyLocked; a replica's Applier keeps calling it for the
// durable frames the primary ships, ingested into the replica's
// (mirror) log, publishing each commit in log order. Reads on the
// replica go through the ordinary engine paths — an applier
// transaction is a real mvcc.Txn, its pre-images live in the ordinary
// version chains, so a snapshot pinned between commits never sees a
// torn transaction.

// applyTxn is the applier's in-flight image of one primary transaction:
// the mvcc transaction its writes are attributed to, plus the catalog
// changes and page frees that must not take effect until its commit
// record streams in (mirroring the primary, which logs KPageFree and
// applies frees only inside Scope.Commit).
type applyTxn struct {
	tx       *mvcc.Txn
	catalogs []*catalog.DDLChange
	frees    []storage.PageID
}

// Applier replays a WAL onto a DB: recovery's retained log once, then,
// on a replica, the primary's stream. It is the only writer on a
// replica: Feed ingests a durable byte range and drains every whole
// frame under the DB's exclusive DDL fence, so concurrent readers
// (which hold the fence shared per statement) observe page state only
// at batch boundaries — and MVCC hides even intra-batch transactions
// from them. Single goroutine per replica.
type Applier struct {
	db   *DB
	cur  *wal.Cursor
	txns map[uint64]*applyTxn

	// pageLSN memoizes the replay guard: a record at or below the
	// page's stamped LSN already happened — recovery meets pages the
	// disk holds ahead of the log, a replica the overlap a reconnect
	// re-ingests.
	pageLSN map[storage.PageID]wal.LSN

	// ckpt is the checkpoint recovery restored the catalog from: a
	// catalog record, heap adoption or root move at or before it is
	// already in the snapshot. Every live record lies past it.
	ckpt wal.LSN
	// ended is set while recovery replays: the transactions with a
	// terminator in the log, whose writes need no pre-images. Nil on
	// the live stream, where every write is versioned.
	ended map[uint64]bool

	// Redo outcomes, for the RecoverReport.
	replayed, skipped, unallocated, freed int
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
		if r.Kind == wal.KCommit {
			a.db.replAppliedCommitLSN.Store(uint64(r.LSN))
		}
	}
}

// txn returns the applier's image of r's transaction. Recovery begins
// one whose KBegin was truncated away at its first retained record; on
// the live stream an unknown transaction is an error, since those bytes
// come off the network.
func (a *Applier) txn(r *wal.Record) (*applyTxn, error) {
	if at := a.txns[r.Txn]; at != nil {
		return at, nil
	}
	if a.ended == nil {
		return nil, fmt.Errorf("engine: %s record for unknown txn %d", r.Kind, r.Txn)
	}
	return a.begin(r.Txn), nil
}

// begin opens the applier's image of transaction id. One recovery saw
// end gets no mvcc transaction: it versions nothing.
func (a *Applier) begin(id uint64) *applyTxn {
	at := &applyTxn{}
	if !a.ended[id] {
		at.tx = a.db.txns.BeginLazy()
	}
	a.txns[id] = at
	return at
}

// applyLocked replays one record. start is the frame's first byte (the
// recLSN a dirty page remembers); r.LSN is the frame's end.
func (a *Applier) applyLocked(r *wal.Record, start wal.LSN) error {
	db := a.db
	switch r.Kind {
	case wal.KBegin:
		a.begin(r.Txn)
		return nil

	case wal.KCommit:
		at, err := a.txn(r)
		if err != nil {
			return err
		}
		// Catalog changes first (a reader admitted after the commit
		// publishes must see the new schema), then publish the commit
		// timestamp, then release pages — the primary's Scope.Commit
		// order. The applier is the only transaction ever in the
		// reservation queue, so MarkDurable publishes immediately.
		for _, ch := range at.catalogs {
			if err := a.applyCatalogLocked(ch); err != nil {
				return err
			}
		}
		if at.tx != nil {
			db.txns.ReserveCommit(at.tx)
			db.txns.MarkDurable(at.tx)
		}
		for _, p := range at.frees {
			if db.disk.Allocated(p) {
				if err := db.pool.FreePage(p); err != nil {
					return err
				}
				delete(a.pageLSN, p)
				a.freed++
			}
		}
		delete(a.txns, r.Txn)
		return nil

	case wal.KAbort:
		if at := a.txns[r.Txn]; at != nil && at.tx != nil {
			// The primary's compensation writes were logged as ordinary
			// heap records and already replayed here; aborting the mvcc
			// transaction makes its chain entries invisible (and
			// GC-collectable) without touching pages.
			at.tx.Abort()
		}
		delete(a.txns, r.Txn)
		return nil

	case wal.KCatalog:
		if r.LSN <= a.ckpt {
			return nil
		}
		at, err := a.txn(r)
		if err != nil {
			return err
		}
		ch, err := catalog.DecodeDDLChange(r.Data)
		if err != nil {
			return err
		}
		if ch.Op == catalog.OpBuildIndex {
			// A build stands whatever its transaction's outcome, as the
			// pages its records wrote do.
			return a.buildLocked(ch)
		}
		at.catalogs = append(at.catalogs, ch)
		return nil

	case wal.KPageFree:
		at, err := a.txn(r)
		if err != nil {
			return err
		}
		at.frees = append(at.frees, r.Page)
		return nil

	case wal.KPageAlloc:
		// Idempotent exact-ID allocation: a page the disk already holds
		// (re-ingested overlap, a primary's surviving allocation) is
		// left as it is.
		return db.disk.AllocAt(r.Page, r.Cat, int(r.Slot))

	case wal.KCheckpoint:
		return a.checkpointLocked(start)

	case wal.KSavepoint:
		return nil // marker only; rollback arrives as compensation writes

	case wal.KBTreeRoot:
		// Root moves are catalog metadata, not page bytes: relink
		// whichever index roots at the old page. No match is fine — a
		// backfill's moves precede its index's create record, which
		// carries the final root, and the index may since have been
		// dropped.
		if r.LSN > a.ckpt {
			a.setRootLocked(r.Page, r.Page2)
		}
		return nil

	case wal.KHeapNewPage:
		if err := a.redoLocked(r, start); err != nil || r.LSN <= a.ckpt {
			return err
		}
		t, err := db.cat.Table(r.Table)
		if err != nil {
			return err
		}
		t.Heap.AdoptPage(r.Page)
		return nil

	case wal.KHeapInsert, wal.KHeapInsertAt, wal.KHeapDelete, wal.KHeapUpdate:
		at, err := a.txn(r)
		if err != nil {
			return err
		}
		// Version the row BEFORE redo: the pre-image is whatever the
		// slot holds now. Inserts version with a nil pre-image (the slot
		// held nothing a reader could see). A write that is not due
		// (re-ingested overlap) must not re-version — the chain entry
		// from the first pass is live — and a transaction recovery saw
		// end needs no chain at all.
		//
		// The stream carries physical heap records, not key changes, and
		// an index may be adopted after a record was versioned, so every
		// delete and update (a non-nil pre-image) is recorded as moved —
		// the conservative value: follower reads enumerate the chain. An
		// insert never is.
		if !a.ended[r.Txn] && a.due(r) {
			t, err := db.cat.Table(r.Table)
			if err != nil {
				return err
			}
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

// due reports whether redoing r would change its page: the page is
// allocated and its stamped LSN is behind r.
func (a *Applier) due(r *wal.Record) bool {
	return a.db.disk.Allocated(r.Page) && r.LSN > a.stampedLSN(r.Page)
}

// redoLocked replays one page-addressed record through redoPage if it
// is due. A page not allocated was freed by a committed drop the
// record predates.
func (a *Applier) redoLocked(r *wal.Record, start wal.LSN) error {
	switch {
	case !a.db.disk.Allocated(r.Page):
		a.unallocated++
		return nil
	case r.LSN <= a.stampedLSN(r.Page):
		a.skipped++
		return nil
	}
	if err := redoPage(a.db.pool, r); err != nil {
		return err
	}
	a.pageLSN[r.Page] = r.LSN
	a.db.pool.StampLSN(r.Page, r.LSN, start)
	a.replayed++
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

// redoPage applies one page-addressed record. The replay guard has
// already established the page is in the exact pre-record state.
func redoPage(pool *storage.BufferPool, r *wal.Record) error {
	switch r.Kind {
	case wal.KHeapNewPage:
		return storage.ReplayHeapInit(pool, r.Page, int(r.Slot))
	case wal.KHeapGrow:
		return storage.ReplayHeapGrow(pool, r.Page, int(r.Slot))
	case wal.KHeapInsert:
		return storage.ReplayHeapInsert(pool, r.Page, r.Slot, r.Data)
	case wal.KHeapInsertAt:
		return storage.ReplayHeapInsertAt(pool, r.Page, r.Slot, r.Data)
	case wal.KHeapDelete:
		return storage.ReplayHeapDelete(pool, r.Page, r.Slot)
	case wal.KHeapUpdate:
		return storage.ReplayHeapUpdate(pool, r.Page, r.Slot, r.Data)
	case wal.KBTreeInit:
		return btree.ReplayInit(pool, r.Page, r.Slot == 1)
	case wal.KBTreeInsert:
		return btree.ReplayInsert(pool, r.Page, r.Key, r.Data)
	case wal.KBTreeDelete:
		return btree.ReplayDelete(pool, r.Page, r.Key)
	case wal.KBTreeImage:
		return btree.ReplayImage(pool, r.Page, r.Data)
	}
	return fmt.Errorf("engine: unexpected redo kind %s", r.Kind)
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

// buildLocked gives a rootless index the root its table's build
// logged, as AdoptIndex attaches a created index's: the tree's pages
// arrived as the physical records before it.
func (a *Applier) buildLocked(ch *catalog.DDLChange) error {
	t, err := a.db.cat.Table(ch.Table)
	if err != nil {
		return err
	}
	ix := t.Index(ch.Index)
	if ix == nil {
		return fmt.Errorf("engine: build of unknown index %s on %s", ch.Index, ch.Table)
	}
	if !ix.Tree.SetRoot(storage.InvalidPageID, ch.Root) {
		return fmt.Errorf("engine: build of index %s on %s, already rooted at page %d", ch.Index, ch.Table, ix.Tree.Root())
	}
	if a.ended != nil {
		return nil // recovery recounts every tree once its pages are final
	}
	return ix.Tree.RecountSize()
}

// applyCatalogLocked replays one committed DDL change through the live
// catalog — the same mutations the primary's execDDL/execAlterOnline
// performed, minus page movement (that arrived as physical records) and
// minus backfill (replay never self-writes; the primary's backfill
// rewrites arrive as ordinary heap updates).
func (a *Applier) applyCatalogLocked(ch *catalog.DDLChange) error {
	db := a.db
	defer db.plans.Clear()
	switch ch.Op {
	case catalog.OpCreateTable:
		_, err := db.cat.CreateTable(ch.Table, ch.Cols)
		return err
	case catalog.OpDropTable:
		// The transaction's own KPageFree records free the pages.
		_, err := db.cat.DropTableDeferred(ch.Table)
		return err
	case catalog.OpCreateIndex:
		ix, err := db.cat.AdoptIndex(ch.Table, ch.Index, ch.IndexCols, ch.Unique, ch.Root)
		if err != nil || a.ended != nil {
			// Recovery recounts every tree once its pages are final.
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
	return fmt.Errorf("engine: replay of unknown DDL op %q", ch.Op)
}
