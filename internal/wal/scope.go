package wal

import (
	"repro/internal/storage"
)

// Scope is one transaction's window onto the log. The engine opens a
// scope per autocommit DML/DDL statement or per interactive
// transaction (at its first write), installs its loggers on the tables
// being written, and closes it with Commit (append the commit record,
// group-commit sync, run deferred frees) or Abort. A scope may span
// many statements; Savepoint drops a named marker between them.
//
// The logger adapters append a redo record per page mutation and stamp
// the page's in-memory pageLSN, which is what ties the buffer pool's
// WAL-before-data gate to the log.
type Scope struct {
	l  *Log
	id uint64

	// deferredFree collects pages a DROP releases. Their free records
	// are appended before the commit record (one sync covers both), but
	// the destructive disk frees run only after the commit is durable —
	// an uncommitted drop must leave every page intact.
	deferredFree []storage.PageID
	deferredCat  []storage.Category
}

// ID returns the transaction's log-assigned ID.
func (s *Scope) ID() uint64 { return s.id }

// Savepoint appends a named savepoint marker. Recovery skips it — the
// compensations of a partial rollback are logged like any other
// mutation — but the marker keeps the durable history auditable.
func (s *Scope) Savepoint(name string) error {
	return s.append(&Record{Kind: KSavepoint, Data: []byte(name)})
}

// append logs a record under this statement and stamps the mutated
// page, if any.
func (s *Scope) append(r *Record) error {
	r.Txn = s.id
	start, lsn, err := s.l.append(r)
	if err != nil {
		return err
	}
	if r.Mutates() && s.l.pool != nil {
		s.l.pool.StampLSN(r.Page, lsn, start)
	}
	return nil
}

// Commit appends the deferred free records and the commit record, waits
// for the group-commit sync to make them durable, and then performs the
// physical frees. Statement effects are recoverable iff Commit returns
// nil.
func (s *Scope) Commit() error {
	for i, id := range s.deferredFree {
		if err := s.append(&Record{Kind: KPageFree, Page: id, Cat: s.deferredCat[i]}); err != nil {
			s.l.endTxn(s.id)
			return err
		}
	}
	_, lsn, err := s.l.append(&Record{Kind: KCommit, Txn: s.id})
	if err != nil {
		s.l.endTxn(s.id)
		return err
	}
	err = s.l.Commit(lsn)
	s.l.endTxn(s.id)
	if err != nil {
		return err
	}
	for _, id := range s.deferredFree {
		// Best effort: a page already gone (crash between free and a
		// retry) is not an error, and recovery replays the free records.
		_ = s.l.pool.FreePage(id)
	}
	return nil
}

// Abort appends the abort record (best effort — the log may already be
// crashed) and closes the scope. Deferred frees are dropped: the pages
// stay live, exactly as recovery would leave them.
func (s *Scope) Abort() {
	_, _, _ = s.l.append(&Record{Kind: KAbort, Txn: s.id})
	s.l.endTxn(s.id)
}

// DeferFree schedules pages for release at commit.
func (s *Scope) DeferFree(cat storage.Category, pages ...storage.PageID) {
	for _, id := range pages {
		s.deferredFree = append(s.deferredFree, id)
		s.deferredCat = append(s.deferredCat, cat)
	}
}

// CatalogChange appends a DDL change record (JSON payload).
func (s *Scope) CatalogChange(payload []byte) error {
	return s.append(&Record{Kind: KCatalog, Data: payload})
}

// HeapLogger returns the storage.HeapLogger that tags records with the
// owning table's name.
func (s *Scope) HeapLogger(table string) storage.HeapLogger {
	return &heapLogger{s: s, table: table}
}

type heapLogger struct {
	s     *Scope
	table string
}

func (h *heapLogger) HeapNewPage(page storage.PageID, size int) error {
	if err := h.s.append(&Record{Kind: KPageAlloc, Page: page, Slot: uint16(size), Cat: storage.CatData}); err != nil {
		return err
	}
	return h.s.append(&Record{Kind: KHeapNewPage, Page: page, Slot: uint16(size), Table: h.table})
}

func (h *heapLogger) HeapGrow(page storage.PageID, size int) error {
	return h.s.append(&Record{Kind: KHeapGrow, Page: page, Slot: uint16(size), Table: h.table})
}

func (h *heapLogger) HeapInsert(page storage.PageID, slot uint16, rec []byte) error {
	return h.s.append(&Record{Kind: KHeapInsert, Page: page, Slot: slot, Table: h.table,
		Data: append([]byte(nil), rec...)})
}

func (h *heapLogger) HeapInsertAt(page storage.PageID, slot uint16, rec []byte) error {
	return h.s.append(&Record{Kind: KHeapInsertAt, Page: page, Slot: slot, Table: h.table,
		Data: append([]byte(nil), rec...)})
}

func (h *heapLogger) HeapDelete(page storage.PageID, slot uint16) error {
	return h.s.append(&Record{Kind: KHeapDelete, Page: page, Slot: slot, Table: h.table})
}

func (h *heapLogger) HeapUpdate(page storage.PageID, slot uint16, rec []byte) error {
	return h.s.append(&Record{Kind: KHeapUpdate, Page: page, Slot: slot, Table: h.table,
		Data: append([]byte(nil), rec...)})
}

// TreeLogger returns the B+tree mutation logger. The returned value
// implements btree.Logger structurally; wal does not import btree.
func (s *Scope) TreeLogger() *TreeLogger { return &TreeLogger{s: s} }

// TreeLogger logs B+tree page mutations under one statement scope.
type TreeLogger struct{ s *Scope }

// BTreePageAlloc records a fresh index-page allocation (split or new
// root).
func (t *TreeLogger) BTreePageAlloc(page storage.PageID) error {
	return t.s.append(&Record{Kind: KPageAlloc, Page: page, Cat: storage.CatIndex})
}

// BTreeInit records the formatting of page as an empty leaf of the
// kind ridInKey picks.
func (t *TreeLogger) BTreeInit(page storage.PageID, ridInKey bool) error {
	r := &Record{Kind: KBTreeInit, Page: page}
	if ridInKey {
		r.Slot = 1
	}
	return t.s.append(r)
}

// BTreeInsert records a leaf-level insert of key with value val, as
// the leaf stores it, on page.
func (t *TreeLogger) BTreeInsert(page storage.PageID, key, val []byte) error {
	return t.s.append(&Record{Kind: KBTreeInsert, Page: page,
		Key: append([]byte(nil), key...), Data: append([]byte(nil), val...)})
}

// BTreeDelete records a leaf-level delete of key on page.
func (t *TreeLogger) BTreeDelete(page storage.PageID, key []byte) error {
	return t.s.append(&Record{Kind: KBTreeDelete, Page: page,
		Key: append([]byte(nil), key...)})
}

// BTreePageImage records the post-image of a page a split or a shed
// restructured, without its free gap. The record is encoded into the
// log before append returns, so img is read in place, not copied.
func (t *TreeLogger) BTreePageImage(page storage.PageID, img []byte) error {
	return t.s.append(&Record{Kind: KBTreeImage, Page: page, Data: img})
}

// BTreeRoot records a root change from old to new.
func (t *TreeLogger) BTreeRoot(old, new storage.PageID) error {
	return t.s.append(&Record{Kind: KBTreeRoot, Page: old, Page2: new})
}
