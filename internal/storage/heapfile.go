package storage

import (
	"errors"
	"fmt"
	"sync"
)

// RID addresses a record: page plus slot.
type RID struct {
	Page PageID
	Slot uint16
}

// String renders the RID for diagnostics.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// InsertMode selects the heap's placement policy. The paper attributes
// the Table 2 insert anomaly at schema variability 1.0 to DB2 switching
// between exactly these two methods.
type InsertMode uint8

const (
	// InsertBestFit finds the first page with enough free space,
	// producing a compactly stored relation.
	InsertBestFit InsertMode = iota
	// InsertAppend always appends to the last page, producing a
	// sparsely stored relation but touching fewer pages on insert.
	InsertAppend
)

// HeapFile stores a table's rows across slotted pages fetched through
// the buffer pool.
type HeapFile struct {
	mu    sync.Mutex
	pool  *BufferPool
	pages []PageID
	mode  InsertMode
	// freeBytes caches per-page free space for best-fit placement so
	// insert doesn't have to touch every page.
	freeBytes []int
	rows      int64

	// logger, when set, receives a redo record for every page mutation,
	// applied before the page is unpinned so the WAL stamp lands while
	// the frame cannot be evicted. A failed log call physically reverts
	// the mutation, keeping page state and log in agreement.
	logger HeapLogger

	// slotPin, when set, vetoes tombstone-slot reuse: Insert will not
	// place a fresh record into a dead slot the callback reports pinned.
	// The MVCC layer pins any RID with a live version chain — reusing it
	// would graft an unrelated row onto the chain.
	slotPin func(RID) bool
}

// NewHeapFile creates an empty heap file.
func NewHeapFile(pool *BufferPool, mode InsertMode) *HeapFile {
	return &HeapFile{pool: pool, mode: mode}
}

// RestoreHeapFile rebuilds a heap file over an existing page list (the
// recovery path). Call RecomputeMeta afterwards to rebuild the row
// count and free-space cache from the pages themselves.
func RestoreHeapFile(pool *BufferPool, mode InsertMode, pages []PageID) *HeapFile {
	return &HeapFile{
		pool:      pool,
		mode:      mode,
		pages:     append([]PageID(nil), pages...),
		freeBytes: make([]int, len(pages)),
	}
}

// SetLogger installs (or, with nil, removes) the WAL logger for this
// file. The engine swaps it per statement under the table's write lock.
func (h *HeapFile) SetLogger(lg HeapLogger) {
	h.mu.Lock()
	h.logger = lg
	h.mu.Unlock()
}

// SetSlotPin installs (or clears, with nil) the tombstone-reuse veto.
func (h *HeapFile) SetSlotPin(pin func(RID) bool) {
	h.mu.Lock()
	h.slotPin = pin
	h.mu.Unlock()
}

// log returns the current logger. Callers not already holding h.mu use
// this; Insert reads h.logger directly under its own lock.
func (h *HeapFile) log() HeapLogger {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.logger
}

// Pages returns a copy of the file's page list in file order.
func (h *HeapFile) Pages() []PageID {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]PageID(nil), h.pages...)
}

// Release detaches and returns the file's pages without freeing them —
// the WAL drop path, where physical frees must wait until the drop's
// commit record is durable.
func (h *HeapFile) Release() []PageID {
	h.mu.Lock()
	pages := h.pages
	h.pages, h.freeBytes, h.rows = nil, nil, 0
	h.mu.Unlock()
	return pages
}

// RecomputeMeta rebuilds the row count and free-space cache by scanning
// every page. Recovery calls it after replay, since those are derived
// values the log deliberately does not carry.
func (h *HeapFile) RecomputeMeta() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.rows = 0
	for i, id := range h.pages {
		buf, err := h.pool.Fetch(id, CatData)
		if err != nil {
			return err
		}
		sp := Slotted(buf)
		h.freeBytes[i] = sp.ReclaimableSpace()
		n := int64(0)
		sp.LiveRecords(func(uint16, []byte) bool { n++; return true })
		h.rows += n
		h.pool.Unpin(id, false)
	}
	return nil
}

// NumPages returns the number of pages in the file.
func (h *HeapFile) NumPages() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pages)
}

// NumRows returns the live record count.
func (h *HeapFile) NumRows() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rows
}

// Prefetching reports whether the file's pool acts on hints; a caller
// asks before doing work only a hint needs.
func (h *HeapFile) Prefetching() bool { return h.pool.Prefetching() }

// PrefetchSmall hints every page of the file if it has at most maxPages
// of them: a caller about to probe an index of this table then waits
// for the descent and the row fetch together. one reports a file of at
// most one page, and page is that page (InvalidPageID for an empty
// file): reading it costs less than any index probe would.
func (h *HeapFile) PrefetchSmall(maxPages int) (page PageID, one bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.pages) <= maxPages {
		for _, id := range h.pages {
			h.pool.Prefetch(id, CatData)
		}
	}
	switch len(h.pages) {
	case 0:
		return InvalidPageID, true
	case 1:
		return h.pages[0], true
	}
	return InvalidPageID, false
}

// PrefetchInsert hints the page Insert will try first for a record of
// recLen bytes.
func (h *HeapFile) PrefetchInsert(recLen int) {
	h.mu.Lock()
	if i := h.candidateLocked(recLen+slotSize, 0); i >= 0 {
		h.pool.Prefetch(h.pages[i], CatData)
	}
	h.mu.Unlock()
}

// candidateLocked is the insert policy: the index of the first page at
// or after from that the free-space cache says may take need bytes, or
// -1 when the file has to grow. Best fit tries every page in file
// order, append only the last.
func (h *HeapFile) candidateLocked(need, from int) int {
	switch h.mode {
	case InsertBestFit:
		for i := from; i < len(h.pages); i++ {
			if h.freeBytes[i] >= need {
				return i
			}
		}
	case InsertAppend:
		if n := len(h.pages) - 1; n >= from && h.freeBytes[n] >= need {
			return n
		}
	}
	return -1
}

// PrefetchRIDs hints the pages of a RID batch whose rows the caller is
// about to fetch one by one.
func (h *HeapFile) PrefetchRIDs(rids []RID) {
	last := InvalidPageID
	for _, rid := range rids {
		if rid.Page != last { // runs of one page are the common repeat
			h.pool.Prefetch(rid.Page, CatData)
			last = rid.Page
		}
	}
}

// Insert stores rec and returns its RID.
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	need := len(rec) + slotSize
	if need > h.pool.disk.PageSize()-pageHeader {
		return RID{}, fmt.Errorf("storage: record of %d bytes exceeds page capacity", len(rec))
	}
	h.mu.Lock()
	defer h.mu.Unlock()

	try := func(i int) (RID, bool, error) {
		id := h.pages[i]
		buf, err := h.pool.Fetch(id, CatData)
		if err != nil {
			return RID{}, false, err
		}
		var avoid func(uint16) bool
		if h.slotPin != nil {
			avoid = func(slot uint16) bool { return h.slotPin(RID{Page: id, Slot: slot}) }
		}
		sp := Slotted(buf)
		slot, err := sp.InsertAvoiding(rec, avoid)
		if errors.Is(err, ErrPageFull) {
			h.freeBytes[i] = sp.ReclaimableSpace()
			h.pool.Unpin(id, false)
			return RID{}, false, nil
		}
		if err != nil {
			h.pool.Unpin(id, false)
			return RID{}, false, err
		}
		if h.logger != nil {
			if lerr := h.logger.HeapInsert(id, slot, rec); lerr != nil {
				_ = sp.Delete(slot)
				h.freeBytes[i] = sp.ReclaimableSpace()
				h.pool.Unpin(id, true)
				return RID{}, false, lerr
			}
		}
		h.freeBytes[i] = sp.ReclaimableSpace()
		h.pool.Unpin(id, true)
		h.rows++
		return RID{Page: id, Slot: slot}, true, nil
	}

	for i := h.candidateLocked(need, 0); i >= 0; i = h.candidateLocked(need, i+1) {
		rid, ok, err := try(i)
		if err != nil {
			return RID{}, err
		}
		if ok {
			return rid, nil
		}
	}

	// Grow the file.
	id, buf, err := h.pool.NewPage(CatData)
	if err != nil {
		return RID{}, err
	}
	sp := InitSlotted(buf)
	if h.logger != nil {
		if lerr := h.logger.HeapNewPage(id); lerr != nil {
			// The unfiled page is left for recovery's orphan sweep; the
			// log only fails when the system is crashing anyway.
			h.pool.Unpin(id, true)
			return RID{}, lerr
		}
	}
	slot, err := sp.Insert(rec)
	if err != nil {
		h.pool.Unpin(id, true)
		return RID{}, err
	}
	if h.logger != nil {
		if lerr := h.logger.HeapInsert(id, slot, rec); lerr != nil {
			_ = sp.Delete(slot)
			h.pool.Unpin(id, true)
			return RID{}, lerr
		}
	}
	h.pages = append(h.pages, id)
	h.freeBytes = append(h.freeBytes, sp.ReclaimableSpace())
	h.pool.Unpin(id, true)
	h.rows++
	return RID{Page: id, Slot: slot}, nil
}

// Get copies the record at rid into a fresh slice.
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	buf, err := h.pool.Fetch(rid.Page, CatData)
	if err != nil {
		return nil, err
	}
	rec, err := Slotted(buf).Get(rid.Slot)
	var out []byte
	if err == nil {
		out = append(out, rec...)
	}
	h.pool.Unpin(rid.Page, false)
	return out, err
}

// Update replaces the record at rid. If it no longer fits on its page
// the record is deleted and re-inserted; the (possibly new) RID is
// returned and the caller must fix any index entries.
func (h *HeapFile) Update(rid RID, rec []byte) (RID, error) {
	buf, err := h.pool.Fetch(rid.Page, CatData)
	if err != nil {
		return RID{}, err
	}
	sp := Slotted(buf)
	lg := h.log()
	var old []byte
	if lg != nil {
		// Keep the pre-image so a failed log call can physically revert.
		if o, gerr := sp.Get(rid.Slot); gerr == nil {
			old = append([]byte(nil), o...)
		}
	}
	uerr := sp.Update(rid.Slot, rec)
	if uerr == nil {
		if lg != nil {
			if lerr := lg.HeapUpdate(rid.Page, rid.Slot, rec); lerr != nil {
				if old != nil {
					_ = sp.Update(rid.Slot, old)
				}
				h.pool.Unpin(rid.Page, true)
				return RID{}, lerr
			}
		}
		h.noteFree(rid.Page, sp.ReclaimableSpace())
		h.pool.Unpin(rid.Page, true)
		return rid, nil
	}
	if !errors.Is(uerr, ErrPageFull) {
		h.pool.Unpin(rid.Page, false)
		return RID{}, uerr
	}
	// Relocate: insert the copy elsewhere first, then delete here on the
	// still-pinned page, so a failed insert leaves the record untouched
	// and the whole update is all-or-nothing. Insert cannot pick this
	// page: Update already proved the replacement does not fit even
	// after reclaiming the old record's bytes.
	newRID, err := h.Insert(rec)
	if err != nil {
		h.pool.Unpin(rid.Page, false)
		return RID{}, err
	}
	if err := sp.Delete(rid.Slot); err != nil {
		// Unreachable for a live slot; undo the insert to stay atomic.
		h.pool.Unpin(rid.Page, false)
		if derr := h.Delete(newRID); derr != nil {
			err = errors.Join(err, derr)
		}
		return RID{}, err
	}
	if lg != nil {
		if lerr := lg.HeapDelete(rid.Page, rid.Slot); lerr != nil {
			if old != nil {
				_ = sp.InsertAt(rid.Slot, old)
			}
			h.pool.Unpin(rid.Page, true)
			_ = h.Delete(newRID) // best effort; the log is crashing anyway
			return RID{}, lerr
		}
	}
	h.noteFree(rid.Page, sp.ReclaimableSpace())
	h.pool.Unpin(rid.Page, true)
	h.mu.Lock()
	h.rows-- // the relocating Insert incremented; net row count is unchanged
	h.mu.Unlock()
	return newRID, nil
}

// UpdateInPlace replaces the record at rid only if the replacement fits
// on its page; it returns ErrPageFull instead of relocating. The schema
// backfill worker uses it: relocation would hand the row a new RID,
// invalidating RIDs a concurrent statement gathered under its shared
// latch, so rows that no longer fit are left for a foreground DML write
// (which owns its latches end to end) to migrate.
func (h *HeapFile) UpdateInPlace(rid RID, rec []byte) error {
	buf, err := h.pool.Fetch(rid.Page, CatData)
	if err != nil {
		return err
	}
	sp := Slotted(buf)
	lg := h.log()
	var old []byte
	if lg != nil {
		// Keep the pre-image so a failed log call can physically revert.
		if o, gerr := sp.Get(rid.Slot); gerr == nil {
			old = append([]byte(nil), o...)
		}
	}
	if uerr := sp.Update(rid.Slot, rec); uerr != nil {
		h.pool.Unpin(rid.Page, false)
		return uerr
	}
	if lg != nil {
		if lerr := lg.HeapUpdate(rid.Page, rid.Slot, rec); lerr != nil {
			if old != nil {
				_ = sp.Update(rid.Slot, old)
			}
			h.pool.Unpin(rid.Page, true)
			return lerr
		}
	}
	h.noteFree(rid.Page, sp.ReclaimableSpace())
	h.pool.Unpin(rid.Page, true)
	return nil
}

// Reinsert restores rec at exactly rid, undoing a Delete. Statement
// rollback replays undo actions in LIFO order, so the slot is free and
// the page has the space the record occupied before.
func (h *HeapFile) Reinsert(rid RID, rec []byte) error {
	buf, err := h.pool.Fetch(rid.Page, CatData)
	if err != nil {
		return err
	}
	sp := Slotted(buf)
	if err := sp.InsertAt(rid.Slot, rec); err != nil {
		h.pool.Unpin(rid.Page, false)
		return err
	}
	if lg := h.log(); lg != nil {
		if lerr := lg.HeapInsertAt(rid.Page, rid.Slot, rec); lerr != nil {
			_ = sp.Delete(rid.Slot)
			h.pool.Unpin(rid.Page, true)
			return lerr
		}
	}
	h.noteFree(rid.Page, sp.ReclaimableSpace())
	h.pool.Unpin(rid.Page, true)
	h.mu.Lock()
	h.rows++
	h.mu.Unlock()
	return nil
}

// Delete removes the record at rid.
func (h *HeapFile) Delete(rid RID) error {
	buf, err := h.pool.Fetch(rid.Page, CatData)
	if err != nil {
		return err
	}
	sp := Slotted(buf)
	lg := h.log()
	var old []byte
	if lg != nil {
		if o, gerr := sp.Get(rid.Slot); gerr == nil {
			old = append([]byte(nil), o...)
		}
	}
	if err := sp.Delete(rid.Slot); err != nil {
		h.pool.Unpin(rid.Page, false)
		return err
	}
	if lg != nil {
		if lerr := lg.HeapDelete(rid.Page, rid.Slot); lerr != nil {
			if old != nil {
				_ = sp.InsertAt(rid.Slot, old)
			}
			h.pool.Unpin(rid.Page, true)
			return lerr
		}
	}
	h.noteFree(rid.Page, sp.ReclaimableSpace())
	h.pool.Unpin(rid.Page, true)
	h.mu.Lock()
	h.rows--
	h.mu.Unlock()
	return nil
}

func (h *HeapFile) noteFree(id PageID, free int) {
	h.mu.Lock()
	for i, p := range h.pages {
		if p == id {
			h.freeBytes[i] = free
			break
		}
	}
	h.mu.Unlock()
}

// Scan calls fn for every live record in file order. Returning false
// stops the scan. The rec slice is only valid during the callback.
func (h *HeapFile) Scan(fn func(rid RID, rec []byte) (bool, error)) error {
	h.mu.Lock()
	pages := append([]PageID(nil), h.pages...)
	h.mu.Unlock()
	for _, id := range pages {
		if more, err := h.ScanPage(id, fn); !more {
			return err
		}
	}
	return nil
}

// ScanPage is Scan over the one page id of the file, fetched once: fn
// sees its live records in slot order while the page stays pinned. more
// is false when fn stopped the scan or failed.
func (h *HeapFile) ScanPage(id PageID, fn func(rid RID, rec []byte) (bool, error)) (more bool, err error) {
	buf, err := h.pool.Fetch(id, CatData)
	if err != nil {
		return false, err
	}
	more = true
	Slotted(buf).LiveRecords(func(slot uint16, rec []byte) bool {
		more, err = fn(RID{Page: id, Slot: slot}, rec)
		more = more && err == nil
		return more
	})
	h.pool.Unpin(id, false)
	return more, err
}

// View calls fn with the record bytes at rid while the page stays
// pinned, avoiding Get's copy. The slice is only valid during the
// callback and must not be written to or retained.
func (h *HeapFile) View(rid RID, fn func(rec []byte) error) error {
	buf, err := h.pool.Fetch(rid.Page, CatData)
	if err != nil {
		return err
	}
	rec, err := Slotted(buf).Get(rid.Slot)
	if err == nil {
		err = fn(rec)
	}
	h.pool.Unpin(rid.Page, false)
	return err
}

// Scanner returns a pull-based iterator over the file's live records.
// It snapshots the page list at creation; each page is visited exactly
// once through the buffer pool and its live records are copied into a
// single reused arena, so no page stays pinned between calls and no
// per-record allocation happens after the first page.
func (h *HeapFile) Scanner() *HeapScanner {
	h.mu.Lock()
	pages := append([]PageID(nil), h.pages...)
	h.mu.Unlock()
	return &HeapScanner{h: h, pages: pages}
}

// HeapScanner iterates a heap file's records in file order.
//
// Aliasing contract: the record slices returned by Next and NextPage
// point into one arena that holds the current page's records and is
// overwritten when the scanner advances to the next page. Callers must
// finish with (or copy) every record of a page before pulling the next
// one; the executor decodes records immediately, so it never copies.
// Use either Next or NextPage on a given scanner, not both.
type HeapScanner struct {
	h     *HeapFile
	pages []PageID
	pi    int
	ahead int // pages[:ahead] have been hinted
	rids  []RID
	recs  [][]byte
	arena []byte
	i     int
}

// readAhead is how many pages a scan keeps hinted in front of itself,
// the page it is about to fetch included. A constant: it needs to cover
// the pages a scan consumes during one miss, and stays far below
// maxInflight so several scans fit under the cap.
const readAhead = 8

// NextPage loads every live record of the next non-empty page in one
// buffer-pool visit, keeping the readAhead window hinted. The returned
// slices are reused by the following NextPage call (see the aliasing
// contract above). ok=false at the end of the file.
func (s *HeapScanner) NextPage() ([]RID, [][]byte, bool, error) {
	for s.pi < len(s.pages) {
		for end := min(s.pi+readAhead, len(s.pages)); s.ahead < end; s.ahead++ {
			s.h.pool.Prefetch(s.pages[s.ahead], CatData)
		}
		id := s.pages[s.pi]
		s.pi++
		buf, err := s.h.pool.Fetch(id, CatData)
		if err != nil {
			return nil, nil, false, err
		}
		// A page's live records never exceed the page size, so after this
		// reserve the appends below cannot reallocate the arena and every
		// handed-out sub-slice stays valid for the whole page.
		if cap(s.arena) < len(buf) {
			s.arena = make([]byte, 0, len(buf))
		}
		s.arena = s.arena[:0]
		s.rids = s.rids[:0]
		s.recs = s.recs[:0]
		Slotted(buf).LiveRecords(func(slot uint16, rec []byte) bool {
			off := len(s.arena)
			s.arena = append(s.arena, rec...)
			s.rids = append(s.rids, RID{Page: id, Slot: slot})
			s.recs = append(s.recs, s.arena[off:len(s.arena):len(s.arena)])
			return true
		})
		s.h.pool.Unpin(id, false)
		if len(s.recs) > 0 {
			return s.rids, s.recs, true, nil
		}
	}
	return nil, nil, false, nil
}

// Next returns the next record, or ok=false at the end. The returned
// slice aliases the scanner's page arena and is valid until the scan
// advances past the current page (see the aliasing contract above).
func (s *HeapScanner) Next() (RID, []byte, bool, error) {
	for s.i >= len(s.recs) {
		_, _, ok, err := s.NextPage()
		if err != nil || !ok {
			return RID{}, nil, false, err
		}
		s.i = 0
	}
	rid, rec := s.rids[s.i], s.recs[s.i]
	s.i++
	return rid, rec, true, nil
}

// Drop releases every page in the file.
func (h *HeapFile) Drop() error {
	h.mu.Lock()
	pages := h.pages
	h.pages = nil
	h.freeBytes = nil
	h.rows = 0
	h.mu.Unlock()
	for _, id := range pages {
		if err := h.pool.FreePage(id); err != nil {
			return err
		}
	}
	return nil
}
