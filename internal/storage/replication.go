package storage

import (
	"cmp"
	"fmt"
	"slices"
)

// This file is the storage surface replication needs: exact-ID page
// allocation (replaying a primary's KPageAlloc on a follower whose
// allocator never ran), a whole-disk snapshot for follower bootstrap,
// a pool-coherent pageLSN read for the streaming applier's replay
// guard, and live heap-page adoption.

// PageImage is one page of a disk snapshot: contents (as last written,
// at the page's size) plus its out-of-band metadata (category, LSN).
type PageImage struct {
	ID   PageID
	Cat  Category
	LSN  LSN
	Data []byte
}

// DiskImage is a point-in-time copy of a whole disk, sufficient to
// rebuild an identical one. The caller must quiesce writers (the engine
// holds its DDL fence exclusively and flushes first).
type DiskImage struct {
	PageSize int
	Next     uint64
	Pages    []PageImage
}

// Snapshot copies every allocated page and its metadata.
func (d *Disk) Snapshot() *DiskImage {
	d.mu.Lock()
	defer d.mu.Unlock()
	img := &DiskImage{PageSize: d.pageSize, Next: d.next}
	for id, data := range d.pages {
		m := d.meta[id]
		img.Pages = append(img.Pages, PageImage{
			ID: id, Cat: d.cats[id], LSN: m.lsn,
			Data: append([]byte(nil), data...),
		})
	}
	return img
}

// RestoreDisk builds a disk from a snapshot (the follower bootstrap
// path). Checksums are recomputed from the copied contents, and pages
// are placed in extents in id order, each at its image's size.
func RestoreDisk(img *DiskImage) *Disk {
	d := NewDisk(img.PageSize)
	d.next = img.Next
	pages := slices.Clone(img.Pages)
	slices.SortFunc(pages, func(a, b PageImage) int { return cmp.Compare(a.ID, b.ID) })
	for _, p := range pages {
		d.addLocked(p.ID, p.Cat, append([]byte(nil), p.Data...), p.LSN)
	}
	return d
}

// AllocAt reserves the page of size bytes (0: a full page) with exactly
// the given ID — the replay of a primary's KPageAlloc on a follower,
// whose allocator must end up assigning the same IDs the primary's did.
// Idempotent: an already allocated page is left untouched. The
// allocator cursor advances past id so organic allocations (which a
// replica never performs, but a promoted one would) cannot collide.
func (d *Disk) AllocAt(id PageID, cat Category, size int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.crashed:
		return ErrDiskCrashed
	case size != 0 && size != d.pageSize && size != d.pageSize/2 && size != d.pageSize/4:
		return fmt.Errorf("storage: page %d allocated at %d bytes, not a quarter, a half or all of %d", id, size, d.pageSize)
	}
	if uint64(id) > d.next {
		d.next = uint64(id)
	}
	if _, ok := d.pages[id]; ok {
		return nil
	}
	d.addLocked(id, cat, make([]byte, cmp.Or(size, d.pageSize)), NoLSN)
	return nil
}

// PageLSN returns the page's current LSN as the system sees it: the
// buffer pool's in-memory stamp when the page is cached (which may be
// ahead of disk for a dirty page), else the disk's durable stamp. The
// streaming applier's replay guard needs this view — recovery's
// disk-only read is correct only because recovery starts from a cold
// pool.
func (p *BufferPool) PageLSN(id PageID) LSN {
	s := p.shard(id)
	s.mu.Lock()
	if f, ok := s.frames[id]; ok {
		lsn := f.lsn
		s.mu.Unlock()
		return lsn
	}
	s.mu.Unlock()
	return p.disk.PageLSN(id)
}

// ReadSlot returns a copy of the live record bytes at (page, slot), or
// nil when the slot is dead or out of range — the streaming applier's
// pre-image read, taken immediately before it redoes an update or
// delete so the version chain can serve the old bytes to snapshots.
func ReadSlot(pool *BufferPool, page PageID, slot uint16) ([]byte, error) {
	buf, err := pool.Fetch(page, CatData)
	if err != nil {
		return nil, err
	}
	var out []byte
	if rec, gerr := Slotted(buf).Get(slot); gerr == nil {
		out = append([]byte(nil), rec...)
	}
	pool.Unpin(page, false)
	return out, nil
}

// AdoptPage appends an already-initialized page to the file — the live
// replay of a primary's KHeapNewPage, where the page was allocated and
// formatted through the redo path rather than through Insert.
// Idempotent: a page already in the list is left in place.
func (h *HeapFile) AdoptPage(id PageID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, p := range h.pages {
		if p == id {
			return
		}
	}
	h.pages = append(h.pages, id)
	h.freeBytes = append(h.freeBytes, 0)
}
