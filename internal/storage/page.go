// Package storage implements the paper's physical substrate: slotted
// pages (a one-page heap's grows in place), a page store ("disk") with
// simulated read latency, an LRU buffer pool whose capacity is charged
// against the database's memory budget, and heap files with the two
// insert policies (best-fit and append) DB2 switches between in §5.
//
// Index pages are fetched through the same buffer pool as data pages and
// are tagged with a category so the pool can report the separate data
// and index hit ratios shown in Table 2 / Figure 7(c) of the paper.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// DefaultPageSize matches the 8 KB page size used for all user data and
// indexes in the paper's experiments.
const DefaultPageSize = 8192

// PageID identifies a page on the Disk. Zero is never a valid page.
type PageID uint64

// InvalidPageID is the zero PageID.
const InvalidPageID PageID = 0

// Category classifies a page for buffer-pool statistics.
type Category uint8

const (
	// CatData marks heap-file pages holding table rows.
	CatData Category = iota
	// CatIndex marks B+tree pages.
	CatIndex
)

func (c Category) String() string {
	if c == CatIndex {
		return "index"
	}
	return "data"
}

// Slotted page layout:
//
//	[0:2)  numSlots  uint16
//	[2:4)  freeLow   uint16  end of slot array / start of free space
//	[4:6)  freeHigh  uint16  start of record area (records grow downward)
//	then numSlots slot entries of 4 bytes each: offset uint16, length uint16.
//	A slot with offset 0 is a tombstone (page offsets are always >= header).
const (
	slotSize   = 4
	pageHeader = 6
)

// SlotCost is what a record costs its page beyond its own bytes: its
// slot entry.
const SlotCost = slotSize

// SlottedPage provides record-level access to a page buffer. It does not
// own the buffer; callers keep the page pinned while using it.
type SlottedPage struct {
	buf []byte
}

// Slotted wraps an existing page buffer.
func Slotted(buf []byte) SlottedPage { return SlottedPage{buf: buf} }

// InitSlotted formats buf as an empty slotted page.
func InitSlotted(buf []byte) SlottedPage {
	p := SlottedPage{buf: buf}
	p.setNumSlots(0)
	p.setFreeLow(pageHeader)
	p.setFreeHigh(uint16(len(buf)))
	return p
}

func (p SlottedPage) numSlots() uint16     { return binary.LittleEndian.Uint16(p.buf[0:2]) }
func (p SlottedPage) setNumSlots(n uint16) { binary.LittleEndian.PutUint16(p.buf[0:2], n) }
func (p SlottedPage) freeLow() uint16      { return binary.LittleEndian.Uint16(p.buf[2:4]) }
func (p SlottedPage) setFreeLow(v uint16)  { binary.LittleEndian.PutUint16(p.buf[2:4], v) }
func (p SlottedPage) freeHigh() uint16     { return binary.LittleEndian.Uint16(p.buf[4:6]) }
func (p SlottedPage) setFreeHigh(v uint16) { binary.LittleEndian.PutUint16(p.buf[4:6], v) }

func (p SlottedPage) slotAt(i uint16) (off, length uint16) {
	base := pageHeader + int(i)*slotSize
	return binary.LittleEndian.Uint16(p.buf[base : base+2]),
		binary.LittleEndian.Uint16(p.buf[base+2 : base+4])
}

func (p SlottedPage) setSlot(i, off, length uint16) {
	base := pageHeader + int(i)*slotSize
	binary.LittleEndian.PutUint16(p.buf[base:base+2], off)
	binary.LittleEndian.PutUint16(p.buf[base+2:base+4], length)
}

// NumSlots returns the number of slots ever allocated on the page,
// including tombstones.
func (p SlottedPage) NumSlots() int { return int(p.numSlots()) }

// FreeSpace returns the bytes available for a new record including its
// slot entry.
func (p SlottedPage) FreeSpace() int {
	free := int(p.freeHigh()) - int(p.freeLow())
	if free < 0 {
		return 0
	}
	return free
}

// ReclaimableSpace returns FreeSpace plus the dead bytes that a Compact
// would recover from tombstoned records.
func (p SlottedPage) ReclaimableSpace() int {
	live := 0
	n := p.numSlots()
	for i := uint16(0); i < n; i++ {
		if off, length := p.slotAt(i); off != 0 {
			live += int(length)
		}
	}
	return len(p.buf) - pageHeader - int(n)*slotSize - live
}

// ErrPageFull is returned when a record does not fit on the page.
var ErrPageFull = errors.New("storage: page full")

// Insert places rec on the page and returns its slot number.
func (p SlottedPage) Insert(rec []byte) (uint16, error) {
	return p.InsertAvoiding(rec, nil)
}

// InsertAvoiding is Insert with a slot-reuse veto: tombstone slots for
// which avoid returns true are not reused (their RID is reserved — a
// version chain still refers to it). A nil avoid admits every slot.
func (p SlottedPage) InsertAvoiding(rec []byte, avoid func(uint16) bool) (uint16, error) {
	need := len(rec) + slotSize
	// Reuse a tombstone slot if one exists (no new slot entry needed).
	n := p.numSlots()
	var reuse = n
	for i := uint16(0); i < n; i++ {
		if off, _ := p.slotAt(i); off == 0 && (avoid == nil || !avoid(i)) {
			reuse = i
			need = len(rec)
			break
		}
	}
	if p.FreeSpace() < need {
		if p.ReclaimableSpace() < need {
			return 0, ErrPageFull
		}
		p.Compact()
	}
	newHigh := p.freeHigh() - uint16(len(rec))
	copy(p.buf[newHigh:], rec)
	p.setFreeHigh(newHigh)
	if reuse == n {
		p.setNumSlots(n + 1)
		p.setFreeLow(p.freeLow() + slotSize)
	}
	p.setSlot(reuse, newHigh, uint16(len(rec)))
	return reuse, nil
}

// InsertAt places rec into the specific tombstoned slot i, restoring a
// previously deleted record at its original RID (the undo path for
// deletes and relocations). The slot must exist and be dead.
func (p SlottedPage) InsertAt(i uint16, rec []byte) error {
	if i >= p.numSlots() {
		return fmt.Errorf("storage: restore into slot %d out of range", i)
	}
	if off, _ := p.slotAt(i); off != 0 {
		return fmt.Errorf("storage: restore into live slot %d", i)
	}
	if p.FreeSpace() < len(rec) {
		if p.ReclaimableSpace() < len(rec) {
			return ErrPageFull
		}
		p.Compact()
	}
	newHigh := p.freeHigh() - uint16(len(rec))
	copy(p.buf[newHigh:], rec)
	p.setFreeHigh(newHigh)
	p.setSlot(i, newHigh, uint16(len(rec)))
	return nil
}

// ErrSlotGone marks a Get against a tombstoned slot, so callers that
// legitimately probe for liveness (version-chain reads) can tell "row
// currently absent" from real storage failures.
var ErrSlotGone = errors.New("storage: slot deleted")

// Get returns the record stored in slot i. The returned slice aliases
// the page buffer; callers must copy it if they retain it past unpin.
func (p SlottedPage) Get(i uint16) ([]byte, error) {
	if i >= p.numSlots() {
		return nil, fmt.Errorf("storage: slot %d out of range", i)
	}
	off, length := p.slotAt(i)
	if off == 0 {
		return nil, fmt.Errorf("storage: slot %d: %w", i, ErrSlotGone)
	}
	return p.buf[off : off+length], nil
}

// Delete tombstones slot i. The record bytes become dead space reclaimed
// by Compact.
func (p SlottedPage) Delete(i uint16) error {
	if i >= p.numSlots() {
		return fmt.Errorf("storage: slot %d out of range", i)
	}
	off, _ := p.slotAt(i)
	if off == 0 {
		return fmt.Errorf("storage: slot %d already deleted", i)
	}
	p.setSlot(i, 0, 0)
	return nil
}

// Update replaces the record in slot i. If the new record does not fit
// in place and the page has no room, ErrPageFull is returned and the
// caller relocates the record.
func (p SlottedPage) Update(i uint16, rec []byte) error {
	if i >= p.numSlots() {
		return fmt.Errorf("storage: slot %d out of range", i)
	}
	off, length := p.slotAt(i)
	if off == 0 {
		return fmt.Errorf("storage: slot %d deleted", i)
	}
	if len(rec) <= int(length) {
		copy(p.buf[off:], rec)
		p.setSlot(i, off, uint16(len(rec)))
		return nil
	}
	if p.FreeSpace() >= len(rec) {
		newHigh := p.freeHigh() - uint16(len(rec))
		copy(p.buf[newHigh:], rec)
		p.setFreeHigh(newHigh)
		p.setSlot(i, newHigh, uint16(len(rec)))
		return nil
	}
	// Compaction reclaims dead space from deletes and updates plus this
	// record's own bytes, so the page is full only if the record's
	// replacement genuinely does not fit — which also guarantees that
	// restoring a record the page previously held always succeeds.
	if p.ReclaimableSpace()+int(length) >= len(rec) {
		p.setSlot(i, 0, 0)
		p.Compact()
		newHigh := p.freeHigh() - uint16(len(rec))
		copy(p.buf[newHigh:], rec)
		p.setFreeHigh(newHigh)
		p.setSlot(i, newHigh, uint16(len(rec)))
		return nil
	}
	return ErrPageFull
}

// Compact rewrites live records contiguously at the end of the page,
// reclaiming dead space left by deletes and relocating updates. Live
// records are copied out, in slot order, into a pooled scratch before
// they are written back (a destination may overlap another record's
// source), so a compaction allocates nothing once the pool holds a
// page-sized buffer.
func (p SlottedPage) Compact() {
	n := p.numSlots()
	sp := compactScratch.Get().(*[]byte)
	tmp := (*sp)[:0]
	if cap(tmp) < len(p.buf) {
		tmp = make([]byte, 0, len(p.buf))
	}
	for i := uint16(0); i < n; i++ {
		if off, length := p.slotAt(i); off != 0 {
			tmp = append(tmp, p.buf[off:off+length]...)
		}
	}
	high, from := uint16(len(p.buf)), 0
	for i := uint16(0); i < n; i++ {
		if off, length := p.slotAt(i); off != 0 {
			high -= length
			copy(p.buf[high:], tmp[from:from+int(length)])
			from += int(length)
			p.setSlot(i, high, length)
		}
	}
	p.setFreeHigh(high)
	*sp = tmp
	compactScratch.Put(sp)
}

// Grow lays out over the whole of p's buffer a page that filled only
// its first from bytes (the buffer BufferPool.Grow hands back): the
// record area moves to the new tail, each live slot's offset and
// freeHigh move by the bytes added, and the slot array stays, so
// FreeSpace rises by exactly those bytes and every slot keeps its
// record.
func (p SlottedPage) Grow(from int) {
	d := len(p.buf) - from
	high := int(p.freeHigh())
	copy(p.buf[high+d:], p.buf[high:from])
	clear(p.buf[high : high+d])
	for i := range p.numSlots() {
		if off, length := p.slotAt(i); off != 0 {
			p.setSlot(i, off+uint16(d), length)
		}
	}
	p.setFreeHigh(uint16(high + d))
}

// compactScratch lends Compact its copy of a page's live records.
var compactScratch = sync.Pool{New: func() any { return new([]byte) }}

// LiveRecords calls fn for every non-deleted slot in slot order.
func (p SlottedPage) LiveRecords(fn func(slot uint16, rec []byte) bool) {
	n := p.numSlots()
	for i := uint16(0); i < n; i++ {
		off, length := p.slotAt(i)
		if off == 0 {
			continue
		}
		if !fn(i, p.buf[off:off+length]) {
			return
		}
	}
}
