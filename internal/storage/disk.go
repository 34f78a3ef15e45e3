package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// ErrPageCorrupt is returned by Read when a page's contents do not
// match its stored checksum — a torn or bit-rotted write. Tests inject
// it with CorruptPage; recovery treats it as unrecoverable media error.
var ErrPageCorrupt = errors.New("storage: page checksum mismatch")

// ErrDiskCrashed is returned by every disk operation after SetCrashed,
// modeling a machine that has lost power: no further I/O completes.
var ErrDiskCrashed = errors.New("storage: disk crashed")

// castagnoli is the CRC-32C polynomial table used for page checksums
// (the same polynomial iSCSI and ext4 use; it has hardware support on
// real silicon, which is why production engines pick it).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// pageMeta is the durable per-page header the disk keeps out-of-band:
// the LSN of the last log record reflected in the page (NoLSN if the
// page predates the WAL) and the CRC-32C of its contents. Keeping it
// beside the page rather than inside it leaves the slotted layout — and
// every offset computed from it — untouched.
//
// size is the page's room: a full page fills an extent, a sub-page (a
// quarter or a half) the quarters bits of exts[ext], which only
// sub-pages share. It grows with a pinned frame (Resize), ahead of the
// bytes, which reach the disk at the frame's next write-back.
type pageMeta struct {
	lsn  LSN
	sum  uint32
	size int
	ext  int32
	bits uint8
}

// Disk is the backing page store. The paper's testbed kept data on an
// NFS appliance; here pages live in memory and a configurable per-read
// latency stands in for the I/O cost of a buffer-pool miss, so the
// §5 experiment's sensitivity to hit ratio is preserved.
type Disk struct {
	mu       sync.Mutex
	pages    map[PageID][]byte
	cats     map[PageID]Category
	meta     map[PageID]pageMeta
	next     uint64
	pageSize int
	crashed  bool

	// exts holds a bit per quarter in use of each extent sub-pages share;
	// inUse counts those with any set, and every one below hint is full.
	// bySize counts the quarter, half and full pages.
	exts   []uint8
	inUse  int
	hint   int
	bySize [3]int

	// ReadLatency is added to every physical page read. Zero (the
	// default) makes unit tests fast; the experiment harnesses set it
	// to tens of microseconds.
	ReadLatency time.Duration

	// fault, when set, is consulted before every physical read and
	// write; a non-nil return fails the operation before any state
	// changes. faultSeq numbers the operations seen by the hook.
	fault    FaultFn
	faultSeq atomic.Int64

	physReads  atomic.Int64
	physWrites atomic.Int64
}

// NewDisk creates an empty page store with the given page size
// (DefaultPageSize if zero). A page of more than math.MaxUint16 bytes
// panics: slotted heap pages and B+tree nodes address their bytes with
// 16-bit offsets.
func NewDisk(pageSize int) *Disk {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	if pageSize > math.MaxUint16 {
		panic(fmt.Sprintf("storage: page size %d exceeds %d bytes, the most the 16-bit offsets of heap and B+tree pages address", pageSize, math.MaxUint16))
	}
	return &Disk{
		pages:    make(map[PageID][]byte),
		cats:     make(map[PageID]Category),
		meta:     make(map[PageID]pageMeta),
		pageSize: pageSize,
	}
}

// PageSize returns the size in bytes of every page on this disk.
func (d *Disk) PageSize() int { return d.pageSize }

// SetFault installs (or, with nil, removes) a fault-injection hook
// consulted before every physical read and write. The operation
// sequence counter restarts at 1 on every install.
func (d *Disk) SetFault(fn FaultFn) {
	d.mu.Lock()
	d.fault = fn
	d.faultSeq.Store(0)
	d.mu.Unlock()
}

// checkFault runs the installed hook, if any, for an imminent
// operation. It returns the hook's verdict.
func (d *Disk) checkFault(op FaultOp, id PageID) error {
	d.mu.Lock()
	fn := d.fault
	cat := d.cats[id]
	d.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn(FaultInfo{Op: op, ID: id, Cat: cat, Seq: d.faultSeq.Add(1)})
}

// Alloc reserves a new zeroed full page and returns its ID. The page is
// tagged CatData; use AllocCat to tag index pages.
func (d *Disk) Alloc() PageID { return d.AllocCat(CatData, d.pageSize) }

// AllocCat reserves a new zeroed page of size bytes — a full page, a
// half or a quarter of one — tagged with cat, so fault injection and
// diagnostics can target pages by category.
func (d *Disk) AllocCat(cat Category, size int) PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return InvalidPageID
	}
	d.next++
	id := PageID(d.next)
	d.addLocked(id, cat, make([]byte, size), NoLSN)
	return id
}

// addLocked files page as id's contents and places it at its size.
func (d *Disk) addLocked(id PageID, cat Category, page []byte, lsn LSN) {
	m := pageMeta{lsn: lsn, sum: crc32.Checksum(page, castagnoli)}
	d.place(&m, len(page))
	d.pages[id] = page
	d.cats[id] = cat
	d.meta[id] = m
}

// quarters is the part of an extent a page of size bytes fills: 1, 2, 4.
func (d *Disk) quarters(size int) uint8 {
	switch size {
	case d.pageSize / 4:
		return 1
	case d.pageSize / 2:
		return 2
	}
	return 4
}

// place puts m, a page of size bytes, in the lowest extent with an
// aligned run of quarters free, a new extent if none has one; a full
// page takes an extent of its own.
func (d *Disk) place(m *pageMeta, size int) {
	q := d.quarters(size)
	if q == 4 {
		m.size, m.bits = size, 0
		d.bySize[2]++
		return
	}
	for d.hint < len(d.exts) && d.exts[d.hint] == 0xF {
		d.hint++
	}
	for e := d.hint; ; e++ {
		if e == len(d.exts) {
			d.exts = append(d.exts, 0)
		}
		for at := uint8(0); at < 4; at += q {
			if run := (uint8(1)<<q - 1) << at; d.exts[e]&run == 0 {
				d.claim(m, size, e, run)
				return
			}
		}
	}
}

// claim gives m, a sub-page of size bytes, the quarters run of extent e.
func (d *Disk) claim(m *pageMeta, size, e int, run uint8) {
	if d.exts[e] == 0 {
		d.inUse++
	}
	d.exts[e] |= run
	d.bySize[d.quarters(size)>>1]++
	m.size, m.ext, m.bits = size, int32(e), run
}

// unplace frees the room m holds.
func (d *Disk) unplace(m pageMeta) {
	d.bySize[d.quarters(m.size)>>1]--
	if m.bits == 0 {
		return
	}
	if d.exts[m.ext] &^= m.bits; d.exts[m.ext] == 0 {
		d.inUse--
	}
	d.hint = min(d.hint, int(m.ext))
}

// Resize grows page id to a half or a full page. It takes the free
// buddy beside it when the aligned run of the new size holds nothing
// else, and moves to the first free run otherwise. Only the room moves:
// the page's bytes stay as last written until the next write (the pool
// grows the frame in step, BufferPool.Grow).
func (d *Disk) Resize(id PageID, size int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, ok := d.meta[id]
	switch {
	case d.crashed:
		return ErrDiskCrashed
	case !ok || size <= m.size || size != d.pageSize && size != d.pageSize/2:
		return fmt.Errorf("storage: page %d (allocated %v, %d bytes) grown to %d bytes, not a half or all of %d", id, ok, m.size, size, d.pageSize)
	}
	d.resizeLocked(id, m, size)
	return nil
}

func (d *Disk) resizeLocked(id PageID, m pageMeta, size int) {
	q, e := d.quarters(size), int(m.ext)
	run := (uint8(1)<<q - 1) << (bits.TrailingZeros8(m.bits) &^ int(q-1))
	buddy := q < 4 && m.bits != 0 && d.exts[e]&run == m.bits
	d.unplace(m)
	if buddy {
		d.claim(&m, size, e, run)
	} else {
		d.place(&m, size)
	}
	d.meta[id] = m
}

// SizeOf returns the size of page id, 0 if it is not allocated.
func (d *Disk) SizeOf(id PageID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.meta[id].size
}

// Settle gives every page, in id order, the size of its last written
// image, as a restart sees it: replay redoes the grows that never
// reached the disk.
func (d *Disk) Settle() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for id := PageID(1); id <= PageID(d.next); id++ {
		if page, ok := d.pages[id]; ok && d.meta[id].size != len(page) {
			d.resizeLocked(id, d.meta[id], len(page))
		}
	}
}

// SetCrashed marks the disk as crashed (true) or repaired (false).
// While crashed every operation fails with ErrDiskCrashed and Alloc
// returns InvalidPageID; the stored pages survive for recovery.
func (d *Disk) SetCrashed(crashed bool) {
	d.mu.Lock()
	d.crashed = crashed
	d.mu.Unlock()
}

// Read copies the page contents into dst, simulating I/O latency.
// Reads of unallocated pages fail immediately, before any simulated
// latency is paid: no I/O happened, so no I/O cost applies.
func (d *Disk) Read(id PageID, dst []byte) error {
	return d.read(id, dst, d.ReadLatency)
}

// read is Read at a latency the caller sampled. ReadLatency is a plain
// field that harnesses reassign between runs, when no session is
// running; a hinted read may still be, so its goroutine is handed the
// value that held when the hint was issued and never reads the field.
func (d *Disk) read(id PageID, dst []byte, latency time.Duration) error {
	d.mu.Lock()
	crashed := d.crashed
	_, ok := d.pages[id]
	d.mu.Unlock()
	if crashed {
		return ErrDiskCrashed
	}
	if !ok {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	if err := d.checkFault(FaultRead, id); err != nil {
		return err
	}
	if latency > 0 {
		time.Sleep(latency)
	}
	d.mu.Lock()
	src, ok := d.pages[id]
	var badSum bool
	if ok {
		copy(dst, src)
		badSum = crc32.Checksum(src, castagnoli) != d.meta[id].sum
	}
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	if badSum {
		return fmt.Errorf("storage: page %d: %w", id, ErrPageCorrupt)
	}
	d.physReads.Add(1)
	return nil
}

// Write copies src to the page, stamping a fresh checksum and keeping
// the page's recorded LSN. Use WriteLSN to advance the LSN too.
func (d *Disk) Write(id PageID, src []byte) error {
	return d.write(id, src, false, NoLSN)
}

// WriteLSN copies src to the page and records lsn as the page's LSN —
// the write-back path of a WAL-governed buffer pool, which by the
// WAL-before-data rule may only run once the log is durable past lsn.
func (d *Disk) WriteLSN(id PageID, src []byte, lsn LSN) error {
	return d.write(id, src, true, lsn)
}

func (d *Disk) write(id PageID, src []byte, setLSN bool, lsn LSN) error {
	d.mu.Lock()
	crashed := d.crashed
	d.mu.Unlock()
	if crashed {
		return ErrDiskCrashed
	}
	if err := d.checkFault(FaultWrite, id); err != nil {
		return err
	}
	d.mu.Lock()
	dst, ok := d.pages[id]
	if ok {
		if len(dst) != len(src) { // the first write since a resize
			dst = make([]byte, len(src))
			d.pages[id] = dst
		}
		copy(dst, src)
		m := d.meta[id]
		m.sum = crc32.Checksum(dst, castagnoli)
		if setLSN {
			m.lsn = lsn
		}
		d.meta[id] = m
	}
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	d.physWrites.Add(1)
	return nil
}

// PageLSN returns the LSN recorded with the page's last WriteLSN, or
// NoLSN for pages never written under WAL (or unallocated).
func (d *Disk) PageLSN(id PageID) LSN {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.meta[id].lsn
}

// CorruptPage flips bytes of the stored page without touching its
// checksum, so the next Read fails with ErrPageCorrupt. It reports
// whether the page existed.
func (d *Disk) CorruptPage(id PageID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	page, ok := d.pages[id]
	if !ok {
		return false
	}
	page[len(page)/2] ^= 0xFF
	return true
}

// Free releases the page.
func (d *Disk) Free(id PageID) {
	d.mu.Lock()
	if m, ok := d.meta[id]; ok {
		d.unplace(m)
	}
	delete(d.pages, id)
	delete(d.cats, id)
	delete(d.meta, id)
	d.mu.Unlock()
}

// Allocated reports whether the page currently exists.
func (d *Disk) Allocated(id PageID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.pages[id]
	return ok
}

// PageIDs returns the IDs of all allocated pages (any order).
func (d *Disk) PageIDs() []PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]PageID, 0, len(d.pages))
	for id := range d.pages {
		out = append(out, id)
	}
	return out
}

// NumPages returns the number of page-size extents in use: one per
// full page, and one per extent that holds any sub-page. PageIDs lists
// the pages themselves.
func (d *Disk) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bySize[2] + d.inUse
}

// Census counts the disk's pages by size class: quarter, half and full
// pages.
func (d *Disk) Census() [3]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bySize
}

// PhysReads returns the cumulative physical read count.
func (d *Disk) PhysReads() int64 { return d.physReads.Load() }

// PhysWrites returns the cumulative physical write count.
func (d *Disk) PhysWrites() int64 { return d.physWrites.Load() }

// ResetCounters zeroes the physical I/O counters.
func (d *Disk) ResetCounters() {
	d.physReads.Store(0)
	d.physWrites.Store(0)
}
