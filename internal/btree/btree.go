// Package btree implements a B+tree keyed by opaque byte strings whose
// pages live in the shared buffer pool. Because index pages compete for
// buffer-pool frames exactly like data pages, the paper's §5 effect —
// index-root eviction once the table count exhausts the meta-data
// budget — arises naturally.
//
// Keys must be unique at this layer. Non-unique SQL indexes append the
// record's RID encoding to the key (a "partitioned B-tree" in Graefe's
// sense: the leading columns are highly redundant and simply partition
// the tree, as the paper notes for (Tenant, Table, Chunk, Row) indexes).
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/storage"
)

// ErrDuplicateKey is returned when inserting a key that already exists.
var ErrDuplicateKey = errors.New("btree: duplicate key")

// ErrKeyNotFound is returned by Delete and Get for missing keys.
var ErrKeyNotFound = errors.New("btree: key not found")

// Node page layout — a slotted page, searched and changed where it lies
// in the pinned buffer-pool frame:
//
//	[0]      kind: leaf (1) / inner (0)
//	[1:3)    n, entry count, uint16
//	[3:11)   link: leaf: next-leaf PageID; inner: child[0] PageID
//	[11:13)  heap, uint16: bytes in use at the page tail — live entries
//	         plus the holes deletes left between them
//	[13:15)  live, uint16: bytes of live entries alone
//	[15:15+2n) directory: one uint16 entry offset per entry, in key order
//	...      free space
//	[size-heap:size) entries, newest lowest:
//	         leaf:  keyLen uvarint, key, page uint48, slot uint16
//	         inner: keyLen uvarint, key, child uint48 (keys >= key)
//
// Readers binary-search the directory and compare keys in the frame. An
// insert writes its entry just below the heap and opens a two-byte slot
// in the directory; a delete closes the slot and leaves the bytes as a
// hole; an update overwrites the RID. Whether an entry fits is decided
// from live bytes alone (fits), never from where the holes happen to
// be, so the live tree and WAL replay split at the same insert; when
// the gap between directory and heap is too small for an entry that
// fits, the node is compacted first.
const (
	offCount   = 1
	offLink    = 3
	offHeap    = 11
	offLive    = 13
	nodeHeader = 15

	slotSize = 2 // one directory entry
	// Entries hold page ids in six bytes, which pays for the directory
	// slot: ids are a dense counter (storage.Disk), so 2^48 pages of
	// any size is more than a disk can hold. maxPageID guards the RIDs
	// callers pass in.
	pageIDSize = 6
	maxPageID  = 1<<(8*pageIDSize) - 1
	ridSize    = pageIDSize + 2 // leaf entry payload: page, slot
	childSize  = pageIDSize     // inner entry payload
)

// node is a node page viewed in place; its length is the page size.
type node []byte

func (n node) leaf() bool { return n[0] == 1 }
func (n node) count() int { return int(binary.LittleEndian.Uint16(n[offCount:])) }
func (n node) heap() int  { return int(binary.LittleEndian.Uint16(n[offHeap:])) }
func (n node) live() int  { return int(binary.LittleEndian.Uint16(n[offLive:])) }

// link is the next leaf of a leaf and child[0] of an inner node.
func (n node) link() storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint64(n[offLink:]))
}

func (n node) setCount(v int) { binary.LittleEndian.PutUint16(n[offCount:], uint16(v)) }
func (n node) setHeap(v int)  { binary.LittleEndian.PutUint16(n[offHeap:], uint16(v)) }
func (n node) setLive(v int)  { binary.LittleEndian.PutUint16(n[offLive:], uint16(v)) }

// init formats n as an empty node.
func (n node) init(leaf bool, link storage.PageID) {
	n[0] = 0
	if leaf {
		n[0] = 1
	}
	n.setCount(0)
	binary.LittleEndian.PutUint64(n[offLink:], uint64(link))
	n.setHeap(0)
	n.setLive(0)
}

func (n node) valSize() int {
	if n.leaf() {
		return ridSize
	}
	return childSize
}

// off returns the byte offset of entry i.
func (n node) off(i int) int {
	return int(binary.LittleEndian.Uint16(n[nodeHeader+slotSize*i:]))
}

// entryAt splits the entry starting at b[off] into its key and its
// valSize-byte payload; both alias b.
func entryAt(b []byte, off, valSize int) (key, val []byte) {
	kl, p := int(b[off]), off+1
	if kl >= 0x80 {
		v, w := binary.Uvarint(b[off:])
		kl, p = int(v), off+w
	}
	return b[p : p+kl : p+kl], b[p+kl : p+kl+valSize]
}

// entrySize is the heap bytes an entry with a keyLen-byte key takes.
func entrySize(keyLen, valSize int) int {
	w := 1
	for v := keyLen; v >= 0x80; v >>= 7 {
		w++
	}
	return w + keyLen + valSize
}

func (n node) entry(i int) (key, val []byte) { return entryAt(n, n.off(i), n.valSize()) }

func (n node) key(i int) []byte {
	k, _ := n.entry(i)
	return k
}

// raw returns entry i as it lies in the heap: length, key, payload.
func (n node) raw(i int) []byte {
	off := n.off(i)
	k, v := entryAt(n, off, n.valSize())
	return n[off : off+entrySize(len(k), len(v))]
}

func getPageID(b []byte) storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint32(b)) | storage.PageID(binary.LittleEndian.Uint16(b[4:]))<<32
}

func putPageID(b []byte, id storage.PageID) {
	binary.LittleEndian.PutUint32(b, uint32(id))
	binary.LittleEndian.PutUint16(b[4:], uint16(id>>32))
}

func getRID(b []byte) storage.RID {
	return storage.RID{Page: getPageID(b), Slot: binary.LittleEndian.Uint16(b[pageIDSize:])}
}

func putRID(b []byte, rid storage.RID) {
	putPageID(b, rid.Page)
	binary.LittleEndian.PutUint16(b[pageIDSize:], rid.Slot)
}

func checkRID(rid storage.RID) error {
	if rid.Page > maxPageID {
		return fmt.Errorf("btree: RID page %d does not fit %d bytes", rid.Page, pageIDSize)
	}
	return nil
}

// child returns child i of an inner node, 0 <= i <= count.
func (n node) child(i int) storage.PageID {
	if i == 0 {
		return n.link()
	}
	_, v := n.entry(i - 1)
	return getPageID(v)
}

// bound returns the first position whose key is >= key, or > key when
// after is set.
func (n node) bound(key []byte, after bool) int {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if c := bytes.Compare(n.key(mid), key); c < 0 || after && c == 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// search returns the position key has or would take, and whether it is
// there.
func (n node) search(key []byte) (int, bool) {
	pos := n.bound(key, false)
	return pos, pos < n.count() && bytes.Equal(n.key(pos), key)
}

// childFor picks the child subtree for key: the largest separator <= key
// routes to its right child; otherwise child[0].
func (n node) childFor(key []byte) (int, storage.PageID) {
	idx := n.bound(key, true)
	return idx, n.child(idx)
}

// fits reports whether one more entry with a keyLen-byte key has room.
// It counts live bytes only, so two nodes holding the same entries
// answer alike however their holes differ.
func (n node) fits(keyLen int) bool {
	return nodeHeader+slotSize*(n.count()+1)+n.live()+entrySize(keyLen, n.valSize()) <= len(n)
}

// keyFits is the oversized-key guard: three entries of the key's size
// must fit one page. A split divides the entries at the byte midpoint,
// which can leave one half heavier by up to one entry; with no entry
// over a third of the page both halves always fit, and an inner node
// keeps a key on each side of the separator it pushes up.
func keyFits(keyLen, pageSize int) bool {
	return nodeHeader+3*(slotSize+entrySize(keyLen, ridSize)) <= pageSize
}

// insert places (key, val) at directory position pos. The caller has
// checked fits; key and val must not alias n.
func (n node) insert(pos int, key, val []byte) {
	cnt, sz := n.count(), entrySize(len(key), len(val))
	dirEnd := nodeHeader + slotSize*cnt
	if len(n)-n.heap()-dirEnd < sz+slotSize {
		n.compact()
	}
	off := len(n) - n.heap() - sz
	p := off + binary.PutUvarint(n[off:], uint64(len(key)))
	p += copy(n[p:], key)
	copy(n[p:], val)
	slot := nodeHeader + slotSize*pos
	copy(n[slot+slotSize:dirEnd+slotSize], n[slot:dirEnd])
	binary.LittleEndian.PutUint16(n[slot:], uint16(off))
	n.setCount(cnt + 1)
	n.setHeap(n.heap() + sz)
	n.setLive(n.live() + sz)
}

// remove drops directory slot pos; the entry's bytes stay behind as a
// hole until the next compaction.
func (n node) remove(pos int) {
	slot, dirEnd := nodeHeader+slotSize*pos, nodeHeader+slotSize*n.count()
	n.setLive(n.live() - len(n.raw(pos)))
	copy(n[slot:], n[slot+slotSize:dirEnd])
	n.setCount(n.count() - 1)
}

// compact repacks the live entries against the page end, squeezing out
// the holes.
func (n node) compact() {
	old := node(append([]byte(nil), n...))
	w := len(n)
	for i, cnt := 0, n.count(); i < cnt; i++ {
		r := old.raw(i)
		w -= len(r)
		copy(n[w:], r)
		binary.LittleEndian.PutUint16(n[nodeHeader+slotSize*i:], uint16(w))
	}
	n.setHeap(len(n) - w)
}

// split renders the entries of n plus the new (key, val) at position
// pos into two empty images: left replaces n, right is its new sibling
// at page rightID. It returns the separator to insert into the parent
// (an alias of n, key or right). The halves divide at the byte
// midpoint: for equal-sized entries that is the count midpoint.
func (n node) split(pos int, key, val []byte, left, right node, rightID storage.PageID) []byte {
	cnt, vs := n.count(), n.valSize()
	ent := func(i int) ([]byte, []byte) {
		switch {
		case i < pos:
			return n.entry(i)
		case i == pos:
			return key, val
		}
		return n.entry(i - 1)
	}
	fill := func(dst node, from, to int) {
		for i := from; i < to; i++ {
			k, v := ent(i)
			dst.insert(dst.count(), k, v)
		}
	}
	total := n.live() + entrySize(len(key), vs) + slotSize*(cnt+1)
	mid := 0
	for acc := 0; ; mid++ {
		k, _ := ent(mid)
		acc += slotSize + entrySize(len(k), vs)
		if acc > total/2 {
			break
		}
	}
	if n.leaf() {
		left.init(true, rightID)
		right.init(true, n.link())
		fill(left, 0, mid)
		fill(right, mid, cnt+1)
		return right.key(0)
	}
	sep, child := ent(mid)
	left.init(false, n.link())
	right.init(false, getPageID(child))
	fill(left, 0, mid)
	fill(right, mid+1, cnt+1)
	return sep
}

// Logger receives redo records for tree page mutations. wal.Scope's
// TreeLogger implements it structurally; btree does not import wal.
// Every method is called BEFORE the corresponding bytes change, so a
// failed append leaves the tree untouched and in agreement with the
// log.
type Logger interface {
	// BTreePageAlloc records a fresh index-page allocation.
	BTreePageAlloc(page storage.PageID) error
	// BTreeInit records the formatting of page as an empty leaf.
	BTreeInit(page storage.PageID) error
	// BTreeInsert records adding key→rid on the leaf at page.
	BTreeInsert(page storage.PageID, key []byte, rid storage.RID) error
	// BTreeDelete records removing key from the leaf at page.
	BTreeDelete(page storage.PageID, key []byte) error
	// BTreeUpdate records repointing key to rid on the leaf at page.
	BTreeUpdate(page storage.PageID, key []byte, rid storage.RID) error
	// BTreePageImage records the full post-image of a restructured page.
	BTreePageImage(page storage.PageID, img []byte) error
	// BTreeRoot records a root change.
	BTreeRoot(old, new storage.PageID) error
}

// BTree is the tree handle. Mutations must be externally serialized
// against each other (the engine's table write locks do this); readers
// may run concurrently with each other but not with a writer.
type BTree struct {
	pool   *storage.BufferPool
	mu     sync.RWMutex
	root   storage.PageID
	size   int64
	logger Logger
}

// New creates an empty tree with a single leaf root.
func New(pool *storage.BufferPool) (*BTree, error) {
	return NewLogged(pool, nil)
}

// NewLogged creates an empty tree, logging the root allocation and
// initialization through lg (which stays installed).
func NewLogged(pool *storage.BufferPool, lg Logger) (*BTree, error) {
	id, buf, err := pool.NewPage(storage.CatIndex)
	if err != nil {
		return nil, err
	}
	if lg != nil {
		if err := lg.BTreePageAlloc(id); err == nil {
			err = lg.BTreeInit(id)
		}
		if err != nil {
			pool.Unpin(id, false)
			_ = pool.FreePage(id)
			return nil, err
		}
	}
	node(buf).init(true, storage.InvalidPageID)
	pool.Unpin(id, true)
	return &BTree{pool: pool, root: id, logger: lg}, nil
}

// Restore rebuilds a tree handle over an existing root page (the
// recovery path). Call RecountSize afterwards to rebuild the entry
// count.
func Restore(pool *storage.BufferPool, root storage.PageID) *BTree {
	return &BTree{pool: pool, root: root}
}

// SetLogger installs (or, with nil, removes) the WAL logger. The
// engine swaps it per statement under the table's write lock.
func (t *BTree) SetLogger(lg Logger) {
	t.mu.Lock()
	t.logger = lg
	t.mu.Unlock()
}

// Root returns the current root page ID.
func (t *BTree) Root() storage.PageID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.root
}

// Prefetch hints the root page, where every descent starts.
func (t *BTree) Prefetch() { t.pool.Prefetch(t.Root(), storage.CatIndex) }

// SetRoot repoints the tree from old to new — the live replay of a
// primary's KBTreeRoot record on a replica, where the split that grew
// the tree happened through the redo path rather than through Insert.
// Reports whether the tree's root actually was old (a record belonging
// to some other table's index matches nothing).
func (t *BTree) SetRoot(old, new storage.PageID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root != old {
		return false
	}
	t.root = new
	return true
}

// Len returns the number of entries.
func (t *BTree) Len() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// descend walks from the root to a leaf — the one that would hold key,
// or the leftmost when key is nil — and returns it pinned, for the
// caller to unpin, with the number of levels walked.
func (t *BTree) descend(key []byte) (leaf storage.PageID, n node, height int, err error) {
	cur := t.root
	for height = 1; ; height++ {
		buf, err := t.pool.Fetch(cur, storage.CatIndex)
		if err != nil {
			return 0, nil, 0, err
		}
		n = node(buf)
		if n.leaf() {
			return cur, n, height, nil
		}
		child := n.link()
		if key != nil {
			_, child = n.childFor(key)
		}
		t.pool.Unpin(cur, false)
		cur = child
	}
}

// fetchEntry finds key on the leaf that would hold it and returns that
// leaf pinned, for the caller to unpin; a missing key is ErrKeyNotFound
// with nothing pinned.
func (t *BTree) fetchEntry(key []byte) (id storage.PageID, n node, pos int, err error) {
	id, n, _, err = t.descend(key)
	if err != nil {
		return 0, nil, 0, err
	}
	pos, ok := n.search(key)
	if !ok {
		t.pool.Unpin(id, false)
		return 0, nil, 0, ErrKeyNotFound
	}
	return id, n, pos, nil
}

// Get returns the RID stored under key.
func (t *BTree) Get(key []byte) (storage.RID, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, n, pos, err := t.fetchEntry(key)
	if err != nil {
		return storage.RID{}, err
	}
	_, v := n.entry(pos)
	rid := getRID(v)
	t.pool.Unpin(id, false)
	return rid, nil
}

// pinned is one node of an Insert's root-to-leaf path.
type pinned struct {
	id    storage.PageID
	n     node
	pos   int // where the new entry goes: the child index taken, or the leaf position
	dirty bool
}

// Insert adds (key, rid). It fails with ErrDuplicateKey if key exists.
//
// Insert is atomic: it descends with every node on the path pinned,
// pre-allocates all pages the split chain needs, and only then applies
// the change with in-memory writes that cannot fail. An I/O error at
// any point (page load, allocation, eviction write-back) leaves the
// tree exactly as it was, which is what lets the catalog undo-log a
// successful Insert with a plain Delete.
func (t *BTree) Insert(key []byte, rid storage.RID) error { return t.insert(key, rid, false) }

// InsertCold is Insert for an index whose leaves only maintenance
// visits: the leaf is released to the cold end of the buffer pool's LRU
// (storage.BufferPool.UnpinCold), the inner nodes above it as Insert
// releases them.
func (t *BTree) InsertCold(key []byte, rid storage.RID) error { return t.insert(key, rid, true) }

// release unpins the leaf a write visited.
func (t *BTree) release(id storage.PageID, dirty, cold bool) {
	if cold {
		t.pool.UnpinCold(id, dirty)
	} else {
		t.pool.Unpin(id, dirty)
	}
}

func (t *BTree) insert(key []byte, rid storage.RID, cold bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !keyFits(len(key), t.pool.PageSize()) {
		return fmt.Errorf("btree: key of %d bytes too large for page", len(key))
	}
	if err := checkRID(rid); err != nil {
		return err
	}

	// Phase 1: descend to the target leaf keeping the whole path pinned.
	var pathBuf [8]pinned
	path := pathBuf[:0]
	defer func() {
		// Leaf first: the inner nodes above it end up hotter in the LRU.
		if last := len(path) - 1; last >= 0 {
			t.release(path[last].id, path[last].dirty, cold)
			for _, p := range path[:last] {
				t.pool.Unpin(p.id, p.dirty)
			}
		}
	}()
	for cur := t.root; ; {
		buf, err := t.pool.Fetch(cur, storage.CatIndex)
		if err != nil {
			return err
		}
		n := node(buf)
		if n.leaf() {
			pos, exists := n.search(key)
			path = append(path, pinned{id: cur, n: n, pos: pos})
			if exists {
				return ErrDuplicateKey
			}
			break
		}
		idx, child := n.childFor(key)
		path = append(path, pinned{id: cur, n: n, pos: idx})
		cur = child
	}
	leaf := &path[len(path)-1]
	var val [ridSize]byte
	putRID(val[:], rid)

	if !leaf.n.fits(len(key)) {
		if err := t.insertSplit(path, key, val[:]); err != nil {
			return err
		}
		t.size++
		return nil
	}
	if t.logger != nil {
		// Log before touching the page: a failed append leaves the
		// leaf exactly as it was.
		if err := t.logger.BTreeInsert(leaf.id, key, rid); err != nil {
			return err
		}
	}
	leaf.n.insert(leaf.pos, key, val[:])
	leaf.dirty = true
	t.size++
	return nil
}

// insertSplit is Insert's phases 2 and 3 for a full leaf: path is the
// pinned root-to-leaf path, (key, val) the entry that did not fit.
func (t *BTree) insertSplit(path []pinned, key, val []byte) error {
	// Phase 2: render the post-image of every page the split touches
	// into scratch, bottom-up, allocating every new page before touching
	// any existing one; failures free the fresh pages and leave no
	// trace. Splits are logged as full post-images — replaying the split
	// algorithm byte-for-byte is exactly the fragility physiological
	// logging avoids at this one structural point — and the images must
	// exist before any pinned byte changes, so that a failed log append
	// aborts cleanly.
	ps := t.pool.PageSize()
	type pageWrite struct {
		id  storage.PageID
		dst []byte // pinned frame
		img node   // scratch post-image
	}
	var writes []pageWrite
	var fresh []storage.PageID
	fail := func(err error) error {
		for _, id := range fresh {
			t.pool.Unpin(id, false)
			_ = t.pool.FreePage(id)
		}
		return err
	}
	alloc := func() (storage.PageID, []byte, error) {
		id, buf, err := t.pool.NewPage(storage.CatIndex)
		if err == nil {
			fresh = append(fresh, id)
		}
		return id, buf, err
	}

	// (key, val) is the entry the level below pushes up: first the new
	// leaf entry, then each (separator, right sibling) pair, until some
	// inner node has room for it or the root itself has split.
	var carry [childSize]byte
	newRoot := storage.InvalidPageID
	top := len(path) - 1 // the highest path level the split rewrites
	for ; ; top-- {
		p := &path[top]
		if p.n.fits(len(key)) {
			img := node(append([]byte(nil), p.n...))
			img.insert(p.pos, key, val)
			writes = append(writes, pageWrite{p.id, p.n, img})
			break
		}
		rightID, rightBuf, err := alloc()
		if err != nil {
			return fail(err)
		}
		left, right := node(make([]byte, ps)), node(make([]byte, ps))
		key = p.n.split(p.pos, key, val, left, right, rightID)
		putPageID(carry[:], rightID)
		val = carry[:]
		writes = append(writes, pageWrite{rightID, rightBuf, right}, pageWrite{p.id, p.n, left})
		if top == 0 {
			rootID, rootBuf, err := alloc()
			if err != nil {
				return fail(err)
			}
			img := node(make([]byte, ps))
			img.init(false, t.root)
			img.insert(0, key, val)
			writes = append(writes, pageWrite{rootID, rootBuf, img})
			newRoot = rootID
			break
		}
	}

	if t.logger != nil {
		for _, id := range fresh {
			if err := t.logger.BTreePageAlloc(id); err != nil {
				return fail(err)
			}
		}
		for _, w := range writes {
			if err := t.logger.BTreePageImage(w.id, w.img); err != nil {
				return fail(err)
			}
		}
		if newRoot != storage.InvalidPageID {
			if err := t.logger.BTreeRoot(t.root, newRoot); err != nil {
				return fail(err)
			}
		}
	}

	// Phase 3: apply. Plain copies into pinned frames cannot fail.
	for _, w := range writes {
		copy(w.dst, w.img)
	}
	for _, id := range fresh {
		t.pool.Unpin(id, true)
	}
	for i := top; i < len(path); i++ {
		path[i].dirty = true
	}
	if newRoot != storage.InvalidPageID {
		t.root = newRoot
	}
	return nil
}

// Delete removes key. Underflowed nodes are left in place (lazy
// deletion); pages are only reclaimed by Drop.
func (t *BTree) Delete(key []byte) error { return t.delete(key, false) }

// DeleteCold is Delete releasing the leaf as InsertCold does.
func (t *BTree) DeleteCold(key []byte) error { return t.delete(key, true) }

func (t *BTree) delete(key []byte, cold bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, n, pos, err := t.fetchEntry(key)
	if err != nil {
		return err
	}
	if t.logger != nil {
		if err := t.logger.BTreeDelete(id, key); err != nil {
			t.pool.Unpin(id, false)
			return err
		}
	}
	n.remove(pos)
	t.release(id, true, cold)
	t.size--
	return nil
}

// Update changes the RID stored under an existing key.
func (t *BTree) Update(key []byte, rid storage.RID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := checkRID(rid); err != nil {
		return err
	}
	id, n, pos, err := t.fetchEntry(key)
	if err != nil {
		return err
	}
	if t.logger != nil {
		if err := t.logger.BTreeUpdate(id, key, rid); err != nil {
			t.pool.Unpin(id, false)
			return err
		}
	}
	_, v := n.entry(pos)
	putRID(v, rid)
	t.pool.Unpin(id, true)
	return nil
}

// Height returns the number of levels (1 for a lone leaf).
func (t *BTree) Height() (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, _, h, err := t.descend(nil)
	if err == nil {
		t.pool.Unpin(id, false)
	}
	return h, err
}

// Drop frees every page of the tree. The tree is unusable afterwards.
func (t *BTree) Drop() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropRec(t.root)
}

func (t *BTree) dropRec(id storage.PageID) error {
	buf, err := t.pool.Fetch(id, storage.CatIndex)
	if err != nil {
		return err
	}
	if n := node(buf); !n.leaf() {
		for i := 0; i <= n.count() && err == nil; i++ {
			err = t.dropRec(n.child(i))
		}
	}
	t.pool.Unpin(id, false)
	if err != nil {
		return err
	}
	return t.pool.FreePage(id)
}
