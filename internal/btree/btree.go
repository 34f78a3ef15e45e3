// Package btree implements a B+tree keyed by opaque byte strings whose
// pages live in the shared buffer pool. Because index pages compete for
// buffer-pool frames exactly like data pages, the paper's §5 effect —
// index-root eviction once the table count exhausts the meta-data
// budget — arises naturally.
//
// Keys must be unique at this layer. Non-unique SQL indexes append the
// record's RID encoding to the key (a "partitioned B-tree" in Graefe's
// sense: the leading columns are highly redundant and simply partition
// the tree, as the paper notes for (Tenant, Table, Chunk, Row) indexes),
// and their leaves store nothing beside the key.
// Keys come from types.EncodeKey, where a small integer costs only its
// significant bytes, and a node stores once the prefix its fence keys
// share (see the node layout): inside one tenant's table and chunk the
// meta-data columns and a Row's leading bytes are a leaf's prefix, and
// an entry keeps a byte or two of its Row and its RID. A full leaf first
// hands entries to a sibling under the same parent, as a B*-tree's
// overflow does, and splits only when neither sibling has room (shed),
// so that leaves filled in any order end some four fifths full.
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

// ErrNoRoot is returned by a read or a write of a rootless tree, one
// not built yet (see Build).
var ErrNoRoot = errors.New("btree: tree not built")

// Node page layout — a slotted page, searched and changed where it lies
// in the pinned buffer-pool frame:
//
//	[0]      kind: inner (0); leaf (1), whose entries carry their RID as
//	         payload (a unique index); leaf (2), whose entries carry none:
//	         each key ends in its RID (a non-unique index)
//	[1:3)    n, entry count, uint16
//	[3:9)    link, uint48: leaf: next-leaf PageID; inner: child[0] PageID
//	[9:11)   p, prefix length, uint16
//	[11:13)  heap, uint16: bytes in use at the page tail — live entries
//	         plus the holes deletes left between them
//	[13:15)  live, uint16: bytes of live entries alone
//	[15:15+p) prefix: the longest common prefix of the node's fence keys
//	[15+p:15+p+2n) directory: one uint16 entry offset per entry, in key order
//	...      free space
//	[size-heap:size) entries, newest lowest, each key without the prefix:
//	         leaf (1): keyLen uvarint, key, RID (AppendRID's form)
//	         leaf (2): keyLen uvarint, key (ending in AppendRID's form)
//	         inner:    keyLen uvarint, key, child uint48 (keys >= key)
//
// A node's fence keys are the separators that bound it in its
// ancestors: every key it holds lies in [low fence, high fence), so every
// key begins with their common prefix, and the node stores those bytes
// once (Bayer and Unterauer's prefix B-trees). The root has no fences,
// and the first and last node of a level have an open one: their prefix
// is empty. A split sets each half's prefix from the fences the pinned
// path gives it, and a shed (see split.go) both leaves' prefixes;
// nothing else moves a fence. Readers compare full keys against a node's entries
// without assembling them: a key that does not begin with the prefix
// sorts before or after all of them (strip).
//
// Either way a leaf holds each RID once, in one encoding. Readers
// binary-search the directory and compare keys in the frame. An insert
// writes its entry just below the heap and opens a two-byte slot in the
// directory; a delete closes the slot and leaves the bytes as a hole.
// Whether an entry fits is decided from live bytes alone (fits), never
// from where the holes happen to be, so the live tree and WAL replay
// split at the same insert; when the gap between directory and heap is
// too small for an entry that fits, the node is compacted first.
const (
	offCount   = 1
	offLink    = 3
	offPrefix  = 9
	offHeap    = 11
	offLive    = 13
	nodeHeader = 15

	kindInner   = 0
	kindLeaf    = 1 // RID as payload
	kindKeyLeaf = 2 // RID as the key's suffix

	slotSize = 2 // one directory entry
	// Entries hold child page ids in six bytes, which pays for the
	// directory slot: ids are a dense counter (storage.Disk), so 2^48
	// pages of any size is more than a disk can hold. maxPageID guards
	// the RIDs callers pass in.
	pageIDSize = 6
	maxPageID  = 1<<(8*pageIDSize) - 1
	childSize  = pageIDSize // inner entry payload
)

// node is a node page viewed in place; its length is the page size.
type node []byte

func (n node) leaf() bool     { return n[0] != kindInner }
func (n node) count() int     { return int(binary.LittleEndian.Uint16(n[offCount:])) }
func (n node) prefixLen() int { return int(binary.LittleEndian.Uint16(n[offPrefix:])) }
func (n node) heap() int      { return int(binary.LittleEndian.Uint16(n[offHeap:])) }
func (n node) live() int      { return int(binary.LittleEndian.Uint16(n[offLive:])) }

// prefix returns the bytes every key of n begins with, in place.
func (n node) prefix() []byte {
	end := n.dir()
	return n[nodeHeader:end:end]
}

// dir is the offset of the directory, just past the prefix.
func (n node) dir() int { return nodeHeader + n.prefixLen() }

// link is the next leaf of a leaf and child[0] of an inner node.
func (n node) link() storage.PageID { return getPageID(n[offLink:]) }

func (n node) setCount(v int) { binary.LittleEndian.PutUint16(n[offCount:], uint16(v)) }
func (n node) setHeap(v int)  { binary.LittleEndian.PutUint16(n[offHeap:], uint16(v)) }
func (n node) setLive(v int)  { binary.LittleEndian.PutUint16(n[offLive:], uint16(v)) }

// init formats n as an empty node of the given kind, whose keys all
// begin with prefix.
func (n node) init(kind byte, link storage.PageID, prefix []byte) {
	n[0] = kind
	n.setCount(0)
	putPageID(n[offLink:], link)
	binary.LittleEndian.PutUint16(n[offPrefix:], uint16(len(prefix)))
	copy(n[nodeHeader:], prefix)
	n.setHeap(0)
	n.setLive(0)
}

// off returns the byte offset of entry i.
func (n node) off(i int) int { return n.offIn(n.dir(), i) }

// offIn is off for a caller that knows where n's directory starts.
func (n node) offIn(dir, i int) int {
	return int(binary.LittleEndian.Uint16(n[dir+slotSize*i:]))
}

// keyAt returns where the key's suffix (the key without the node's
// prefix) of the entry starting at n[off] lies: n[p:end].
func (n node) keyAt(off int) (p, end int) {
	kl, p := int(n[off]), off+1
	if kl >= 0x80 {
		v, w := binary.Uvarint(n[off:])
		kl, p = int(v), off+w
	}
	return p, p + kl
}

// suffixAt returns the key's suffix of the entry starting at n[off], in
// place.
func (n node) suffixAt(off int) []byte {
	p, end := n.keyAt(off)
	return n[p:end:end]
}

// entryAt splits the entry starting at n[off] into its key's suffix and
// its payload, whose length the node's kind gives; both alias n.
func (n node) entryAt(off int) (suffix, val []byte) {
	p, end := n.keyAt(off)
	suffix = n[p:end:end]
	switch n[0] {
	case kindInner:
		return suffix, n[end : end+childSize]
	case kindLeaf:
		return suffix, n[end : end+ridLen(n[end])]
	}
	return suffix, nil
}

// entrySize is the heap bytes an entry with a keyLen-byte key takes.
func entrySize(keyLen, valSize int) int {
	w := 1
	for v := keyLen; v >= 0x80; v >>= 7 {
		w++
	}
	return w + keyLen + valSize
}

func (n node) entry(i int) (suffix, val []byte) { return n.entryAt(n.off(i)) }

// suffix returns key i without the node's prefix, in place.
func (n node) suffix(i int) []byte { return n.suffixAt(n.off(i)) }

// appendKey appends the full key i, prefix and suffix, to dst.
func (n node) appendKey(dst []byte, i int) []byte {
	p, s := n.prefix(), n.suffix(i)
	if cap(dst)-len(dst) < len(p)+len(s) { // one allocation, not one a part
		dst = append(make([]byte, 0, len(dst)+len(p)+len(s)), dst...)
	}
	return append(append(dst, p...), s...)
}

// gapless zeroes n's free gap, the bytes between its directory and its
// entry heap, and appends n without them to dst: a page image as the
// log carries it, which ReplayImage puts back into the same bytes.
func (n node) gapless(dst []byte) []byte {
	d, h := n.dir()+slotSize*n.count(), len(n)-n.heap()
	clear(n[d:h])
	return append(append(dst, n[:d]...), n[h:]...)
}

// raw returns entry i as it lies in the heap: length, suffix, payload.
func (n node) raw(i int) []byte {
	off := n.off(i)
	k, v := n.entryAt(off)
	return n[off : off+entrySize(len(k), len(v))]
}

func getPageID(b []byte) storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint32(b)) | storage.PageID(binary.LittleEndian.Uint16(b[4:]))<<32
}

func putPageID(b []byte, id storage.PageID) {
	binary.LittleEndian.PutUint32(b, uint32(id))
	binary.LittleEndian.PutUint16(b[4:], uint16(id>>32))
}

// child returns child i of an inner node, 0 <= i <= count.
func (n node) child(i int) storage.PageID {
	if i == 0 {
		return n.link()
	}
	_, v := n.entry(i - 1)
	return getPageID(v)
}

// rid returns the RID of leaf entry i: its payload, or its key's end.
// A key's suffix may be shorter than its RID's form when the prefix
// reaches into it (equal values whose RIDs share leading bytes): then
// the form is read across the seam.
func (n node) rid(i int) storage.RID { return n.ridAt(n.off(i)) }

// ridAt is rid for the entry starting at n[off].
func (n node) ridAt(off int) storage.RID {
	k, v := n.entryAt(off)
	switch {
	case n[0] != kindKeyLeaf:
		return decodeRID(v)
	case len(k) >= maxRIDLen:
		return ridSuffix(k)
	}
	var buf [2 * maxRIDLen]byte
	p := n.prefix()
	tail := append(buf[:0], p[max(0, len(p)-maxRIDLen):]...)
	return ridSuffix(append(tail, k...))
}

func leafKind(ridInKey bool) byte {
	if ridInKey {
		return kindKeyLeaf
	}
	return kindLeaf
}

// strip returns key without n's prefix, with c 0, when key begins with
// it. Otherwise key sorts before (c < 0) or after (c > 0) every key that
// does, and so every key of n.
func (n node) strip(key []byte) (suffix []byte, c int) { return n.stripLen(key, n.prefixLen()) }

// stripLen is strip for a caller that knows n's prefix length, pl.
func (n node) stripLen(key []byte, pl int) (suffix []byte, c int) {
	if pl == 0 {
		return key, 0
	}
	p := n[nodeHeader : nodeHeader+pl]
	if len(key) >= pl && string(key[:pl]) == string(p) {
		return key[pl:], 0
	}
	return nil, bytes.Compare(key, p)
}

// compare compares the full key i with key.
func (n node) compare(i int, key []byte) int {
	s, c := n.strip(key)
	if c != 0 {
		return -c
	}
	return bytes.Compare(n.suffix(i), s)
}

// bound returns the first position whose key is >= key, or > key when
// after is set.
func (n node) bound(key []byte, after bool) int {
	s, c := n.strip(key)
	switch {
	case c < 0:
		return 0
	case c > 0:
		return n.count()
	}
	return n.boundIn(s, after, 0, n.count())
}

// boundFrom is bound(key, false) for a reader last at position from,
// when key lies within n's first and last key (ok); otherwise it is
// 0, false. When every key before from is below key — a probe just
// past the one before — the search starts there, with the entry at
// from itself.
func (n node) boundFrom(key []byte, from int) (pos int, ok bool) {
	s, c := n.strip(key)
	if c != 0 {
		return 0, false
	}
	return n.boundFromSuffix(s, from)
}

// boundFromSuffix is boundFrom for a key whose suffix, stripped of n's
// prefix, is s.
func (n node) boundFromSuffix(s []byte, from int) (pos int, ok bool) {
	cnt := n.count()
	if cnt == 0 || bytes.Compare(n.suffix(0), s) > 0 || bytes.Compare(n.suffix(cnt-1), s) < 0 {
		return 0, false
	}
	switch from = min(from, cnt); {
	case from > 0 && bytes.Compare(n.suffix(from-1), s) >= 0:
		return n.boundIn(s, false, 0, from), true
	case from == cnt || bytes.Compare(n.suffix(from), s) >= 0:
		return from, true
	}
	return n.boundIn(s, false, from+1, cnt), true
}

// boundIn is bound over positions [lo, hi) of n for a key whose suffix
// is s, for a caller that knows the answer lies there.
func (n node) boundIn(s []byte, after bool, lo, hi int) int {
	dir := n.dir()
	for lo < hi {
		mid := (lo + hi) / 2
		k := n.suffixAt(int(binary.LittleEndian.Uint16(n[dir+slotSize*mid:])))
		if c := bytes.Compare(k, s); c < 0 || after && c == 0 {
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
	s, c := n.strip(key)
	switch {
	case c < 0:
		return 0, false
	case c > 0:
		return n.count(), false
	}
	pos := n.boundIn(s, false, 0, n.count())
	return pos, pos < n.count() && bytes.Equal(n.suffix(pos), s)
}

// childFor picks the child subtree for key: the largest separator <= key
// routes to its right child; otherwise child[0].
func (n node) childFor(key []byte) (int, storage.PageID) {
	idx := n.bound(key, true)
	return idx, n.child(idx)
}

// fits reports whether one more entry, key with payload val, has room;
// key lies within n's fences. It counts live bytes only, so two nodes
// holding the same entries answer alike however their holes differ.
func (n node) fits(key, val []byte) bool {
	return n.dir()+slotSize*(n.count()+1)+n.live()+entrySize(len(key)-n.prefixLen(), len(val)) <= len(n)
}

// keyFits is the oversized-key guard: three entries of the key's size
// must fit one page. A split divides the entries at the byte midpoint,
// which can leave one half heavier by up to one entry, or after a run
// of at least half the bytes, which leaves the right half at most half
// plus the new entry; with no entry over a third of the page both
// halves always fit, and an inner node keeps a key on each side of the
// separator it pushes up. A prefix only makes entries shorter: a node
// stores it once for all the entries that no longer hold it.
func keyFits(keyLen, pageSize int) bool {
	return nodeHeader+3*(slotSize+entrySize(keyLen, maxRIDLen)) <= pageSize
}

// insert places (key, val) at directory position pos. key lies within
// n's fences, and the caller has checked fits; key and val must not
// alias n.
func (n node) insert(pos int, key, val []byte) { n.put(pos, key[n.prefixLen():], val) }

// put is insert of an entry whose key's suffix is already cut.
func (n node) put(pos int, suffix, val []byte) {
	cnt, sz := n.count(), entrySize(len(suffix), len(val))
	dirEnd := n.dir() + slotSize*cnt
	if len(n)-n.heap()-dirEnd < sz+slotSize {
		n.compact()
	}
	off := len(n) - n.heap() - sz
	p := off + binary.PutUvarint(n[off:], uint64(len(suffix)))
	p += copy(n[p:], suffix)
	copy(n[p:], val)
	slot := n.dir() + slotSize*pos
	copy(n[slot+slotSize:dirEnd+slotSize], n[slot:dirEnd])
	binary.LittleEndian.PutUint16(n[slot:], uint16(off))
	n.setCount(cnt + 1)
	n.setHeap(n.heap() + sz)
	n.setLive(n.live() + sz)
}

// remove drops directory slot pos; the entry's bytes stay behind as a
// hole until the next compaction.
func (n node) remove(pos int) {
	slot, dirEnd := n.dir()+slotSize*pos, n.dir()+slotSize*n.count()
	n.setLive(n.live() - len(n.raw(pos)))
	copy(n[slot:], n[slot+slotSize:dirEnd])
	n.setCount(n.count() - 1)
}

// compact repacks the live entries against the page end, squeezing out
// the holes.
func (n node) compact() {
	old := node(append([]byte(nil), n...))
	w, dir := len(n), n.dir()
	for i, cnt := 0, n.count(); i < cnt; i++ {
		r := old.raw(i)
		w -= len(r)
		copy(n[w:], r)
		binary.LittleEndian.PutUint16(n[dir+slotSize*i:], uint16(w))
	}
	n.setHeap(len(n) - w)
}

// Logger receives redo records for tree page mutations. wal.Scope's
// TreeLogger implements it structurally; btree does not import wal.
// Every method is called BEFORE the corresponding bytes change, so a
// failed append leaves the tree untouched and in agreement with the
// log.
type Logger interface {
	// BTreePageAlloc records a fresh index-page allocation.
	BTreePageAlloc(page storage.PageID) error
	// BTreeInit records the formatting of page as an empty leaf, of the
	// kind ridInKey picks (see NewLogged).
	BTreeInit(page storage.PageID, ridInKey bool) error
	// BTreeInsert records adding key on the leaf at page with val, the
	// entry's value as the leaf stores it: the RID's AppendRID form on a
	// leaf that holds it as a payload, nothing on one whose keys end in it.
	BTreeInsert(page storage.PageID, key, val []byte) error
	// BTreeDelete records removing key from the leaf at page.
	BTreeDelete(page storage.PageID, key []byte) error
	// BTreePageImage records the post-image of a restructured page,
	// without its free gap (see ReplayImage); img is the tree's scratch.
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
	// ridVal is insert's scratch for an entry's value, under mu: one
	// on insert's stack would escape through the logger's interface.
	ridVal [maxRIDLen]byte
	// sizes is seq.weigh's buffer, under mu; a seq's sums hold until the
	// next seq weighs.
	sizes []int
	// logImg is insertSplit's scratch for a page image as the log takes
	// it, under mu: the logger copies what it keeps.
	logImg []byte
}

// New creates an empty tree with a single leaf root, whose leaves hold
// each RID as its entry's payload.
func New(pool *storage.BufferPool) (*BTree, error) {
	return NewLogged(pool, nil, false)
}

// NewLogged creates an empty tree, logging the root allocation and
// initialization through lg (which stays installed). With ridInKey its
// leaves store no payload: every key must end in its RID's AppendRID
// form, which is what Get and the iterator read back.
func NewLogged(pool *storage.BufferPool, lg Logger, ridInKey bool) (*BTree, error) {
	t := &BTree{pool: pool, logger: lg}
	if err := t.Build(ridInKey); err != nil {
		return nil, err
	}
	return t, nil
}

// Restore rebuilds a tree handle over an existing root page (the
// recovery path). Call RecountSize afterwards to rebuild the entry
// count. With root InvalidPageID the tree is rootless: it has no page
// and no entry, and every read or write but Build fails with
// ErrNoRoot.
func Restore(pool *storage.BufferPool, root storage.PageID) *BTree {
	return &BTree{pool: pool, root: root}
}

// Build gives a rootless tree its root, an empty leaf of the kind
// ridInKey picks (see NewLogged), logging the allocation and the
// format through the installed logger. A failure leaves it rootless.
func (t *BTree) Build(ridInKey bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root != storage.InvalidPageID {
		return fmt.Errorf("btree: build of a tree rooted at page %d", t.root)
	}
	id, buf, err := t.pool.NewPage(storage.CatIndex)
	if err != nil {
		return err
	}
	if lg := t.logger; lg != nil {
		if err := lg.BTreePageAlloc(id); err == nil {
			err = lg.BTreeInit(id, ridInKey)
		}
		if err != nil {
			t.pool.Unpin(id, false)
			_ = t.pool.FreePage(id)
			return err
		}
	}
	node(buf).init(leafKind(ridInKey), storage.InvalidPageID, nil)
	t.pool.Unpin(id, true)
	t.root = id
	return nil
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

// Prefetch hints the root page, where every descent starts (none when
// the tree is rootless).
func (t *BTree) Prefetch() { t.pool.Prefetch(t.Root(), storage.CatIndex) }

// SetRoot repoints the tree from old to new — the live replay of a
// primary's KBTreeRoot record on a replica, where the split that grew
// the tree happened through the redo path rather than through Insert,
// and, with old InvalidPageID, the replay of a build that gave a
// rootless tree the root new. Reports whether the tree's root actually
// was old (a record belonging to some other table's index matches
// nothing).
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
	if cur == storage.InvalidPageID {
		return 0, nil, 0, ErrNoRoot
	}
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
	rid := n.rid(pos)
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
func (t *BTree) Insert(key []byte, rid storage.RID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == storage.InvalidPageID {
		return ErrNoRoot
	}
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
			t.pool.Unpin(path[last].id, path[last].dirty)
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
	val := AppendRID(t.ridVal[:0], rid)
	if leaf.n[0] == kindKeyLeaf {
		if !bytes.HasSuffix(key, val) {
			return fmt.Errorf("btree: key does not end in its RID %v", rid)
		}
		val = nil
	}

	if !leaf.n.fits(key, val) {
		if err := t.insertSplit(path, key, val); err != nil {
			return err
		}
		t.size++
		return nil
	}
	if t.logger != nil {
		// Log before touching the page: a failed append leaves the
		// leaf exactly as it was.
		if err := t.logger.BTreeInsert(leaf.id, key, val); err != nil {
			return err
		}
	}
	leaf.n.insert(leaf.pos, key, val)
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
	// trace. Splits and sheds are logged as post-images, less their
	// free gap — replaying the algorithm byte for byte is exactly the
	// fragility physiological logging avoids at this one structural
	// point — and the images must exist before any pinned byte changes,
	// so that a failed log append aborts cleanly.
	ps := t.pool.PageSize()
	var writes []pageWrite
	var fresh []storage.PageID
	sibling := storage.InvalidPageID // a shed's sibling, pinned
	fail := func(err error) error {
		if sibling != storage.InvalidPageID {
			t.pool.Unpin(sibling, false)
		}
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
		if p.n.fits(key, val) {
			img := node(append([]byte(nil), p.n...))
			img.insert(p.pos, key, val)
			writes = append(writes, pageWrite{p.id, p.n, img})
			break
		}
		lo, hi := fences(path[:top])
		s := newSeq(nil, p.n, p.n, p.pos, key, val, t.sizes)
		mid, run := s.splitAt(lo, hi, ps)
		t.sizes = s.w
		if top > 0 && p.n.leaf() {
			sw, err := t.shed(path, lo, hi, key, val, s, run)
			if err != nil {
				return fail(err)
			}
			if sw != nil {
				writes, sibling = sw, sw[0].id
				top-- // the parent's separator moved
				break
			}
		}
		rightID, rightBuf, err := alloc()
		if err != nil {
			return fail(err)
		}
		left, right := node(make([]byte, ps)), node(make([]byte, ps))
		key = s.split(mid, lo, hi, left, right, rightID)
		putPageID(carry[:], rightID)
		val = carry[:]
		writes = append(writes, pageWrite{rightID, rightBuf, right}, pageWrite{p.id, p.n, left})
		if top == 0 {
			rootID, rootBuf, err := alloc()
			if err != nil {
				return fail(err)
			}
			img := node(make([]byte, ps))
			img.init(kindInner, t.root, nil)
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
			t.logImg = w.img.gapless(t.logImg[:0])
			if err := t.logger.BTreePageImage(w.id, t.logImg); err != nil {
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
	if sibling != storage.InvalidPageID {
		t.pool.Unpin(sibling, true)
	}
	for i := top; i < len(path); i++ {
		path[i].dirty = true
	}
	if newRoot != storage.InvalidPageID {
		t.root = newRoot
	}
	return nil
}

// fences returns the fence keys of the node below path: the nearest
// separators to the left and the right of the path's descent, nil where
// the node is the first or the last of its level.
func fences(path []pinned) (lo, hi []byte) {
	for i := len(path) - 1; i >= 0 && (lo == nil || hi == nil); i-- {
		p := path[i]
		if lo == nil && p.pos > 0 {
			lo = p.n.appendKey(nil, p.pos-1)
		}
		if hi == nil && p.pos < p.n.count() {
			hi = p.n.appendKey(nil, p.pos)
		}
	}
	return lo, hi
}

// Delete removes key. Underflowed nodes are left in place (lazy
// deletion); pages are only reclaimed by Drop.
func (t *BTree) Delete(key []byte) error {
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
	t.pool.Unpin(id, true)
	t.size--
	return nil
}

// Height returns the number of levels (1 for a lone leaf, 0 for a
// rootless tree).
func (t *BTree) Height() (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == storage.InvalidPageID {
		return 0, nil
	}
	id, _, h, err := t.descend(nil)
	if err == nil {
		t.pool.Unpin(id, false)
	}
	return h, err
}

// Drop frees every page of the tree and leaves it rootless, even when
// a page it could not read keeps the pages below it allocated.
func (t *BTree) Drop() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == storage.InvalidPageID {
		return nil
	}
	err := t.dropRec(t.root)
	t.root, t.size = storage.InvalidPageID, 0
	return err
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
