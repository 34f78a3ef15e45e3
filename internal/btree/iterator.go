package btree

import (
	"bytes"

	"repro/internal/storage"
)

// Iterator walks entries in key order. It copies out of one leaf at a
// time — only the entries inside [lo, hi), into buffers it reuses from
// leaf to leaf and from Seek to Seek — so no page stays pinned between
// Next calls; mutations during iteration are not supported (the
// engine's table locks prevent them). The zero Iterator is ready for
// Seek.
//
// It remembers the last leaf it loaded — the page id and a copy of the
// leaf's first and last key, no pin — and the next Seek of the same tree
// re-enters that leaf with one Fetch instead of descending, when the new
// lower bound allows (see reenter). A page stays a leaf of its tree for
// as long as the tree exists, and the re-entry checks the bound against
// the page as it reads then, so inserts, deletes and splits between two
// Seeks are harmless. What the id cannot outlive is the tree: Drop hands
// its pages back for reuse. Whoever keeps an Iterator from one statement
// to the next therefore calls Forget before the new statement's first
// Seek, and the leaf is only ever used while a table latch holds the
// index in place.
type Iterator struct {
	tree *BTree
	buf  []byte   // the current leaf's in-range entries, as they lie on the page (first, last behind them)
	offs []uint16 // start of each entry in buf, in key order
	idx  int
	next storage.PageID // leaf to load after buf; invalid once hi or the chain's end is reached
	lo   []byte         // inclusive lower bound for the first leaf; nil afterwards
	hi   []byte         // exclusive upper bound; nil = unbounded
	err  error
	done bool

	leaf        storage.PageID // the last leaf loaded; invalid: none remembered
	first, last []byte         // its first and last key when it was loaded

	rows *storage.HeapFile // see HintRows; nil: no hints
	rids []storage.RID     // scratch for them
}

// HintRows makes every leaf the iterator loads from now on announce to
// h, the heap file its RIDs point into, the pages of the entries it
// copies out: the caller is going to fetch those rows one by one, and
// this way their misses overlap. nil turns it off.
func (it *Iterator) HintRows(h *storage.HeapFile) { it.rows = h }

// SeekRange returns an iterator positioned at the first key >= lo,
// stopping before hi (exclusive). lo nil means the smallest key; hi nil
// means unbounded.
func (t *BTree) SeekRange(lo, hi []byte) (*Iterator, error) {
	it := &Iterator{}
	if err := it.Seek(t, lo, hi); err != nil {
		return nil, err
	}
	return it, nil
}

// Seek repositions it as t.SeekRange(lo, hi) would position a new
// iterator, keeping the copy-out buffers it has grown: an operator that
// probes an index once per outer row seeks one iterator many times. hi
// is read until the iterator is exhausted or sought again, so the
// caller must leave it unmodified that long.
func (it *Iterator) Seek(t *BTree, lo, hi []byte) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id := it.leaf
	n, err := it.reenter(t, lo)
	if n == nil && err == nil {
		id, n, _, err = t.descend(lo)
	}
	if err != nil {
		return err
	}
	it.tree, it.lo, it.hi, it.err, it.done = t, lo, hi, nil, false
	return it.load(id, n)
}

// Forget drops the remembered leaf, so that the next Seek descends from
// the root.
func (it *Iterator) Forget() { it.leaf = storage.InvalidPageID }

// reenter returns the remembered leaf pinned if the first key >= lo is
// certain to be on it: lo lies within the page's own first and last key
// as they read now, under t.mu. Keys are unique and the leaves partition
// the key space in order, so that holds whatever was inserted, deleted
// or split off since the leaf was loaded. The keys copied at load time
// only decide whether the page is worth a Fetch: a probe they rule out
// goes straight to the descent, so while the tree is unchanged a Seek
// never fetches more pages than a descent, and (height - 1) fewer when
// it re-enters. nil, nil means descend.
func (it *Iterator) reenter(t *BTree, lo []byte) (node, error) {
	if it.leaf == storage.InvalidPageID || it.tree != t || len(it.first) == 0 || !within(lo, it.first, it.last) {
		return nil, nil
	}
	buf, err := t.pool.Fetch(it.leaf, storage.CatIndex)
	if err != nil {
		return nil, err
	}
	n := node(buf)
	if c := n.count(); c > 0 && within(lo, n.key(0), n.key(c-1)) {
		return n, nil
	}
	t.pool.Unpin(it.leaf, false)
	return nil, nil
}

// within reports first <= key <= last.
func within(key, first, last []byte) bool {
	return bytes.Compare(first, key) <= 0 && bytes.Compare(key, last) <= 0
}

// SeekPrefix returns an iterator over every key beginning with prefix.
func (t *BTree) SeekPrefix(prefix []byte) (*Iterator, error) {
	return t.SeekRange(prefix, PrefixSuccessor(prefix))
}

// Scan returns an iterator over the whole tree.
func (t *BTree) Scan() (*Iterator, error) { return t.SeekRange(nil, nil) }

// PrefixSuccessor returns the smallest byte string greater than every
// string with the given prefix, or nil if no such bound exists (the
// prefix is all 0xFF).
func PrefixSuccessor(prefix []byte) []byte { return AppendPrefixSuccessor(nil, prefix) }

// AppendPrefixSuccessor is PrefixSuccessor written over dst[:0]; dst
// may be prefix itself. A nil result leaves dst as it was.
func AppendPrefixSuccessor(dst, prefix []byte) []byte {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xFF {
			dst = append(dst[:0], prefix[:i+1]...)
			dst[i]++
			return dst
		}
	}
	return nil
}

// load copies out the in-range entries of leaf id — which the caller
// hands over pinned as n, or nil to have it fetched — and unpins it,
// moving on along the chain past leaves that hold none (emptied by lazy
// deletion, or wholly below lo).
func (it *Iterator) load(id storage.PageID, n node) error {
	for {
		if n == nil {
			buf, err := it.tree.pool.Fetch(id, storage.CatIndex)
			if err != nil {
				return err
			}
			n = node(buf)
		}
		from, to := 0, n.count()
		if it.lo != nil {
			from = n.bound(it.lo, false)
			it.lo = nil
		}
		it.next = n.link()
		if it.hi != nil {
			if end := n.bound(it.hi, false); end < to {
				to, it.next = end, storage.InvalidPageID
			}
		}
		// The scan runs on into the sibling: have it loading while the
		// caller consumes this leaf.
		it.tree.pool.Prefetch(it.next, storage.CatIndex)
		it.copyOut(n, from, to)
		it.leaf = id
		it.tree.pool.Unpin(id, false)
		if it.rows != nil && it.rows.Prefetching() {
			it.rids = it.rids[:0]
			for _, off := range it.offs {
				_, v := entryAt(it.buf, int(off), ridSize)
				it.rids = append(it.rids, getRID(v))
			}
			it.rows.PrefetchRIDs(it.rids)
		}
		if from < to {
			return nil
		}
		if it.next == storage.InvalidPageID {
			it.done = true
			return nil
		}
		id, n = it.next, nil
	}
}

// copyOut fills buf and offs with entries [from, to) of n, and first
// and last — in buf's spare capacity, behind the entries — with the
// first and last key of all of n (both empty when n is).
func (it *Iterator) copyOut(n node, from, to int) {
	var first, last []byte
	if c := n.count(); c > 0 {
		first, last = n.key(0), n.key(c-1)
	}
	size := len(first) + len(last)
	for i := from; i < to; i++ {
		size += len(n.raw(i))
	}
	if cap(it.buf) < size {
		it.buf = make([]byte, 0, size)
	}
	if cap(it.offs) < to-from {
		it.offs = make([]uint16, 0, to-from)
	}
	it.buf, it.offs, it.idx = it.buf[:0], it.offs[:0], 0
	for i := from; i < to; i++ {
		it.offs = append(it.offs, uint16(len(it.buf)))
		it.buf = append(it.buf, n.raw(i)...)
	}
	end := len(it.buf)
	bounds := append(append(it.buf, first...), last...)
	it.first, it.last = bounds[end:end+len(first)], bounds[end+len(first):]
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return !it.done && it.err == nil }

// Err returns the first error encountered while iterating.
func (it *Iterator) Err() error { return it.err }

// Key returns the current key. Valid only while Valid() is true, and
// only until the next call to Next.
func (it *Iterator) Key() []byte {
	k, _ := entryAt(it.buf, int(it.offs[it.idx]), ridSize)
	return k
}

// RID returns the current record ID.
func (it *Iterator) RID() storage.RID {
	_, v := entryAt(it.buf, int(it.offs[it.idx]), ridSize)
	return getRID(v)
}

// Next moves to the following entry.
func (it *Iterator) Next() {
	if it.done {
		return
	}
	it.idx++
	if it.idx < len(it.offs) {
		return
	}
	if it.next == storage.InvalidPageID {
		it.done = true
		return
	}
	if err := it.load(it.next, nil); err != nil {
		it.err, it.done = err, true
	}
}
