package btree

import "repro/internal/storage"

// Iterator walks entries in key order. It copies out of one leaf at a
// time — only the entries inside [lo, hi), into buffers it reuses from
// leaf to leaf and from Seek to Seek — so no page stays pinned between
// Next calls; mutations during iteration are not supported (the
// engine's table locks prevent them). The zero Iterator is ready for
// Seek.
type Iterator struct {
	tree *BTree
	buf  []byte   // the current leaf's in-range entries, as they lie on the page
	offs []uint16 // start of each entry in buf, in key order
	idx  int
	next storage.PageID // leaf to load after buf; invalid once hi or the chain's end is reached
	lo   []byte         // inclusive lower bound for the first leaf; nil afterwards
	hi   []byte         // exclusive upper bound; nil = unbounded
	err  error
	done bool

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
	id, n, _, err := t.descend(lo)
	if err != nil {
		return err
	}
	it.tree, it.lo, it.hi, it.err, it.done = t, lo, hi, nil, false
	return it.load(id, n)
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

// copyOut fills buf and offs with entries [from, to) of n.
func (it *Iterator) copyOut(n node, from, to int) {
	size := 0
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
