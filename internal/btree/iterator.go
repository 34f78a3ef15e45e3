package btree

import (
	"bytes"

	"repro/internal/storage"
)

// Iterator walks entries in key order, reading them in place on the one
// page it holds pinned: the leaf it stands on, from the Seek that
// reached it until Release, or until Next moves on to the following
// leaf and holds that one instead. Exhausting the range does not release
// the leaf, so a Seek whose lower bound falls inside the held leaf
// searches forward from the previous position without a Fetch; an
// operator that probes an index once per outer row reads a leaf once
// for all the probes it serves. Whoever seeks an Iterator therefore
// calls Release when done with it, and before the latch that holds the
// index in place is dropped. The tree may change between two Seeks (the
// held leaf stays a leaf of its tree, and the Seek checks its bounds
// against the page as it reads then) but not during an iteration (the
// engine's table latches prevent that). The zero Iterator is ready for
// Seek.
//
// Released, it remembers the leaf — the page id and a copy of the leaf's
// first and last key, no pin — and the next Seek of the same tree
// re-enters that leaf with one Fetch instead of descending, when the new
// lower bound allows (see reenter). What the id cannot outlive is the
// tree: Drop hands its pages back for reuse. Whoever keeps an Iterator
// from one statement to the next therefore calls Forget before the new
// statement's first Seek.
type Iterator struct {
	tree *BTree
	n    node           // the held leaf, pinned; nil: none held
	id   storage.PageID // its page; with n nil, the remembered leaf (invalid: none)
	hi   []byte         // exclusive upper bound; nil = unbounded
	err  error

	// buf is Key's buffer and, with n nil, the remembered leaf's first
	// key and then its last, the first edge bytes long. Key is valid only
	// while a leaf is held, and the edges are needed only until one is.
	buf []byte

	rows *storage.HeapFile // see HintRows; nil: no hints
	rids []storage.RID     // scratch for them

	pos  int32 // the current entry of n
	pl   int32 // n's prefix length
	hiAt int32 // where hi lies against n: hiBelow, hiAbove, or pl: it begins with n's prefix
	edge int32
	done bool
}

// hiAt's values for a bound that does not begin with the held leaf's
// prefix: it sorts below or above every key of the leaf.
const (
	hiBelow = -1
	hiAbove = -2
)

// HintRows makes every Seek and every leaf the iterator moves on to
// announce to h, the heap file its RIDs point into, the pages of the
// entries in range on that leaf: the caller is going to fetch those rows
// one by one, and this way their misses overlap. nil turns it off.
func (it *Iterator) HintRows(h *storage.HeapFile) { it.rows = h }

// SeekRange returns an iterator positioned at the first key >= lo,
// stopping before hi (exclusive). lo nil means the smallest key; hi nil
// means unbounded. The caller releases it.
func (t *BTree) SeekRange(lo, hi []byte) (*Iterator, error) {
	it := &Iterator{}
	if err := it.Seek(t, lo, hi); err != nil {
		return nil, err
	}
	return it, nil
}

// Seek repositions it as t.SeekRange(lo, hi) would position a new
// iterator. hi is read until the iterator is exhausted or sought again,
// so the caller must leave it unmodified that long. A Seek that fails
// leaves nothing pinned.
func (it *Iterator) Seek(t *BTree, lo, hi []byte) error {
	held := false
	if it.n != nil && it.tree == t {
		// A split or a shed since the last Seek may have moved the held
		// leaf's fences, and with them its prefix.
		it.pl = int32(it.n.prefixLen())
		if s, c := it.strip(lo); c == 0 {
			var pos int
			if pos, held = it.n.boundFromSuffix(s, int(it.pos)); held {
				it.pos = int32(pos)
			}
		}
	}
	if !held {
		it.Release()
		t.mu.RLock()
		defer t.mu.RUnlock()
		id := it.id
		n, err := it.reenter(t, lo)
		if n == nil && err == nil {
			id, n, _, err = t.descend(lo)
		}
		if err != nil {
			return err
		}
		it.hold(t, id, n, n.bound(lo, false))
	}
	it.hi, it.err, it.done = hi, nil, false
	it.cut()
	it.hint()
	return it.settle()
}

// hold makes n, pinned at page id of t, the held leaf, at entry pos.
func (it *Iterator) hold(t *BTree, id storage.PageID, n node, pos int) {
	it.tree, it.id, it.n, it.pos, it.pl = t, id, n, int32(pos), int32(n.prefixLen())
}

// strip is node.strip against the held leaf, whose prefix length the
// iterator keeps.
func (it *Iterator) strip(key []byte) (suffix []byte, c int) { return it.n.stripLen(key, int(it.pl)) }

// Release unpins the held leaf, if any, and ends the iteration: Valid
// is false until the next Seek. The leaf stays remembered for re-entry.
func (it *Iterator) Release() {
	it.done = true
	n := it.n
	if n == nil {
		return
	}
	it.buf, it.edge = it.buf[:0], 0
	if c := n.count(); c > 0 {
		it.buf = n.appendKey(it.buf, 0)
		it.edge = int32(len(it.buf))
		it.buf = n.appendKey(it.buf, c-1)
	}
	it.tree.pool.Unpin(it.id, false)
	it.n = nil
}

// Forget releases the held leaf and drops the remembered one, so that
// the next Seek descends from the root.
func (it *Iterator) Forget() {
	it.Release()
	it.id = storage.InvalidPageID
}

// reenter returns the remembered leaf pinned if the first key >= lo is
// certain to be on it: lo lies within the page's own first and last key
// as they read now, under t.mu. Keys are unique and the leaves partition
// the key space in order, so that holds whatever was inserted, deleted
// or split off since the leaf was released. The keys copied at Release
// only decide whether the page is worth a Fetch: a probe they rule out
// goes straight to the descent, so while the tree is unchanged a Seek
// never fetches more pages than a descent, and (height - 1) fewer when
// it re-enters. nil, nil means descend.
func (it *Iterator) reenter(t *BTree, lo []byte) (node, error) {
	if it.id == storage.InvalidPageID || it.tree != t || it.edge == 0 || !within(lo, it.buf[:it.edge], it.buf[it.edge:]) {
		return nil, nil
	}
	buf, err := t.pool.Fetch(it.id, storage.CatIndex)
	if err != nil {
		return nil, err
	}
	n := node(buf)
	if _, ok := n.boundFrom(lo, 0); ok {
		return n, nil
	}
	t.pool.Unpin(it.id, false)
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

// settle makes the position valid: on the held leaf if pos is on it,
// otherwise on the first entry of the leaves after it, moving along the
// chain past leaves that hold none (emptied by lazy deletion). Entries
// are checked against hi one at a time, so a range that ends inside a
// leaf costs one comparison past its last entry.
func (it *Iterator) settle() error {
	for {
		n := it.n
		c := n.count()
		if int(it.pos) < c {
			it.done = it.above(int(it.pos))
			return nil
		}
		next := n.link()
		if next == storage.InvalidPageID || c > 0 && it.above(c-1) {
			it.done = true
			return nil
		}
		it.tree.pool.Unpin(it.id, false)
		it.n = nil
		buf, err := it.tree.pool.Fetch(next, storage.CatIndex)
		if err != nil {
			it.id, it.done = storage.InvalidPageID, true
			return err
		}
		it.hold(it.tree, next, node(buf), 0)
		it.cut()
		it.hint()
	}
}

// cut places hi against the held leaf's prefix, for above.
func (it *Iterator) cut() {
	if it.hi == nil {
		return
	}
	switch _, c := it.strip(it.hi); {
	case c < 0:
		it.hiAt = hiBelow
	case c > 0:
		it.hiAt = hiAbove
	default:
		it.hiAt = it.pl
	}
}

// above reports whether entry i of the held leaf lies at or above hi.
func (it *Iterator) above(i int) bool {
	switch {
	case it.hi == nil || it.hiAt == hiAbove:
		return false
	case it.hiAt == hiBelow:
		return true
	}
	return bytes.Compare(it.n.suffixAt(it.off(i)), it.hi[it.hiAt:]) >= 0
}

// off is node.off on the held leaf, whose directory starts past the
// prefix the iterator keeps the length of.
func (it *Iterator) off(i int) int { return it.n.offIn(nodeHeader+int(it.pl), i) }

// hint announces, when the pool acts on hints, what the range reads
// after the current position: the next leaf if the range runs on into
// it (so it is loading while the caller consumes this one), and with
// HintRows the heap pages of the entries in range on this leaf.
func (it *Iterator) hint() {
	pool := it.tree.pool
	if !pool.Prefetching() {
		return
	}
	n, to := it.n, it.n.count()
	if it.hi != nil {
		to = n.bound(it.hi, false)
	}
	if to == n.count() {
		pool.Prefetch(n.link(), storage.CatIndex)
	}
	if it.rows != nil && int(it.pos) < to {
		it.rids = it.rids[:0]
		for i := int(it.pos); i < to; i++ {
			it.rids = append(it.rids, n.rid(i))
		}
		it.rows.PrefetchRIDs(it.rids)
	}
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return !it.done && it.err == nil }

// Err returns the first error encountered while iterating.
func (it *Iterator) Err() error { return it.err }

// Key returns the current key, assembled from the leaf's prefix and the
// entry's suffix in a buffer the iterator reuses. Valid only while
// Valid() is true, and only until the next Key, Next, Seek or Release.
func (it *Iterator) Key() []byte {
	it.buf = it.n.appendKey(it.buf[:0], int(it.pos))
	return it.buf
}

// RID returns the current record ID.
func (it *Iterator) RID() storage.RID { return it.n.ridAt(it.off(int(it.pos))) }

// Next moves to the following entry.
func (it *Iterator) Next() {
	if it.done {
		return
	}
	it.pos++
	if err := it.settle(); err != nil {
		it.err = err
	}
}
