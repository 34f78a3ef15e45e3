package btree

import (
	"bytes"

	"repro/internal/storage"
)

// pageWrite is one page a split or a shed rewrites: its pinned frame
// and the post-image rendered for it in scratch.
type pageWrite struct {
	id  storage.PageID
	dst []byte
	img node
}

// seq is the entries a split or a shed lays out anew, in key order: all
// of a's (a shed's left sibling; none for a split), then b's, with the
// new entry among b's. Each key is read as its node's prefix and the
// entry's suffix, and assembled only into scratch, as an entry is
// written out under another prefix.
type seq struct {
	a, b     node
	na, pos  int    // a's entry count; the new entry's position in the whole
	key, val []byte // the new entry, its key without b's prefix
	scratch  []byte
}

// newSeq is the entries of a (nil: none) and b, with (key, val) at
// position pos of b's; key lies within b's fences.
func newSeq(a, b node, pos int, key, val []byte) *seq {
	s := &seq{a: a, b: b, key: key[b.prefixLen():], val: val}
	if a != nil {
		s.na = a.count()
	}
	s.pos = s.na + pos
	return s
}

func (s *seq) len() int { return s.na + s.b.count() + 1 }

// at returns entry i: the prefix its key is read under, the rest of the
// key, and the payload.
func (s *seq) at(i int) (pre, suf, val []byte) {
	switch {
	case i < s.na:
		suf, val = s.a.entry(i)
		return s.a.prefix(), suf, val
	case i == s.pos:
		return s.b.prefix(), s.key, s.val
	case i > s.pos:
		i--
	}
	suf, val = s.b.entry(i - s.na)
	return s.b.prefix(), suf, val
}

// size is the bytes entry i takes, its slot counted, in a node whose
// prefix is plen bytes long.
func (s *seq) size(i, plen int) int {
	pre, suf, val := s.at(i)
	return slotSize + entrySize(len(pre)+len(suf)-plen, len(val))
}

// bytes is what a node holding entries [from, to) under a prefix of
// plen bytes takes, its header and prefix counted.
func (s *seq) bytes(from, to, plen int) int {
	n := nodeHeader + plen
	for i := from; i < to; i++ {
		n += s.size(i, plen)
	}
	return n
}

// shared is the length of the common prefix of key and entry i's key.
func (s *seq) shared(i int, key []byte) int {
	pre, suf, _ := s.at(i)
	if c := commonPrefix(pre, key); c < len(pre) {
		return c
	}
	return len(pre) + commonPrefix(suf, key[len(pre):])
}

// fullKey returns entry i's key in a new slice.
func (s *seq) fullKey(i int) []byte {
	pre, suf, _ := s.at(i)
	return append(append(make([]byte, 0, len(pre)+len(suf)), pre...), suf...)
}

// fill formats dst as an empty node of the given kind and link, whose
// fences are lo and hi, and writes entries [from, to) into it.
func (s *seq) fill(dst node, kind byte, link storage.PageID, lo, hi []byte, from, to int) {
	dst.init(kind, link, lo[:commonPrefix(lo, hi)])
	c := dst.prefixLen()
	for i := from; i < to; i++ {
		pre, suf, val := s.at(i)
		if c >= len(pre) {
			dst.put(dst.count(), suf[c-len(pre):], val)
			continue
		}
		s.scratch = append(append(s.scratch[:0], pre[c:]...), suf...)
		dst.put(dst.count(), s.scratch, val)
	}
}

// splitAt is where a split of s's node, a page of pageSize bytes whose
// fences are lo and hi, ends its left half: at the byte midpoint, unless
// the new entry ends an insertion run on a leaf (run). Then the new
// entry shares a longer prefix with the entry before it than with the
// key after it (the leaf's next entry, or hi), and the run of entries
// sharing that longer prefix, the new one counted, takes at least half
// the bytes; the left half ends with the new entry, or just before it
// when it would overflow, so that a run that keeps appending leaves full
// pages behind it, not half-empty ones. Sizes are the bytes the node
// stores: each half's own prefix, at least the node's, can only make it
// smaller.
//
// When no key follows the new entry (it ends the tree), the whole leaf
// is its run if a midpoint cut would leave the left half under a
// quarter full: its fences, lo and the new entry's neighbours, would
// share a prefix that takes more than half the bytes of its entries.
// Otherwise the midpoint stands; an append point there may well take
// inserts on both sides.
func (s *seq) splitAt(lo, hi []byte, pageSize int) (mid int, run bool) {
	plen, cnt := s.b.prefixLen(), s.len()
	total := s.bytes(0, cnt, plen) - nodeHeader - plen
	for acc := 0; ; mid++ {
		if acc += s.size(mid, plen); acc > total/2 {
			break
		}
	}
	if !s.b.leaf() {
		return mid, false
	}
	var next []byte // the suffix of the key after the new one
	switch {
	case s.pos+1 < cnt:
		_, next, _ = s.at(s.pos + 1)
	case hi != nil:
		next = hi[plen:]
	}
	// The run: the new entry and the entries before it that share more
	// than d bytes with it, every one when no key follows (the new entry
	// ends the tree). Were the entry before it not among them, the run
	// would be the new entry alone, under half.
	inRun, d := 0, -1
	if next != nil {
		d = commonPrefix(s.key, next)
	} else if 2*(s.shared(s.pos, lo)-plen)*(cnt-1) <= total {
		return mid, false
	}
	for i := s.pos; i >= 0 && 2*inRun < total; i-- {
		if _, k, _ := s.at(i); commonPrefix(s.key, k) <= d {
			break
		}
		inRun += s.size(i, plen)
	}
	if 2*inRun < total {
		return mid, false
	}
	if s.bytes(0, s.pos+1, plen) > pageSize {
		return s.pos, true
	}
	return s.pos + 1, true
}

// split renders the entries of n plus the new (key, val) at position
// pos into two empty images: left replaces n, right is its new sibling
// at page rightID. lo and hi are n's fence keys, nil where open; each
// half takes the common prefix of its own fences, lo and the separator,
// the separator and hi. It returns the separator to insert into the
// parent, the full key, in a new slice. The halves divide where splitAt
// says.
func (n node) split(pos int, key, val, lo, hi []byte, left, right node, rightID storage.PageID) []byte {
	s := newSeq(nil, n, pos, key, val)
	mid, _ := s.splitAt(lo, hi, len(n))
	sep := s.fullKey(mid)
	if !n.leaf() {
		_, _, child := s.at(mid)
		s.fill(left, kindInner, n.link(), lo, sep, 0, mid)
		s.fill(right, kindInner, getPageID(child), sep, hi, mid+1, s.len())
		return sep
	}
	s.fill(left, n[0], rightID, lo, sep, 0, mid)
	s.fill(right, n[0], n.link(), sep, hi, mid, s.len())
	return sep
}

// shed is the alternative to splitting a full leaf, the last of path,
// whose new entry (key, val) ends an insertion run: the leaf hands its
// older entries to its left sibling under the same parent, which a run
// has left behind, and the separator between them moves up to the first
// entry it keeps. The leaf a run appends to has a far high fence and so
// a short prefix, while the sibling, once closed, holds the run's keys
// under a long one: without this, every leaf a run closes would keep the
// entries that fit under the short prefix, a page's worth of bytes
// there, and only some two thirds of its bytes under the long one.
//
// It sheds when the entries would then share a longer prefix with the
// sibling's low fence than the leaf's own prefix, and the sibling takes
// at least an eighth of a page of them (less is not worth rewriting
// three pages); the sibling takes as many as fit. lo and hi are the
// leaf's fences. It returns the images of the sibling, the leaf and the
// parent, the sibling's frame pinned for the caller to unpin, or nil
// when it does not shed.
func (t *BTree) shed(path []pinned, lo, hi, key, val []byte) ([]pageWrite, error) {
	leaf, parent := path[len(path)-1], path[len(path)-2]
	r := leaf.n
	if parent.pos == 0 {
		return nil, nil
	}
	var loL []byte // the sibling's low fence
	if parent.pos > 1 {
		loL = parent.n.appendKey(nil, parent.pos-2)
	} else {
		loL, _ = fences(path[:len(path)-2])
	}
	if commonPrefix(loL, key) <= r.prefixLen() {
		return nil, nil
	}
	if _, run := newSeq(nil, r, leaf.pos, key, val).splitAt(lo, hi, len(r)); !run {
		return nil, nil
	}
	lid := parent.n.child(parent.pos - 1)
	buf, err := t.pool.Fetch(lid, storage.CatIndex)
	if err != nil {
		return nil, err
	}
	l := node(buf)
	s := newSeq(l, r, leaf.pos, key, val)
	// The sibling takes entries [0, m): the largest m whose node fits,
	// under the prefix its fences loL and entry m then share. A larger
	// m lengthens the node and never the prefix, so m is a bound.
	fits := func(m int) bool { return s.bytes(0, m, s.shared(m, loL)) <= len(r) }
	m, end := s.na, s.len()-1
	for m < end {
		if c := (m + end + 1) / 2; fits(c) {
			m = c
		} else {
			end = c - 1
		}
	}
	moved := s.bytes(s.na, m, r.prefixLen()) - nodeHeader - r.prefixLen() // as the leaf holds them
	if m == s.na || 8*moved < len(r) || s.bytes(m, s.len(), s.shared(m, hi)) > len(r) {
		t.pool.Unpin(lid, false)
		return nil, nil
	}
	sep := s.fullKey(m)
	var child [childSize]byte
	putPageID(child[:], leaf.id)
	pimg := node(bytes.Clone(parent.n))
	if pimg.remove(parent.pos - 1); !pimg.fits(sep, child[:]) {
		t.pool.Unpin(lid, false)
		return nil, nil
	}
	pimg.insert(parent.pos-1, sep, child[:])
	limg, rimg := node(make([]byte, len(r))), node(make([]byte, len(r)))
	s.fill(limg, l[0], l.link(), loL, sep, 0, m)
	s.fill(rimg, r[0], r.link(), sep, hi, m, s.len())
	return []pageWrite{{lid, l, limg}, {leaf.id, r, rimg}, {parent.id, parent.n, pimg}}, nil
}

// commonPrefix returns the length of the longest common prefix of a and b.
func commonPrefix(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}
