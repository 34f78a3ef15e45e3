package btree

import (
	"bytes"
	"sort"

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
// of a's (none for a split), then b's, with the new entry among those
// of the leaf it goes into, a or b. Each key is read as its node's
// prefix and the entry's suffix, and assembled only into scratch, as an
// entry is written out under another prefix.
type seq struct {
	a, b       node
	apre, bpre []byte // a's and b's prefixes
	na, pos    int    // a's entry count; the new entry's position in the whole
	kpre       []byte // the prefix of the node the new entry goes into
	key, val   []byte // the new entry, its key without kpre
	scratch    []byte
	w          []int // see weigh
	p0         int
}

// newSeq is the entries of a (nil: none) and b, with (key, val) at
// position pos of the whole, in node in, a or b, within whose fences
// key lies. w is weigh's buffer, which s.w hands back grown.
func newSeq(a, b, in node, pos int, key, val []byte, w []int) *seq {
	s := &seq{a: a, b: b, bpre: b.prefix(), pos: pos, kpre: in.prefix(), key: key[in.prefixLen():], val: val, w: w}
	if a != nil {
		s.apre, s.na = a.prefix(), a.count()
	}
	return s
}

func (s *seq) len() int { return s.na + s.b.count() + 1 }

// at returns entry i: the prefix its key is read under, the rest of the
// key, and the payload.
func (s *seq) at(i int) (pre, suf, val []byte) {
	switch {
	case i == s.pos:
		return s.kpre, s.key, s.val
	case i > s.pos:
		i--
	}
	if i < s.na {
		suf, val = s.a.entryAt(s.a.offIn(len(s.apre)+nodeHeader, i))
		return s.apre, suf, val
	}
	suf, val = s.b.entryAt(s.b.offIn(len(s.bpre)+nodeHeader, i-s.na))
	return s.bpre, suf, val
}

// size is the bytes entry i takes, its slot counted, in a node whose
// prefix is plen bytes long.
func (s *seq) size(i, plen int) int {
	pre, suf, val := s.at(i)
	return slotSize + entrySize(len(pre)+len(suf)-plen, len(val))
}

// weigh sums the entries' sizes under a prefix of p0 bytes, which every
// key begins with: w[i] is what entries [0, i) take. It is the one pass
// over the entries that sizing a node takes; under and nodeBytes then
// cost no more than a subtraction.
func (s *seq) weigh(p0 int) {
	s.p0, s.w = p0, append(s.w[:0], 0)
	for i := range s.len() {
		s.w = append(s.w, s.w[i]+s.size(i, p0))
	}
}

// under is what entries [from, to) take under a prefix of p >= p0 bytes:
// exactly, unless a key's length field shrinks under the longer prefix,
// which makes it an upper bound.
func (s *seq) under(from, to, p int) int {
	return s.w[to] - s.w[from] - (to-from)*(p-s.p0)
}

// nodeBytes is what a node holding entries [from, to) under a prefix of
// p bytes takes, its header and prefix counted: under's bound.
func (s *seq) nodeBytes(from, to, p int) int { return nodeHeader + p + s.under(from, to, p) }

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

// splitAt is where a split of s's node, b, a page of pageSize bytes
// whose fences are lo and hi, ends its left half: at the byte midpoint,
// unless the new entry ends an insertion run on a leaf (run). Then the
// new entry shares a longer prefix with the entry before it than with
// the key after it (the leaf's next entry, or hi), and the run of
// entries sharing that longer prefix, the new one counted, takes at
// least half the bytes; the left half ends with the new entry, or just
// before it when it would overflow, so that a run that keeps appending
// leaves full pages behind it, not half-empty ones. Sizes are the bytes
// the node stores: each half's own prefix, at least the node's, can only
// make it smaller.
//
// When no key follows the new entry (it ends the tree), the whole leaf
// is its run if a midpoint cut would leave the left half under a
// quarter full: its fences, lo and the new entry's neighbours, would
// share a prefix that takes more than half the bytes of its entries.
// Otherwise the midpoint stands; an append point there may well take
// inserts on both sides.
func (s *seq) splitAt(lo, hi []byte, pageSize int) (mid int, run bool) {
	plen, cnt := s.b.prefixLen(), s.len()
	s.weigh(plen)
	total := s.w[cnt]
	for s.w[mid+1] <= total/2 {
		mid++
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
	if s.nodeBytes(0, s.pos+1, plen) > pageSize {
		return s.pos, true
	}
	return s.pos + 1, true
}

// cut is where a shed ends the left of two neighbouring leaves, whose
// entries s holds and whose outer fences are lo and hi: the left leaf
// keeps entries [0, m) under the prefix lo and entry m share, the right
// one the rest under the prefix entry m and hi share. With most the
// left takes as many entries as fit; otherwise the two even out by
// bytes. ok reports whether both fit a page of size bytes. A larger m
// lengthens the left node and never its prefix, and shortens the right
// one, so both searches are binary.
func (s *seq) cut(lo, hi []byte, size int, most bool) (m int, ok bool) {
	n := s.len()
	s.weigh(commonPrefix(lo, hi))
	sides := func(m int) (l, r int) {
		return s.nodeBytes(0, m, s.shared(m, lo)), s.nodeBytes(m, n, s.shared(m, hi))
	}
	if most {
		m = sort.Search(n-1, func(i int) bool { l, _ := sides(i + 1); return l > size })
	} else {
		// The first m whose left side outweighs the right, or the one
		// before it, whichever leaves the heavier side lighter.
		m = 1 + sort.Search(n-2, func(i int) bool { l, r := sides(i + 1); return l >= r })
		if m > 1 {
			l, r := sides(m - 1)
			if l2, r2 := sides(m); max(l, r) < max(l2, r2) {
				m--
			}
		}
	}
	if m < 1 || m >= n {
		return m, false
	}
	l, r := sides(m)
	return m, l <= size && r <= size
}

// split renders s, the entries of one node plus the new one, into two
// empty images, divided before entry mid (splitAt): left replaces the
// node, right is its new sibling at page rightID. lo and hi are the
// node's fence keys, nil where open; each half takes the common prefix
// of its own fences, lo and the separator, the separator and hi. It
// returns the separator to insert into the parent, the full key, in a
// new slice.
func (s *seq) split(mid int, lo, hi []byte, left, right node, rightID storage.PageID) []byte {
	n, sep := s.b, s.fullKey(mid)
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

// shed is the overflow step that runs before a full leaf, the last of
// path, splits (the B*-tree's overflow rule, Knuth vol. 3 §6.2.4): the
// leaf hands entries to its left sibling under the same parent, or else
// to its right one, and the separator between the two moves to the
// first key the right-hand leaf keeps. The two leaves even out by bytes,
// except when the new entry (key, val) ends an insertion run (splitAt):
// then the left sibling, which the run has left behind, takes as many
// entries as fit, and only when it cannot does the right one even out
// with the leaf; run is splitAt's answer for the leaf. The leaf a run
// appends to has a far high fence and so a short prefix, while the
// sibling, once closed, holds the run's keys under a long one, so that
// a leaf a run closes ends full under its long prefix, not with the
// bytes that fitted under the short one.
//
// A sibling must take at least an eighth of a page of the leaf's
// entries (less is not worth rewriting three pages), and both leaves
// and the parent with its new separator must fit; otherwise the leaf
// splits. lo and hi are the leaf's fences, ls its entries with the new
// one, weighed under its prefix (splitAt). It returns the images of
// the sibling, the leaf and the parent, the sibling's frame pinned for
// the caller to unpin, or nil when it does not shed.
//
// A sibling whose prefix is no longer than the leaf's is weighed only
// if it holds no more than its room. The entries the leaf hands over,
// M bytes as it holds them, take no fewer there, so the sibling ends
// with at least its bytes, its prefix not counted, plus M, and the leaf
// with at most its bytes less M; cut stops at the entry that tips the
// balance, so M and M less that entry add up to at most the difference.
// The least M that makes an eighth sets the room: the leaf's first
// entries for the left sibling, its last for the right. A run's left
// sibling, which takes all that fit, may hold a page less that M.
func (t *BTree) shed(path []pinned, lo, hi, key, val []byte, ls *seq, run bool) ([]pageWrite, error) {
	p := path[len(path)-2]
	left, right := ls.rooms(run) // before even weighs into ls.w's buffer
	if p.pos > 0 {
		if pw, err := t.even(path, p.pos-1, lo, hi, key, val, run, left); pw != nil || err != nil {
			return pw, err
		}
	}
	if p.pos == p.n.count() {
		return nil, nil
	}
	return t.even(path, p.pos, lo, hi, key, val, false, right)
}

// rooms is shed's room for a sibling on the left and on the right of
// the leaf whose entries s holds, weighed under its prefix.
func (s *seq) rooms(run bool) (left, right int) {
	w, n, e := s.w, s.len(), len(s.b)/8
	used := nodeHeader + s.b.prefixLen() + w[n] // the leaf with the new entry
	k := sort.SearchInts(w, e)
	left = used - w[k] - w[k-1]
	if run {
		left = len(s.b) - w[k]
	}
	k = sort.Search(n, func(k int) bool { return w[n]-w[k+1] < e })
	return left, used - 2*w[n] + w[k] + w[k+1]
}

// even is shed's step with one sibling of the leaf, the last of path:
// the one across separator j of the parent, on the left when j is below
// the leaf's position there. lo and hi are the leaf's fences, most is
// cut's, and room is shed's.
func (t *BTree) even(path []pinned, j int, lo, hi, key, val []byte, most bool, room int) ([]pageWrite, error) {
	leaf, p := path[len(path)-1], path[len(path)-2]
	left := j < p.pos
	sid := p.n.child(j + 1)
	if left {
		sid = p.n.child(j)
	}
	buf, err := t.pool.Fetch(sid, storage.CatIndex)
	if err != nil {
		return nil, err
	}
	sib, r := node(buf), leaf.n
	if sib.prefixLen() <= r.prefixLen() && nodeHeader+slotSize*sib.count()+sib.live() > room {
		t.pool.Unpin(sid, false)
		return nil, nil
	}
	// The far fence of the sibling is separator j-1 or j+1 of the
	// parent, or past either end the parent's own.
	if left && j > 0 {
		lo = p.n.appendKey(nil, j-1)
	} else if !left && j+1 < p.n.count() {
		hi = p.n.appendKey(nil, j+1)
	} else if plo, phi := fences(path[:len(path)-2]); left {
		lo = plo
	} else {
		hi = phi
	}
	// s holds the left leaf's entries, then the right one's; moved is
	// what the leaf hands over, as it holds those entries.
	var s *seq
	var m, moved int
	ok := false
	if left {
		s = newSeq(sib, r, r, sib.count()+leaf.pos, key, val, t.sizes)
		if m, ok = s.cut(lo, hi, len(r), most); m > s.na {
			moved = s.under(s.na, m, r.prefixLen())
		}
	} else {
		s = newSeq(r, sib, r, leaf.pos, key, val, t.sizes)
		if m, ok = s.cut(lo, hi, len(r), most); m <= s.na {
			moved = s.under(m, s.na+1, r.prefixLen())
		}
	}
	t.sizes = s.w
	var pimg node
	var sep []byte
	if ok && 8*moved >= len(r) {
		sep = s.fullKey(m)
		var child [childSize]byte
		putPageID(child[:], p.n.child(j+1))
		pimg = node(bytes.Clone(p.n))
		if pimg.remove(j); pimg.fits(sep, child[:]) {
			pimg.insert(j, sep, child[:])
		} else {
			pimg = nil
		}
	}
	if pimg == nil {
		t.pool.Unpin(sid, false)
		return nil, nil
	}
	limg, rimg := node(make([]byte, len(r))), node(make([]byte, len(r)))
	s.fill(limg, s.a[0], s.a.link(), lo, sep, 0, m)
	s.fill(rimg, s.b[0], s.b.link(), sep, hi, m, s.len())
	if left {
		return []pageWrite{{sid, sib, limg}, {leaf.id, r, rimg}, {p.id, p.n, pimg}}, nil
	}
	return []pageWrite{{sid, sib, rimg}, {leaf.id, r, limg}, {p.id, p.n, pimg}}, nil
}

// commonPrefix returns the length of the longest common prefix of a and b.
func commonPrefix(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}
