package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/storage"
)

// shedCase is a key space for TestShedEvensOutLeaves: key(i) is the
// i-th key in key order and the RID it is inserted with.
type shedCase struct {
	name     string
	ridInKey bool
	key      func(i int) ([]byte, storage.RID)
}

var shedCases = []shedCase{
	{"unique", false, func(i int) ([]byte, storage.RID) {
		return key(i), storage.RID{Page: storage.PageID(i + 1)}
	}},
	{"rid in key", true, func(i int) ([]byte, storage.RID) {
		rid := storage.RID{Page: storage.PageID(i + 1), Slot: uint16(i % 7)}
		return AppendRID(key(i), rid), rid
	}},
	// Equal values differ only in their RIDs, whose pages share their
	// leading bytes: the leaves' fences, and so their prefixes, reach
	// into the RID form.
	{"equal values", true, func(i int) ([]byte, storage.RID) {
		rid := storage.RID{Page: storage.PageID(70000 + i)}
		return AppendRID([]byte("dup/"), rid), rid
	}},
}

// shedBed is a two-level tree on 256-byte pages whose leaves an
// ascending load of the even keys filled, and one of whose middle
// leaves then took odd keys until the one that did not fit made it
// shed into its sibling, left or right.
type shedBed struct {
	tr          *BTree
	disk        *storage.Disk
	lg          *recLogger
	model       map[string]storage.RID
	leaf, sib   storage.PageID
	first, last []byte // the lowest and highest key of the two leaves before the shed
	pages       int    // the disk's pages before the odd keys went in
}

// newShedBed builds a shedBed of c whose leaf sheds to the left or the
// right: the sibling on that side was thinned to half its entries
// first, and the other one is full. before, when set, runs before every
// odd key's insert, with the tree and the leaf's and the sibling's
// first key.
func newShedBed(t *testing.T, c shedCase, left bool, before func(tr *BTree, leafKey, sibKey []byte)) *shedBed {
	t.Helper()
	b := &shedBed{disk: storage.NewDisk(256), lg: &recLogger{}, model: map[string]storage.RID{}}
	var err error
	if b.tr, err = NewLogged(storage.NewBufferPool(b.disk, 256*4096), b.lg, c.ridInKey); err != nil {
		t.Fatal(err)
	}
	insert := func(i int) {
		k, rid := c.key(i)
		if err := b.tr.Insert(k, rid); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		b.model[string(k)] = rid
	}
	const n = 150
	for i := 0; i < 2*n; i += 2 {
		insert(i)
	}
	if h, err := b.tr.Height(); h != 2 || err != nil {
		t.Fatalf("height %d (%v), want 2: every leaf under one parent", h, err)
	}
	ids, first, last := leafBounds(t, b.tr)
	l, s := len(ids)/2, len(ids)/2+1
	if left {
		s = l - 1
	}
	b.leaf, b.sib = ids[l], ids[s]
	b.first, b.last = first[min(l, s)], last[max(l, s)]
	// The keys of a leaf, by index, and its sibling thinned.
	in := func(leaf int, odd bool) (out []int) {
		for i := 0; i < 2*n; i++ {
			k, _ := c.key(i)
			if i%2 == 1 == odd && bytes.Compare(first[leaf], k) <= 0 && bytes.Compare(k, last[leaf]) <= 0 {
				out = append(out, i)
			}
		}
		return out
	}
	for j, i := range in(s, false) {
		if j%2 == 0 {
			k, _ := c.key(i)
			if err := b.tr.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(b.model, string(k))
		}
	}
	b.pages = b.disk.NumPages()
	for _, i := range in(l, true) {
		if before != nil {
			before(b.tr, first[l], first[s])
		}
		mark := len(b.lg.recs)
		insert(i)
		var images []logRec
		for _, r := range b.lg.recs[mark:] {
			switch r.kind {
			case "alloc":
				t.Fatalf("%s: odd key %d split the leaf; want a shed", c.name, i)
			case "image":
				images = append(images, r)
			}
		}
		if len(images) == 0 {
			continue
		}
		if len(images) != 3 || images[0].page != b.sib || images[1].page != b.leaf {
			t.Fatalf("%s: odd key %d logged images of pages %v; want the sibling %d, the leaf %d and the parent",
				c.name, i, images, b.sib, b.leaf)
		}
		return b
	}
	t.Fatalf("%s: the leaf took every odd key without shedding", c.name)
	return nil
}

// TestShedEvensOutLeaves holds the overflow step of a full leaf in both
// directions, on both leaf kinds and on equal values whose prefixes
// reach into the RID form: the leaf sheds into the sibling that has
// room, left or right, without allocating a page; the tree passes Check
// and its model; the two leaves even out, neither under a third full;
// the sibling's link and the leaf's stay the chain; and the log's
// images, replayed onto an empty disk, give the live pages byte for
// byte.
func TestShedEvensOutLeaves(t *testing.T) {
	for _, c := range shedCases {
		for _, left := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/left=%v", c.name, left), func(t *testing.T) {
				b := newShedBed(t, c, left, nil)
				if got := b.disk.NumPages(); got != b.pages {
					t.Errorf("%d pages after the shed, %d before", got, b.pages)
				}
				if err := checkTree(b.tr, b.disk, b.model); err != nil {
					t.Fatal(err)
				}
				seams := 0
				for _, id := range []storage.PageID{b.leaf, b.sib} {
					buf, err := b.tr.pool.Fetch(id, storage.CatIndex)
					if err != nil {
						t.Fatal(err)
					}
					n := node(buf)
					if used := n.dir() + slotSize*n.count() + n.live(); 3*used < len(n) {
						t.Errorf("page %d holds %d of %d bytes after the shed", id, used, len(n))
					}
					for i := 0; i < n.count(); i++ {
						if k := n.appendKey(nil, i); c.ridInKey && len(n.suffix(i)) < ridLen(k[len(k)-2]) {
							seams++
						}
					}
					b.tr.pool.Unpin(id, false)
				}
				if c.name == "equal values" && seams == 0 {
					t.Error("no entry of the two leaves has a prefix that reaches into its RID")
				}
				rep, err := b.lg.replay(256)
				if err != nil {
					t.Fatal(err)
				}
				if err := samePages(b.tr, rep); err != nil {
					t.Errorf("replayed log: %v", err)
				}
			})
		}
	}
}

// TestIteratorAcrossShed seeks, for every key of the two leaves, one
// iterator that holds the leaf and one that remembers the sibling (it
// released it) across the insert that sheds: each answers what a fresh
// SeekRange does, though the shed moved entries and the fence between
// the two pages, and nothing stays pinned.
func TestIteratorAcrossShed(t *testing.T) {
	for _, c := range shedCases {
		for _, left := range []bool{true, false} {
			var probes [][]byte
			for i := 0; i < 300; i++ {
				k, _ := c.key(i)
				probes = append(probes, k, append(bytes.Clone(k), 0))
			}
			held, rem := make([]Iterator, len(probes)), make([]Iterator, len(probes))
			b := newShedBed(t, c, left, func(tr *BTree, leafKey, sibKey []byte) {
				for j := range probes {
					if err := held[j].Seek(tr, leafKey, nil); err != nil {
						t.Fatal(err)
					}
					if err := rem[j].Seek(tr, sibKey, nil); err != nil {
						t.Fatal(err)
					}
					rem[j].Release()
				}
			})
			tr := b.tr
			for j, p := range probes {
				if bytes.Compare(p, b.first) < 0 || bytes.Compare(p, b.last) > 0 {
					held[j].Release()
					continue
				}
				fresh, err := tr.SeekRange(p, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := drainN(t, fresh, 4)
				fresh.Release()
				for what, it := range map[string]*Iterator{"held": &held[j], "remembered": &rem[j]} {
					if err := it.Seek(tr, p, nil); err != nil {
						t.Fatal(err)
					}
					if got := drainN(t, it, 4); !sameEntries(got, want) {
						t.Errorf("%s left=%v: %s iterator at %x reads %v, a fresh one %v", c.name, left, what, p, got, want)
					}
					it.Release()
				}
			}
			if err := tr.pool.DropAll(); err != nil {
				t.Errorf("%s left=%v: %v", c.name, left, err)
			}
		}
	}
}

// drainN reads up to limit entries from it.
func drainN(t *testing.T, it *Iterator, limit int) (out []entry) {
	t.Helper()
	for ; it.Valid() && len(out) < limit; it.Next() {
		out = append(out, entry{bytes.Clone(it.Key()), it.RID()})
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShedRoomBound holds seq.rooms to cut on random pairs of a full
// leaf and a sibling whose prefix is no longer than the leaf's, on
// either side: every sibling that cut has the leaf hand an eighth of a
// page or more holds no more than its room, so skipping the others
// never turns a shed into a split. Both outcomes must occur.
func TestShedRoomBound(t *testing.T) {
	const size = 512
	r := rand.New(rand.NewSource(57))
	var sheds, skipped int
	for iter := 0; iter < 3000; iter++ {
		stem := "t1/c/"[:r.Intn(6)]
		var keys []string
		for len(keys) < 200 {
			k := []byte(stem)
			for n := 1 + r.Intn(16); n > 0; n-- {
				k = append(k, 'a'+byte(r.Intn(4)))
			}
			if !slices.Contains(keys, string(k)) {
				keys = append(keys, string(k))
			}
		}
		slices.Sort(keys)
		left, most := r.Intn(2) == 0, r.Intn(3) == 0
		lo, sep, hi := []byte(keys[0]), []byte(keys[100]), []byte(keys[199])
		// The leaf takes keys from its side in random order until one
		// does not fit; the sibling, to a random fill.
		fill := func(n node, lo, hi []byte, from []string, limit int) (newKey []byte) {
			n.init(kindLeaf, storage.InvalidPageID, lo[:commonPrefix(lo, hi)])
			for _, i := range r.Perm(len(from)) {
				k := []byte(from[i])
				val := AppendRID(nil, storage.RID{Page: storage.PageID(i + 1)})
				if !n.fits(k, val) || n.dir()+slotSize*n.count()+n.live() > limit {
					return k
				}
				pos, _ := n.search(k)
				n.insert(pos, k, val)
			}
			return nil
		}
		leaf, sib := node(make([]byte, size)), node(make([]byte, size))
		var key []byte
		if left {
			fill(sib, lo, sep, keys[:100], r.Intn(size))
			key = fill(leaf, sep, hi, keys[100:199], size)
		} else {
			key = fill(leaf, lo, sep, keys[:100], size)
			fill(sib, sep, hi, keys[100:199], r.Intn(size))
		}
		if key == nil || sib.count() == 0 || sib.prefixLen() > leaf.prefixLen() {
			continue
		}
		val := AppendRID(nil, storage.RID{Page: 999})
		pos, _ := leaf.search(key)
		ls := newSeq(nil, leaf, leaf, pos, key, val, nil)
		ls.weigh(leaf.prefixLen())
		roomL, roomR := ls.rooms(most)
		var s *seq
		var m, moved int
		var ok bool
		room := roomR
		if left {
			room = roomL
			s = newSeq(sib, leaf, leaf, sib.count()+pos, key, val, nil)
			if m, ok = s.cut(lo, hi, size, most); m > s.na {
				moved = s.under(s.na, m, leaf.prefixLen())
			}
		} else {
			most = false
			s = newSeq(leaf, sib, leaf, pos, key, val, nil)
			if m, ok = s.cut(lo, hi, size, false); m <= s.na {
				moved = s.under(m, s.na+1, leaf.prefixLen())
			}
		}
		holds := nodeHeader + slotSize*sib.count() + sib.live()
		if ok && 8*moved >= size {
			sheds++
			if holds > room {
				t.Fatalf("left=%v most=%v: the leaf hands %d bytes to a sibling holding %d, past its room %d", left, most, moved, holds, room)
			}
		} else if holds > room {
			skipped++
		}
	}
	t.Logf("%d sheds within their room, %d siblings skipped", sheds, skipped)
	if sheds == 0 || skipped == 0 {
		t.Errorf("%d sheds, %d siblings skipped: want both", sheds, skipped)
	}
}
