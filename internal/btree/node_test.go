package btree

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/storage"
)

// ridBoundaries are page ids on both sides of every length class of a
// RID's form, and the largest a tree accepts.
var ridBoundaries = []storage.PageID{0, 1, 1<<6 - 1, 1 << 6, 255, 256, 1<<14 - 1, 1 << 14,
	1<<22 - 1, 1 << 22, 1 << 40, maxPageID}

// FuzzRIDSuffix holds the RID form to its contract: read from its first
// byte (a unique leaf's payload) or from the end of a key it ends (a
// non-unique index key), it gives back the RID, for page ids up to
// maxPageID and slots up to maxSlot; and after one index value, two RIDs
// make distinct keys that order as the RIDs do, page then slot.
func FuzzRIDSuffix(f *testing.F) {
	for _, a := range ridBoundaries {
		for _, b := range ridBoundaries {
			f.Add([]byte{0x03, 0x88}, uint64(a), uint16(0), uint64(b), uint16(maxSlot))
		}
	}
	f.Add([]byte{}, uint64(300), uint16(4), uint64(300), uint16(5))
	f.Add([]byte{0xFF, 0xC0}, uint64(maxPageID+1), uint16(0), uint64(1), uint16(maxSlot+1))
	f.Fuzz(func(t *testing.T, value []byte, p1 uint64, s1 uint16, p2 uint64, s2 uint16) {
		var keys [2][]byte
		rids := [2]storage.RID{{Page: storage.PageID(p1), Slot: s1}, {Page: storage.PageID(p2), Slot: s2}}
		for i, rid := range rids {
			if inRange := rid.Page <= maxPageID && rid.Slot <= maxSlot; inRange != (checkRID(rid) == nil) {
				t.Fatalf("checkRID(%v) = %v", rid, checkRID(rid))
			}
			rid.Page %= maxPageID + 1
			rid.Slot &= maxSlot
			rids[i] = rid
			k := AppendRID(slices.Clip(value), rid)
			form := k[len(value):]
			if !bytes.Equal(k[:len(value)], value) || len(form) != ridLen(form[0]) || len(form) > maxRIDLen {
				t.Fatalf("AppendRID(%x, %v) = %x", value, rid, k)
			}
			if got := decodeRID(form); got != rid {
				t.Fatalf("form %x of %v decodes to %v", form, rid, got)
			}
			if got := ridSuffix(k); got != rid {
				t.Fatalf("key %x ending in %v decodes to %v", k, rid, got)
			}
			keys[i] = k
		}
		want := cmp.Or(cmp.Compare(rids[0].Page, rids[1].Page), cmp.Compare(rids[0].Slot, rids[1].Slot))
		if got := bytes.Compare(keys[0], keys[1]); got != want {
			t.Fatalf("keys %x (%v) and %x (%v) compare %d, want %d", keys[0], rids[0], keys[1], rids[1], got, want)
		}
	})
}

// nodeEntry is one entry of the model FuzzNodeOps holds a node to.
type nodeEntry struct {
	key string      // the full key
	rid storage.RID // a leaf's RID; an inner node's child is rid.Page
}

// checkNode holds n to its layout, to its fences lo and hi and to model,
// its entries in key order: the directory stays below the heap, every
// offset and entry lies inside the page, the live count is the entries'
// bytes, the prefix is the fences' common prefix, every full key and RID
// (or child) reads back, and node.check, Check's view of one node,
// agrees.
func checkNode(n node, lo, hi []byte, model []nodeEntry) error {
	cnt, heapStart := n.count(), len(n)-n.heap()
	if cnt != len(model) || n.dir()+slotSize*cnt > heapStart {
		return fmt.Errorf("%d entries (model %d), directory to %d, heap from %d", cnt, len(model), n.dir()+slotSize*cnt, heapStart)
	}
	if p := n.prefix(); string(p) != string(lo[:commonPrefix(lo, hi)]) {
		return fmt.Errorf("prefix %x, fences %x and %x", p, lo, hi)
	}
	live := 0
	for i, e := range model {
		off := n.off(i)
		if off < heapStart || off >= len(n) {
			return fmt.Errorf("entry %d at offset %d, heap [%d, %d)", i, off, heapStart, len(n))
		}
		k, v := n.entryAt(off)
		if end := off + entrySize(len(k), len(v)); end > len(n) {
			return fmt.Errorf("entry %d runs to %d past the page", i, end)
		}
		live += entrySize(len(k), len(v))
		var rid storage.RID
		if n.leaf() {
			rid = n.rid(i)
		} else {
			rid.Page = n.child(i + 1)
		}
		if k := n.appendKey(nil, i); string(k) != e.key || rid != e.rid {
			return fmt.Errorf("entry %d is %x → %v, model %x → %v", i, k, rid, e.key, e.rid)
		}
	}
	if live != n.live() {
		return fmt.Errorf("live %d, entries hold %d", n.live(), live)
	}
	return n.check(lo, hi)
}

// FuzzNodeOps runs random insert, remove, compact and split sequences on
// one node page of each kind — a leaf with RID payloads, a leaf whose
// keys end in their RIDs, an inner node — against a sorted model of
// full keys, and after each operation holds the page to checkNode. The
// node gets a fence pair first: both open, one open, or a key and the
// successor of one of its prefixes, so that the node stores that prefix
// once. Keys are random, or ascend under one of a few shared prefixes,
// so that a leaf holds the insertion runs its split follows; a key
// outside the fences moves in above the low one. An insert that does
// not fit splits the node, and the fuzz holds the split to its exact
// point and the halves to their fences, the node's and the separator,
// and goes on with either half.
func FuzzNodeOps(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for kind := byte(0); kind < 3; kind++ {
		for i := 0; i < 4; i++ {
			ops := make([]byte, 200+300*i)
			r.Read(ops)
			f.Add(kind, ops)
		}
		// One ascending run, and two interleaved under prefixes "b" and
		// "bd" (seven bytes an insert: op, prefix, step, RID).
		f.Add(kind, bytes.Repeat([]byte{5}, 800))
		f.Add(kind, bytes.Repeat([]byte{5, 5, 5, 5, 5, 5, 5, 1, 7, 5, 5, 5, 5, 5}, 60))
	}
	// Fences "bd\x00\x01" and "bd\x01" (prefix "bd"), then the two
	// interleaved runs, above the low fence.
	for kind := byte(0); kind < 3; kind++ {
		f.Add(kind, append([]byte{3, 7, 15, 3}, bytes.Repeat([]byte{5, 5, 5, 5, 5, 5, 5, 1, 7, 5, 5, 5, 5, 5}, 60)...))
	}
	const pageSize, link, rightID = 256, 7, 99
	prefixes := []string{"ab", "ac", "b", "bd"}
	// shared is the length of the longest common prefix of a and b.
	shared := func(a, b string) int {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		return i
	}
	f.Fuzz(func(t *testing.T, kind byte, ops []byte) {
		kind %= 3
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		var seq [4]uint16 // the last suffix under each prefix
		draw := func() []byte {
			if p := next(); p%2 == 1 {
				p = p / 2 % 4
				seq[p] += 1 + uint16(next()%3)
				return binary.BigEndian.AppendUint16([]byte(prefixes[p]), seq[p])
			}
			k := make([]byte, next()%24)
			for i := range k {
				k[i] = 'a' + next()%4
			}
			return k
		}
		var lo, hi []byte
		switch next() % 4 {
		case 1:
			lo = draw()
		case 2:
			hi = draw()
		case 3:
			lo = draw()
			hi = PrefixSuccessor(lo[:int(next())%(len(lo)+1)])
		}
		seq = [4]uint16{}
		n := node(make([]byte, pageSize))
		n.init(kind, link, lo[:commonPrefix(lo, hi)])
		var model []nodeEntry
		for len(ops) > 0 {
			switch next() % 4 {
			case 0, 1:
				k := draw()
				if string(k) < string(lo) || hi != nil && string(k) >= string(hi) {
					k = append(slices.Clip(lo), k...)
				}
				rid := storage.RID{Page: ridBoundaries[next()%uint8(len(ridBoundaries))] - storage.PageID(next()%2),
					Slot: uint16(next())<<6 | uint16(next()%64)}
				rid.Page %= maxPageID + 1
				var buf [maxRIDLen]byte
				val := AppendRID(buf[:0], rid)
				switch kind {
				case kindInner:
					rid.Slot = 0
					val = buf[:childSize]
					putPageID(val, rid.Page)
				case kindKeyLeaf:
					k, val = append(k, val...), nil
				}
				pos, found := n.search(k)
				at, inModel := slices.BinarySearchFunc(model, string(k), func(e nodeEntry, k string) int { return cmp.Compare(e.key, k) })
				if found != inModel || pos != at {
					t.Fatalf("search(%x) = %d, %v; model %d, %v", k, pos, found, at, inModel)
				}
				if found || !keyFits(len(k), pageSize) || hi != nil && string(k) >= string(hi) {
					continue
				}
				all := slices.Insert(slices.Clone(model), pos, nodeEntry{string(k), rid})
				if n.fits(k, val) {
					n.insert(pos, k, val)
					model = all
					break
				}
				left, right := node(make([]byte, pageSize)), node(make([]byte, pageSize))
				s := newSeq(nil, n, n, pos, k, val, nil)
				mid, _ := s.splitAt(lo, hi, pageSize)
				sep := s.split(mid, lo, hi, left, right, rightID)
				plen := n.prefixLen()
				size := func(e nodeEntry) int {
					v := childSize
					switch kind {
					case kindLeaf:
						v = len(AppendRID(nil, e.rid))
					case kindKeyLeaf:
						v = 0
					}
					return slotSize + entrySize(len(e.key)-plen, v)
				}
				// The split point: the byte midpoint, the first entry past
				// half the bytes (as the node stores them) on the left ...
				total, acc, want := 0, 0, 0
				for _, e := range all {
					total += size(e)
				}
				for acc += size(all[0]); acc <= total/2; want++ {
					acc += size(all[want+1])
				}
				// ... unless a leaf's new entry ends a run: it shares more
				// with the entry before it than with the key after it (the
				// next entry, or the high fence), and the entries sharing
				// that much with it take half the bytes. Then the left
				// half ends with it, or just before it when it would not
				// fit. With no key after it the tree ends there, and every
				// entry shares more, if the prefix the new key shares with
				// the low fence, beyond the node's, takes more than half
				// the bytes.
				d, ends := -1, false
				switch {
				case pos+1 < len(all):
					d = shared(string(k), all[pos+1].key)
				case hi != nil:
					d = shared(string(k), string(hi))
				default:
					ends = 2*(shared(string(k), string(lo))-plen)*(len(all)-1) > total
				}
				if kind != kindInner && pos > 0 && (d >= 0 || ends) && shared(string(k), all[pos-1].key) > d {
					run, upTo := 0, 0
					for i := pos; i >= 0 && shared(string(k), all[i].key) > d; i-- {
						run += size(all[i])
					}
					for _, e := range all[:pos+1] {
						upTo += size(e)
					}
					if 2*run >= total {
						want = pos + 1
						if nodeHeader+plen+upTo > pageSize {
							want = pos
						}
					}
				}
				lc := left.count()
				if lc != want {
					t.Fatalf("split %d entries (%d bytes, new at %d, fences %x %x) after %d, want %d", len(all), total, pos, lo, hi, lc, want)
				}
				lm, rm := all[:lc], all[lc:]
				wantLink := [2]storage.PageID{rightID, n.link()}
				if string(sep) != rm[0].key {
					t.Fatalf("split separator %x, want %x", sep, rm[0].key)
				}
				if kind == kindInner {
					wantLink = [2]storage.PageID{n.link(), rm[0].rid.Page}
					rm = rm[1:]
				}
				if lc == 0 || len(rm) == 0 {
					t.Fatalf("split halves of %d and %d entries", lc, len(rm))
				}
				if left[0] != kind || right[0] != kind || left.link() != wantLink[0] || right.link() != wantLink[1] {
					t.Fatalf("split halves: kinds %d %d, links %d %d; want kind %d, links %v", left[0], right[0], left.link(), right.link(), kind, wantLink)
				}
				if err := checkNode(left, lo, sep, lm); err != nil {
					t.Fatalf("left half: %v", err)
				}
				if err := checkNode(right, sep, hi, rm); err != nil {
					t.Fatalf("right half: %v", err)
				}
				if next()%2 == 1 {
					n, model, lo = right, rm, sep
				} else {
					n, model, hi = left, lm, sep
				}
			case 2:
				if len(model) > 0 {
					pos := int(next()) % len(model)
					n.remove(pos)
					model = slices.Delete(model, pos, pos+1)
				}
			case 3:
				n.compact()
			}
			if err := checkNode(n, lo, hi, model); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestEqualValuesReadRIDsAcrossTheSeam loads one value many times into a
// non-unique index on 256-byte pages, each row's key the value and its
// RID: the keys differ only in their RIDs, so a leaf's fences share the
// RIDs' leading bytes and its prefix reaches into the RID form, leaving
// entries whose stored suffix is shorter than the form. Get,
// Iterator.RID and the RIDs HintRows announces must still be each
// entry's own.
func TestEqualValuesReadRIDsAcrossTheSeam(t *testing.T) {
	disk := storage.NewDisk(256)
	pool := storage.NewBufferPool(disk, 256*4096)
	heap := storage.NewHeapFile(pool, storage.InsertBestFit)
	tr, err := NewLogged(pool, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	value := []byte{0x03, 0x88}
	var keys [][]byte
	var rids []storage.RID
	for i := 0; i < 3000; i++ {
		rid, err := heap.Insert([]byte{byte(i), byte(i >> 8)})
		if err != nil {
			t.Fatal(err)
		}
		k := AppendRID(slices.Clip(value), rid)
		if err := tr.Insert(k, rid); err != nil {
			t.Fatal(err)
		}
		keys, rids = append(keys, k), append(rids, rid)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	seams := 0
	id, n, _, err := tr.descend(nil)
	for err == nil {
		for i := 0; i < n.count(); i++ {
			if k := n.appendKey(nil, i); len(n.suffix(i)) < ridLen(k[len(k)-2]) {
				seams++
			}
		}
		next := n.link()
		tr.pool.Unpin(id, false)
		if next == storage.InvalidPageID {
			break
		}
		var buf []byte
		if buf, err = tr.pool.Fetch(next, storage.CatIndex); err == nil {
			id, n = next, node(buf)
		}
	}
	if err != nil || seams == 0 {
		t.Fatalf("%d entries whose suffix is shorter than their RID's form (%v)", seams, err)
	}
	for i, k := range keys {
		if rid, err := tr.Get(k); err != nil || rid != rids[i] {
			t.Fatalf("Get(%x) = %v, %v; want %v", k, rid, err, rids[i])
		}
	}
	var it Iterator
	if err := it.Seek(tr, nil, nil); err != nil {
		t.Fatal(err)
	}
	i := 0
	for ; it.Valid(); it.Next() {
		if i >= len(keys) || it.RID() != rids[i] || !bytes.Equal(it.Key(), keys[i]) {
			t.Fatalf("entry %d: %x → %v", i, it.Key(), it.RID())
		}
		i++
	}
	if it.Release(); i != len(keys) {
		t.Fatalf("a scan saw %d of %d entries", i, len(keys))
	}
	// With misses to overlap, every Seek announces the rows of the range
	// on its leaf: the entries from the position on.
	disk.ReadLatency = time.Microsecond
	it.HintRows(heap)
	for lo := 0; lo < len(keys); lo += 37 {
		if err := it.Seek(tr, keys[lo], nil); err != nil {
			t.Fatal(err)
		}
		if len(it.rids) == 0 || !slices.Equal(it.rids, rids[lo:lo+len(it.rids)]) {
			t.Fatalf("a Seek to entry %d announces %v, want the rows from %v on", lo, it.rids, rids[lo])
		}
	}
	it.Release()
	t.Logf("%d entries, %d read across the seam", len(keys), seams)
}
