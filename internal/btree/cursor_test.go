package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// fetchLog records the page of every Fetch the pool serves from now on.
func fetchLog(pool *storage.BufferPool) *[]storage.PageID {
	var ids []storage.PageID
	pool.SetFetchFault(func(id storage.PageID, _ storage.Category) error {
		ids = append(ids, id)
		return nil
	})
	return &ids
}

// leafBounds walks the leaf chain and returns every non-empty leaf's
// page, first key and last key, in key order.
func leafBounds(t *testing.T, tr *BTree) (ids []storage.PageID, first, last [][]byte) {
	t.Helper()
	id, n, _, err := tr.descend(nil)
	for {
		if err != nil {
			t.Fatal(err)
		}
		if c := n.count(); c > 0 {
			ids = append(ids, id)
			first = append(first, n.appendKey(nil, 0))
			last = append(last, n.appendKey(nil, c-1))
		}
		next := n.link()
		tr.pool.Unpin(id, false)
		if next == storage.InvalidPageID {
			return ids, first, last
		}
		id = next
		var buf []byte
		buf, err = tr.pool.Fetch(id, storage.CatIndex)
		n = node(buf)
	}
}

// TestCursorReentry pins down, by the pages it fetches, what a reused
// Iterator costs. While it holds its leaf, a lower bound on the leaf's
// first or last key, or between them, fetches nothing, whether it lies
// ahead of the previous position or behind it. Released, the iterator
// re-enters the leaf it remembers with one Fetch. One past the last key,
// below the first key, a nil bound, another tree and a forgotten leaf
// all start at the root, and a released iterator holds no pin.
func TestCursorReentry(t *testing.T) {
	pool := newPool(512)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(key(2*i), storage.RID{Page: storage.PageID(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	other, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Insert(key(0), storage.RID{Page: 1}); err != nil {
		t.Fatal(err)
	}
	height, err := tr.Height()
	if err != nil || height < 3 {
		t.Fatalf("height %d (%v): want inner levels above the leaves", height, err)
	}
	ids, first, last := leafBounds(t, tr)
	l := len(ids) / 2 // a leaf in the middle of the chain, holding key(2a) … key(2b)
	var a, b int
	if _, err := fmt.Sscanf(string(first[l]), "key-%d", &a); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscanf(string(last[l]), "key-%d", &b); err != nil {
		t.Fatal(err)
	}
	a, b = a/2, b/2

	log := fetchLog(pool)
	var it Iterator
	seek := func(tree *BTree, lo, want []byte) []storage.PageID {
		t.Helper()
		*log = (*log)[:0]
		if err := it.Seek(tree, lo, nil); err != nil {
			t.Fatal(err)
		}
		if !it.Valid() || !bytes.Equal(it.Key(), want) {
			t.Fatalf("Seek(%q): valid %v on %q, want %q", lo, it.Valid(), it.Key(), want)
		}
		return *log
	}
	// released is seek after a Release.
	released := func(tree *BTree, lo, want []byte) []storage.PageID {
		t.Helper()
		it.Release()
		return seek(tree, lo, want)
	}
	held := func(what string, got []storage.PageID) {
		t.Helper()
		if len(got) != 0 {
			t.Errorf("%s: fetched %v, want nothing: the leaf is held", what, got)
		}
	}
	reentered := func(what string, got []storage.PageID) {
		t.Helper()
		if len(got) != 1 || got[0] != ids[l] {
			t.Errorf("%s: fetched %v, want only the remembered leaf %d", what, got, ids[l])
		}
	}
	// A descent fetches one page a level, the root first; the remembered
	// leaf is not looked at beforehand.
	descended := func(what string, tree *BTree, levels int, got []storage.PageID) {
		t.Helper()
		if len(got) < levels || got[0] != tree.Root() {
			t.Errorf("%s: fetched %v, want a descent of %d levels from root %d", what, got, levels, tree.Root())
		}
	}
	inside := key(2*a + 1) // absent: between the leaf's first key and its second

	descended("the zero iterator", tr, height, seek(tr, inside, key(2*a+2)))
	held("a bound inside the held leaf", seek(tr, inside, key(2*a+2)))
	held("a bound ahead, on the last key", seek(tr, key(2*b), key(2*b)))
	held("a bound behind, on the first key", seek(tr, key(2*a), key(2*a)))
	reentered("a bound inside the released leaf", released(tr, inside, key(2*a+2)))
	reentered("a bound on the first key", released(tr, key(2*a), key(2*a)))
	reentered("a bound on the last key", released(tr, key(2*b), key(2*b)))
	// The descent finds nothing left on the leaf and moves along the
	// chain, so the leaf held from here on is the next one.
	descended("a bound one past the last key", tr, height, seek(tr, append(key(2*b), 0), key(2*b+2)))
	descended("a bound below the first key", tr, height, seek(tr, key(2*b), key(2*b)))
	descended("a bound below the first key, released", tr, height, released(tr, append(key(2*b), 0), key(2*b+2)))
	descended("a nil bound", tr, height, seek(tr, nil, first[0]))
	seek(tr, inside, key(2*a+2))
	descended("another tree", other, 1, seek(other, key(0), key(0)))
	descended("the first tree after another", tr, height, seek(tr, inside, key(2*a+2)))
	held("the same leaf again", seek(tr, inside, key(2*a+2)))
	reentered("the same leaf again, released", released(tr, inside, key(2*a+2)))
	it.Forget()
	descended("a forgotten leaf", tr, height, seek(tr, inside, key(2*a+2)))
	it.Release()
	if err := pool.DropAll(); err != nil {
		t.Errorf("after Release: %v", err)
	}
}

// TestCursorMatchesFreshSeekProperty: one Iterator, sought again and
// again without ever forgetting its leaf, returns what a fresh
// SeekRange returns — through inserts that split the held or remembered
// leaf, deletes that thin it and stretches of deletes that empty it and
// its neighbours, with bounds that fall on keys, between them and one
// byte past them, and drains that stop anywhere. The probes wander and
// the iterator is released now and then, so the held leaf, the re-entry
// and the descent are all taken; nothing stays pinned at the end.
func TestCursorMatchesFreshSeekProperty(t *testing.T) {
	const space = 1500
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := newPool(256)
		tr, err := New(pool)
		if err != nil {
			t.Fatal(err)
		}
		present := map[int]bool{}
		insert := func(k int) {
			if k < 0 || k >= space || present[k] {
				return
			}
			if err := tr.Insert(key(k), storage.RID{Page: storage.PageID(k + 1), Slot: uint16(seed)}); err != nil {
				t.Fatalf("seed %d: insert %d: %v", seed, k, err)
			}
			present[k] = true
		}
		remove := func(k int) {
			if !present[k] {
				return
			}
			if err := tr.Delete(key(k)); err != nil {
				t.Fatalf("seed %d: delete %d: %v", seed, k, err)
			}
			delete(present, k)
		}
		for k := 0; k < space; k += 2 {
			insert(k)
		}

		var it Iterator
		at, holds, reentries, descents := rng.Intn(space), 0, 0, 0
		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(10); {
			case r < 2: // a run of neighbours, often the cursor's: fills a leaf until it splits
				k := rng.Intn(space)
				if rng.Intn(2) == 0 {
					k = at - 4
				}
				for n := rng.Intn(8); n >= 0; n-- {
					insert(k + n)
				}
			case r < 4:
				remove(rng.Intn(space))
			case r == 4 && rng.Intn(8) == 0: // a stretch around the cursor: empties whole leaves
				for k, n := at-20, 40; n > 0; n-- {
					remove(k + n)
				}
			default:
				if rng.Intn(4) == 0 {
					at = rng.Intn(space)
				} else {
					at = min(max(at+rng.Intn(7)-2, 0), space-1)
				}
				lo := key(at)
				if rng.Intn(3) == 0 {
					lo = append(lo, 0) // one past key(at), before key(at+1)
				}
				var hi []byte
				if rng.Intn(3) > 0 {
					hi = key(at + rng.Intn(20))
				}
				if rng.Intn(3) == 0 {
					it.Release()
				}
				before := pool.Stats().LogicalReads[storage.CatIndex]
				if err := it.Seek(tr, lo, hi); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				switch pool.Stats().LogicalReads[storage.CatIndex] - before {
				case 0:
					holds++
				case 1:
					reentries++
				default:
					descents++
				}
				fresh, err := tr.SeekRange(lo, hi)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for left := rng.Intn(15); ; left-- {
					if it.Valid() != fresh.Valid() {
						t.Fatalf("seed %d op %d: [%q, %q): reused cursor valid %v, fresh one %v", seed, op, lo, hi, it.Valid(), fresh.Valid())
					}
					if !it.Valid() || left == 0 {
						break
					}
					if !bytes.Equal(it.Key(), fresh.Key()) || it.RID() != fresh.RID() {
						t.Fatalf("seed %d op %d: [%q, %q): reused cursor on %q %v, fresh one on %q %v",
							seed, op, lo, hi, it.Key(), it.RID(), fresh.Key(), fresh.RID())
					}
					it.Next()
					fresh.Next()
				}
				if it.Err() != nil || fresh.Err() != nil {
					t.Fatalf("seed %d: %v, %v", seed, it.Err(), fresh.Err())
				}
				fresh.Release()
			}
		}
		it.Release()
		if err := pool.DropAll(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if h, err := tr.Height(); err != nil || h < 3 || holds < 100 || reentries < 100 || descents < 100 {
			t.Errorf("seed %d: height %d (%v), %d held, %d re-entries, %d descents: the run did not cover every path of a tall tree",
				seed, h, err, holds, reentries, descents)
		}
	}
}

// FuzzSeekSequence is the differential check of the held leaf: one
// Iterator, sought again and again — point and range seeks, ascending,
// repeated, descending and across leaf boundaries, some after a
// Release, some drained only partway — returns for every seek the
// entries a fresh SeekRange returns, over a tree of small leaves built
// from a random key set with splits and lazy deletes (whole runs, so
// some leaves are empty). seed picks the key set; ops is two bytes a
// seek: where it goes, and what it asks. Nothing stays pinned at the end.
func FuzzSeekSequence(f *testing.F) {
	f.Add(uint64(1), []byte{0x01, 0x00, 0x01, 0x01, 0x02, 0x02, 0x00, 0x03, 0x43, 0x04, 0x81, 0x05, 0xC2, 0x06})
	f.Add(uint64(7), []byte("ascending, repeated and descending seeks over a held leaf"))
	f.Add(uint64(42), bytes.Repeat([]byte{0x11, 0x93, 0x47, 0x28}, 30))
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		const space = 400 // keys key(0) … key(2*space-2), even ones only
		rng := rand.New(rand.NewSource(int64(seed)))
		pool := newPool(256)
		tr, err := New(pool)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range rng.Perm(space)[:space/4+rng.Intn(space*3/4)] {
			if err := tr.Insert(key(2*k), storage.RID{Page: storage.PageID(k + 1), Slot: uint16(k)}); err != nil {
				t.Fatal(err)
			}
		}
		for runs := rng.Intn(6); runs > 0; runs-- {
			from := rng.Intn(space)
			for k := from; k < min(from+1+rng.Intn(40), space); k++ {
				if err := tr.Delete(key(2 * k)); err != nil && !errors.Is(err, ErrKeyNotFound) {
					t.Fatal(err)
				}
			}
		}
		drain := func(it *Iterator, limit int) (out []entry) {
			for ; it.Valid() && len(out) < limit; it.Next() {
				out = append(out, entry{append([]byte(nil), it.Key()...), it.RID()})
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			return out
		}
		var it Iterator
		at := rng.Intn(2 * space)
		for i := 0; i+1 < len(ops) && i < 400; i += 2 {
			move, ask := ops[i], ops[i+1]
			switch step := int(move & 0x3F); move >> 6 {
			case 0:
				at += step // ahead, or the same key again
			case 1:
				at -= step // behind
			case 2:
				at = step * 2 * space / 64 // anywhere
			case 3:
				at += 20 * step // several leaves on
			}
			at = min(max(at, 0), 2*space)
			lo, hi := key(at), []byte(nil)
			switch ask & 3 {
			case 0: // a point range, as an index-NL probe asks
				hi = PrefixSuccessor(lo)
			case 1: // no upper bound
			case 2:
				hi = key(at + int(ask>>2&15))
			case 3: // between two keys
				lo = append(lo, 0)
				hi = key(at + 1 + int(ask>>2&15))
			}
			if ask&0x40 != 0 {
				it.Release()
			}
			limit := 1 << 30
			if ask&0x80 != 0 {
				limit = int(ask >> 2 & 7)
			}
			if err := it.Seek(tr, lo, hi); err != nil {
				t.Fatal(err)
			}
			fresh, err := tr.SeekRange(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			got, want := drain(&it, limit), drain(fresh, limit)
			fresh.Release()
			if !sameEntries(got, want) {
				t.Fatalf("seek %d [%q, %q): held iterator %d entries, fresh one %d", i/2, lo, hi, len(got), len(want))
			}
		}
		it.Release()
		if err := pool.DropAll(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHeldLeafAcrossPrefixChange holds a leaf, fills it until a split or
// a shed moves its fences and so its prefix, and seeks the held
// iterator again at every key around: each answers what a fresh
// SeekRange does, so a held leaf is probed at its prefix as it reads
// now, not as it read when the iterator took it.
func TestHeldLeafAcrossPrefixChange(t *testing.T) {
	tr, err := New(newPool(256))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i += 10 {
		if err := tr.Insert(key(i), storage.RID{Page: storage.PageID(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	changed := 0
	for probe := 0; probe < 3000; probe += 7 {
		var it Iterator
		if err := it.Seek(tr, key(probe), nil); err != nil {
			t.Fatal(err)
		}
		pl := it.n.prefixLen()
		for j := probe + 1; j < probe+9; j++ {
			if err := tr.Insert(key(j), storage.RID{Page: storage.PageID(j + 1)}); err != nil && err != ErrDuplicateKey {
				t.Fatal(err)
			}
		}
		if it.n.prefixLen() != pl {
			changed++
		}
		for q := probe; q < probe+12; q++ {
			if err := it.Seek(tr, key(q), nil); err != nil {
				t.Fatal(err)
			}
			fresh, err := tr.SeekRange(key(q), nil)
			if err != nil {
				t.Fatal(err)
			}
			if it.Valid() != fresh.Valid() || it.Valid() && !bytes.Equal(it.Key(), fresh.Key()) {
				t.Fatalf("seek %q after the held leaf's prefix moved: held iterator valid %v, fresh one valid %v", key(q), it.Valid(), fresh.Valid())
			}
			fresh.Release()
		}
		it.Release()
	}
	if changed == 0 {
		t.Error("no held leaf's prefix changed")
	}
}
