package btree

import (
	"bytes"
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
			first = append(first, append([]byte(nil), n.key(0)...))
			last = append(last, append([]byte(nil), n.key(c-1)...))
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

// TestCursorReentry pins down when a reused Iterator skips the descent,
// by the pages it fetches: a lower bound on the remembered leaf's first
// or last key, or between them, re-enters with one Fetch of that leaf;
// one past the last key, below the first key, a nil bound, another tree
// and a forgotten leaf all start at the root.
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
	reentered("a bound inside the leaf", seek(tr, inside, key(2*a+2)))
	reentered("a bound on the first key", seek(tr, key(2*a), key(2*a)))
	reentered("a bound on the last key", seek(tr, key(2*b), key(2*b)))
	// The descent finds nothing left on the leaf and moves along the
	// chain, so the leaf remembered from here on is the next one.
	descended("a bound one past the last key", tr, height, seek(tr, append(key(2*b), 0), key(2*b+2)))
	descended("a bound below the first key", tr, height, seek(tr, key(2*b), key(2*b)))
	descended("a nil bound", tr, height, seek(tr, nil, first[0]))
	seek(tr, inside, key(2*a+2))
	descended("another tree", other, 1, seek(other, key(0), key(0)))
	descended("the first tree after another", tr, height, seek(tr, inside, key(2*a+2)))
	reentered("the same leaf again", seek(tr, inside, key(2*a+2)))
	it.Forget()
	descended("a forgotten leaf", tr, height, seek(tr, inside, key(2*a+2)))
}

// TestCursorMatchesFreshSeekProperty: one Iterator, sought again and
// again without ever forgetting its leaf, returns what a fresh
// SeekRange returns — through inserts that split the remembered leaf,
// deletes that thin it and stretches of deletes that empty it and its
// neighbours, with bounds that fall on keys, between them and one byte
// past them, and drains that stop anywhere. The probes wander, so both
// the re-entry and the descent are taken.
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
		at, reentries, descents := rng.Intn(space), 0, 0
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
				before := pool.Stats().LogicalReads[storage.CatIndex]
				if err := it.Seek(tr, lo, hi); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if pool.Stats().LogicalReads[storage.CatIndex]-before == 1 {
					reentries++
				} else {
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
			}
		}
		if h, err := tr.Height(); err != nil || h < 3 || reentries < 100 || descents < 100 {
			t.Errorf("seed %d: height %d (%v), %d re-entries, %d descents: the run did not cover both paths of a tall tree",
				seed, h, err, reentries, descents)
		}
	}
}
