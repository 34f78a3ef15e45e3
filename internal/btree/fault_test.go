package btree

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/storage"
)

type entry struct {
	key []byte
	rid storage.RID
}

func dump(t *testing.T, tr *BTree) []entry {
	t.Helper()
	it, err := tr.Scan()
	if err != nil {
		t.Fatal(err)
	}
	var es []entry
	for ; it.Valid(); it.Next() {
		es = append(es, entry{append([]byte(nil), it.Key()...), it.RID()})
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Release()
	return es
}

func sameEntries(a, b []entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].key, b[i].key) || a[i].rid != b[i].rid {
			return false
		}
	}
	return true
}

// TestInsertAtomicUnderFaults sweeps an injected failure across every
// logical page access an Insert makes — including inserts that split a
// leaf, cascade splits up the tree, and grow a new root — and checks
// that a failed Insert leaves the tree exactly as it was: same entries,
// same Len, the new key absent, and no leaked pages accumulating.
func TestInsertAtomicUnderFaults(t *testing.T) {
	const pageSize = 256
	const n = 120 // small pages + dense keys => multi-level tree with frequent splits

	build := func() (*BTree, *storage.BufferPool) {
		pool := newPool(pageSize)
		tr, err := New(pool)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := tr.Insert(key(i), storage.RID{Page: storage.PageID(i + 1)}); err != nil {
				t.Fatalf("build insert %d: %v", i, err)
			}
		}
		return tr, pool
	}

	// Probe keys: one that fits the leaf, one that splits (dense
	// sequential fill leaves leaves full), and one at the far right.
	probes := [][]byte{key(n), []byte("key-00000000a"), []byte("aaa")}

	for _, probe := range probes {
		succeeded := false
		for k := int64(1); k < 200; k++ {
			tr, pool := build()
			before := dump(t, tr)
			lenBefore := tr.Len()
			pagesBefore := pool.Stats().Resident // resident==allocated here: pool holds every page

			pool.SetFetchFault(storage.FailNthFetch(k, storage.CatIndex))
			err := tr.Insert(probe, storage.RID{Page: 9999})
			pool.SetFetchFault(nil)

			if err == nil {
				// The insert performed fewer than k accesses: the sweep
				// has covered every fault point for this probe.
				if _, gerr := tr.Get(probe); gerr != nil {
					t.Fatalf("probe %q: fault-free insert lost the key: %v", probe, gerr)
				}
				succeeded = true
				break
			}
			if !errors.Is(err, storage.ErrInjectedFault) {
				t.Fatalf("probe %q fault %d: unexpected error %v", probe, k, err)
			}
			if got := tr.Len(); got != lenBefore {
				t.Fatalf("probe %q fault %d: Len %d, want %d", probe, k, got, lenBefore)
			}
			if _, gerr := tr.Get(probe); !errors.Is(gerr, ErrKeyNotFound) {
				t.Fatalf("probe %q fault %d: failed insert left key reachable (err %v)", probe, k, gerr)
			}
			if !sameEntries(before, dump(t, tr)) {
				t.Fatalf("probe %q fault %d: entries changed after failed insert", probe, k)
			}
			if got := pool.Stats().Resident; got != pagesBefore {
				t.Fatalf("probe %q fault %d: resident pages %d, want %d (leaked split pages?)", probe, k, got, pagesBefore)
			}
		}
		if !succeeded {
			t.Fatalf("probe %q: sweep never ran fault-free; widen the sweep", probe)
		}
	}
}

// TestRootSplitAtomicUnderFaults drives the single-leaf -> root-split
// transition under a fault sweep: the smallest tree exercises the
// new-root allocation path.
func TestRootSplitAtomicUnderFaults(t *testing.T) {
	const pageSize = 256
	fill := func() (*BTree, int) {
		pool := newPool(pageSize)
		tr, err := New(pool)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for h, _ := tr.Height(); h == 1; h, _ = tr.Height() {
			if err := tr.Insert(key(i), storage.RID{Page: storage.PageID(i + 1)}); err != nil {
				t.Fatal(err)
			}
			i++
		}
		return tr, i
	}
	// Find how many keys fit before the root leaf splits, then rebuild
	// to one short of that and sweep faults over the splitting insert.
	_, splitAt := fill()

	for k := int64(1); k < 50; k++ {
		pool := newPool(pageSize)
		tr, err := New(pool)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < splitAt-1; i++ {
			if err := tr.Insert(key(i), storage.RID{Page: storage.PageID(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		before := dump(t, tr)

		pool.SetFetchFault(storage.FailNthFetch(k, storage.CatIndex))
		err = tr.Insert(key(splitAt-1), storage.RID{Page: storage.PageID(splitAt)})
		pool.SetFetchFault(nil)

		if err == nil {
			if h, _ := tr.Height(); h != 2 {
				t.Fatalf("fault %d: insert succeeded but height %d, want 2", k, h)
			}
			return // sweep complete
		}
		if !errors.Is(err, storage.ErrInjectedFault) {
			t.Fatalf("fault %d: unexpected error %v", k, err)
		}
		if h, _ := tr.Height(); h != 1 {
			t.Fatalf("fault %d: failed insert changed height to %d", k, h)
		}
		if !sameEntries(before, dump(t, tr)) {
			t.Fatalf("fault %d: entries changed after failed root split", k)
		}
	}
	t.Fatal("sweep never ran fault-free; widen the sweep")
}

// Duplicate detection must not depend on the fault hook state and must
// leave the tree untouched.
func TestInsertDuplicateLeavesTreeUntouched(t *testing.T) {
	tr, err := New(newPool(256))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tr.Insert(key(i), storage.RID{Page: storage.PageID(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	before := dump(t, tr)
	if err := tr.Insert(key(25), storage.RID{Page: 777}); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("want ErrDuplicateKey, got %v", err)
	}
	if !sameEntries(before, dump(t, tr)) {
		t.Error("duplicate insert modified the tree")
	}
	rid, err := tr.Get(key(25))
	if err != nil || rid.Page != 26 {
		t.Errorf("Get(key 25) = %v, %v; want page 26", rid, err)
	}
}
