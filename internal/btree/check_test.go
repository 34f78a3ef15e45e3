package btree

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/storage"
)

// TestCheckFindsAWrongSeparator plants an off-by-one separator in a
// sound tree: the root's first separator moves up by one in its last
// byte, past the first key of the leaf it bounds. A scan still returns
// every key in order, which is all a check over the leaf chain sees,
// but a Get of that first key descends to the leaf on the left and
// misses; Check finds the key below its leaf's low fence.
func TestCheckFindsAWrongSeparator(t *testing.T) {
	pool := newPool(512)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), storage.RID{Page: storage.PageID(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("a sound tree: %v", err)
	}
	buf, err := pool.Fetch(tr.Root(), storage.CatIndex)
	if err != nil {
		t.Fatal(err)
	}
	root := node(buf)
	sep := root.appendKey(nil, 0)
	_, child := root.entry(0)
	child = bytes.Clone(child)
	first := bytes.Clone(sep)
	sep[len(sep)-1]++
	root.remove(0)
	root.insert(0, sep, child)
	pool.Unpin(tr.Root(), true)

	it, err := tr.Scan()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for prev := []byte(nil); it.Valid(); it.Next() {
		if bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatalf("scan out of order at %x", it.Key())
		}
		prev = append(prev[:0], it.Key()...)
		seen++
	}
	it.Release()
	if seen != n {
		t.Fatalf("scan saw %d of %d keys", seen, n)
	}
	if _, err := tr.Get(first); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("Get(%q) under the wrong separator: %v, want ErrKeyNotFound", first, err)
	}
	err = tr.Check()
	if err == nil {
		t.Fatal("Check passes a tree with a wrong separator")
	}
	t.Log(err)
}
