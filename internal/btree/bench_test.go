package btree

import (
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// The B+tree microbenchmarks: 8 KiB pages (the engine's default), a pool
// that holds the whole tree, so they measure node search and node
// mutation and nothing of the buffer pool's miss path.

const benchPageSize = 8192

func benchTree(b *testing.B, n int) *BTree {
	b.Helper()
	tr, err := New(newPool(benchPageSize))
	if err != nil {
		b.Fatal(err)
	}
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		if err := tr.Insert(key(i), storage.RID{Page: storage.PageID(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
	return tr
}

var sinkRID storage.RID

func BenchmarkGet(b *testing.B) {
	const n = 3000
	tr := benchTree(b, n)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rid, err := tr.Get(keys[i%n])
		if err != nil {
			b.Fatal(err)
		}
		sinkRID = rid
	}
}

// BenchmarkSeekPrefix10 is the shape of one Q2 probe: a prefix range of
// ten entries out of a 3 000-entry tree, drained.
func BenchmarkSeekPrefix10(b *testing.B) {
	const n = 3000
	tr := benchTree(b, n)
	prefixes := make([][]byte, n/10)
	for i := range prefixes {
		k := key(10 * i)
		prefixes[i] = k[:len(k)-1] // key-0000012 covers key-00000120..129
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := tr.SeekPrefix(prefixes[i%len(prefixes)])
		if err != nil {
			b.Fatal(err)
		}
		got := 0
		for ; it.Valid(); it.Next() {
			sinkRID = it.RID()
			got++
		}
		if got != 10 || it.Err() != nil {
			b.Fatalf("prefix %q: %d entries (err %v)", prefixes[i%len(prefixes)], got, it.Err())
		}
	}
}

// benchInsert inserts keys order[0..b.N) into an empty tree, splits
// included; the tree grows with b.N, so compare runs at one -benchtime.
func benchInsert(b *testing.B, order []int) {
	keys := make([][]byte, len(order))
	for i, k := range order {
		keys[i] = key(k)
	}
	tr, err := New(storage.NewBufferPool(storage.NewDisk(benchPageSize), int64(benchPageSize)*int64(len(keys)/64+64)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, k := range keys {
		if err := tr.Insert(k, storage.RID{Page: storage.PageID(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertRandom(b *testing.B) {
	benchInsert(b, rand.New(rand.NewSource(1)).Perm(b.N))
}

func BenchmarkInsertSequential(b *testing.B) {
	order := make([]int, b.N)
	for i := range order {
		order[i] = i
	}
	benchInsert(b, order)
}
