package btree_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/btree"
	"repro/internal/testbed"
)

// What TestIndexEntryBytes's bed (Basic layout, 4 tenants × 64 rows)
// holds in its indexes: 32 pages, each index one leaf at this size, and
// 8 192 leaf entries in basicBedLeafBytes.
const (
	basicBedIndexPages = 32
	basicBedLeafBytes  = 106_693
)

// TestIndexEntryBytes holds the leaf format on a small Basic CRM bed: an
// entry of a non-unique index is its key's length, the key (ending in
// its RID) and a directory slot; a unique index's entry adds the RID's
// compact form and nothing else. The bed's index pages and leaf bytes
// must not grow.
func TestIndexEntryBytes(t *testing.T) {
	bed, err := testbed.Setup(testbed.Config{Tenants: 4, RowsPerTable: 64})
	if err != nil {
		t.Fatal(err)
	}
	cat := bed.DB.Catalog()
	pages, leafBytes, seen := 0, 0, map[bool]bool{}
	for _, name := range cat.TableNames() {
		tab, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range tab.Indexes {
			want, entries := 0, 0
			it, err := ix.Tree.Scan()
			if err != nil {
				t.Fatal(err)
			}
			for ; it.Valid(); it.Next() {
				k := it.Key()
				want += binary.PutUvarint(make([]byte, binary.MaxVarintLen64), uint64(len(k))) + len(k) + 2
				if ix.Unique {
					want += len(btree.AppendRID(nil, it.RID()))
				}
				entries++
			}
			it.Release()
			_, n, got, err := btree.LeafUse(ix.Tree)
			if err != nil || it.Err() != nil {
				t.Fatal(err, it.Err())
			}
			if n != entries || got != want {
				t.Errorf("%s.%s (unique %v): %d entries in %d bytes, want %d in %d", name, ix.Name, ix.Unique, n, got, entries, want)
			}
			ids, err := ix.Tree.Pages()
			if err != nil {
				t.Fatal(err)
			}
			pages += len(ids)
			leafBytes += got
			seen[ix.Unique] = seen[ix.Unique] || entries > 0
		}
	}
	if !seen[false] || !seen[true] {
		t.Errorf("the bed needs entries in both kinds of index: %v", seen)
	}
	if pages > basicBedIndexPages || leafBytes > basicBedLeafBytes {
		t.Errorf("the bed's indexes take %d pages and %d leaf bytes, at most %d and %d recorded",
			pages, leafBytes, basicBedIndexPages, basicBedLeafBytes)
	}
}
