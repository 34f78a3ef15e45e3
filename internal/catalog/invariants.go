package catalog

import (
	"fmt"

	"repro/internal/storage"
	"repro/internal/types"
)

// CheckInvariants verifies that every index is a sound tree and that
// the table's heap and every index describe the same set of rows:
//
//  1. every heap record decodes and is within the schema's arity;
//  2. every index passes btree.(*BTree).Check: keys within their
//     nodes' fences, prefixes the fences' common prefix, the leaf chain
//     in descent order — what a scan of the leaves cannot see;
//  3. every index entry's RID resolves to a live heap row whose key
//     bytes reproduce the entry's key exactly;
//  4. every heap row has exactly one entry in every index (checked by
//     entry count: heap rows = tree entries, with (3) pinning each
//     entry to a distinct live row);
//  5. a rootless index — no tree, its table's page answers for it —
//     has a heap of at most one page, and a rootless unique index's
//     keys are distinct among that page's live rows.
//  6. a heap page smaller than a full one is a quarter or a half of
//     one and its heap's only page, and each page's frame is as long
//     as the disk records the page (storage.HeapFile.CheckPages).
//
// It returns nil when the table is consistent and a descriptive error
// for the first violation found. The caller must hold at least the
// table read lock. Fault-injection tests call this after every failed
// statement to prove rollback restored the pre-statement state.
func (t *Table) CheckInvariants() error {
	rows := make(map[storage.RID][]types.Value)
	err := t.Heap.Scan(func(rid storage.RID, rec []byte) (bool, error) {
		row, err := types.DecodeRow(rec)
		if err != nil {
			return false, fmt.Errorf("catalog: %s: row %v undecodable: %v", t.Name, rid, err)
		}
		if len(row) > len(t.Columns) {
			return false, fmt.Errorf("catalog: %s: row %v has %d values for %d columns", t.Name, rid, len(row), len(t.Columns))
		}
		for len(row) < len(t.Columns) {
			row = append(row, types.Null())
		}
		rows[rid] = row
		return true, nil
	})
	if err != nil {
		return err
	}
	if n := t.Heap.NumRows(); int64(len(rows)) != n {
		return fmt.Errorf("catalog: %s: heap row counter %d but %d live records", t.Name, n, len(rows))
	}
	if err := t.Heap.CheckPages(); err != nil {
		return fmt.Errorf("catalog: %s: %w", t.Name, err)
	}
	for _, ix := range t.Indexes {
		if err := t.checkIndex(ix, rows); err != nil {
			return err
		}
	}
	return nil
}

// checkIndex holds ix to its tree's structure and to the table's live
// rows.
func (t *Table) checkIndex(ix *Index, rows map[storage.RID][]types.Value) error {
	if first := t.Indexes[0]; ix.Built() != first.Built() {
		return fmt.Errorf("catalog: %s: index %s built %v, index %s built %v", t.Name, ix.Name, ix.Built(), first.Name, first.Built())
	}
	if !ix.Built() {
		if n := t.Heap.NumPages(); n > 1 {
			return fmt.Errorf("catalog: %s: index %s has no tree on a heap of %d pages", t.Name, ix.Name, n)
		}
		if !ix.Unique {
			return nil
		}
		holders := make(map[string]storage.RID, len(rows))
		for rid, row := range rows {
			key := string(ix.KeyFor(row, rid))
			if other, dup := holders[key]; dup {
				return fmt.Errorf("catalog: %s: unique index %s holds key %x for rows %v and %v", t.Name, ix.Name, key, other, rid)
			}
			holders[key] = rid
		}
		return nil
	}
	if err := ix.Tree.Check(); err != nil {
		return fmt.Errorf("catalog: %s: index %s: %w", t.Name, ix.Name, err)
	}
	if n := ix.Tree.Len(); n != int64(len(rows)) {
		return fmt.Errorf("catalog: %s: index %s has %d entries for %d heap rows", t.Name, ix.Name, n, len(rows))
	}
	it, err := ix.Tree.Scan()
	if err != nil {
		return err
	}
	defer it.Release()
	for ; it.Valid(); it.Next() {
		rid := it.RID()
		row, ok := rows[rid]
		if !ok {
			return fmt.Errorf("catalog: %s: index %s entry %x points at dead row %v", t.Name, ix.Name, it.Key(), rid)
		}
		if want := ix.KeyFor(row, rid); string(want) != string(it.Key()) {
			return fmt.Errorf("catalog: %s: index %s entry %x for row %v should be %x", t.Name, ix.Name, it.Key(), rid, want)
		}
	}
	return it.Err()
}

// SnapshotRows returns every visible row of the table keyed by RID
// (fault-injection tests diff this against a pre-statement snapshot).
// The caller must hold at least the table read lock.
func (t *Table) SnapshotRows() (map[storage.RID][]types.Value, error) {
	rows := make(map[storage.RID][]types.Value)
	err := t.Heap.Scan(func(rid storage.RID, rec []byte) (bool, error) {
		row, err := types.DecodeRow(rec)
		if err != nil {
			return false, err
		}
		rows[rid] = row
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
