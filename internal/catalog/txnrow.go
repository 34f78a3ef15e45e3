// Transaction-aware row mutators. These add to the undo-logged
// mutators MVCC bookkeeping: first-updater-wins conflict checks
// before any physical change, a version-chain entry (plus its pop as
// an undo action) after each one, and unique-key checks that interpret
// the physical index through the version chains — a key owned by an
// uncommitted writer is a write-write conflict, not a violation, and a
// key that is physically absent but would reappear if an uncommitted
// delete rolled back conflicts too.
package catalog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/btree"
	"repro/internal/mvcc"
	"repro/internal/storage"
	"repro/internal/types"
)

// decodeRow decodes a record of t — a heap record or a version-chain
// pre-image — into a full row, NULL-padded if the schema has grown
// since it was written.
func (t *Table) decodeRow(rec []byte) ([]types.Value, error) {
	row, err := types.DecodeRow(rec)
	if err != nil {
		return nil, err
	}
	for len(row) < len(t.Columns) {
		row = append(row, types.Null())
	}
	return row, nil
}

// shadowedUniqueKey reports whether key is carried by the pre-image of
// an uncommitted foreign write: the key is physically gone from the
// index, but a rollback of that writer would bring it back. Inserting
// it now must therefore conflict rather than race the outcome.
func (t *Table) shadowedUniqueKey(tx *mvcc.Txn, ix *Index, key []byte) (bool, error) {
	var derr error
	found := false
	t.Vers.UncommittedPreImages(func(rid storage.RID, writer *mvcc.Txn, pre []byte) bool {
		if writer == tx {
			return true // our own delete of this key is ours to overwrite
		}
		row, err := t.decodeRow(pre)
		if err != nil {
			derr = err
			return false
		}
		if bytes.Equal(ix.KeyFor(row, rid), key) {
			found = true
			return false
		}
		return true
	})
	return found, derr
}

// checkUnique classifies a prospective insert of key into the unique
// index ix for tx (nil: autocommit): nil (free), ErrWriteConflict (an
// uncommitted foreign write owns or shadows the key), or a violation
// error.
func (t *Table) checkUnique(tx *mvcc.Txn, ix *Index, key []byte) error {
	var rid storage.RID
	var found bool
	var err error
	if !ix.Built() {
		rid, found, err = t.pageHolder(ix, key, storage.RID{})
	} else if rid, err = ix.Tree.Get(key); err == nil {
		found = true
	} else if errors.Is(err, btree.ErrKeyNotFound) {
		err = nil
	}
	switch {
	case err != nil:
		return err
	case found:
		return t.duplicate(tx, ix, rid)
	case tx == nil:
		return nil
	}
	shadowed, err := t.shadowedUniqueKey(tx, ix, key)
	if err != nil {
		return err
	}
	if shadowed {
		return fmt.Errorf("catalog: %s: unique key shadowed by uncommitted delete: %w", t.Name, mvcc.ErrWriteConflict)
	}
	return nil
}

// duplicate classifies, for tx (nil: autocommit), a key of the unique
// index ix that the row at rid holds: a conflict when an uncommitted
// foreign write owns that row, a violation otherwise.
func (t *Table) duplicate(tx *mvcc.Txn, ix *Index, rid storage.RID) error {
	if tx != nil {
		if w, ok := t.Vers.NewestWriter(rid); ok && w != tx && !w.Committed() {
			return fmt.Errorf("catalog: %s: unique key held by uncommitted transaction: %w", t.Name, mvcc.ErrWriteConflict)
		}
	}
	return fmt.Errorf("catalog: %s: unique index %s violated", t.Name, ix.Name)
}

// pageHolder is the rootless unique index ix's lookup: the live record
// of the heap's page, other than the one at self, whose key is key.
func (t *Table) pageHolder(ix *Index, key []byte, self storage.RID) (holder storage.RID, found bool, err error) {
	page, _, ok := t.Heap.OnePage()
	if !ok {
		return holder, false, nil // an empty heap
	}
	width := len(t.Columns)
	mask := make([]bool, width)
	for _, c := range ix.Cols {
		mask[c] = true
	}
	var row []types.Value
	var kb []byte
	_, err = t.Heap.ScanPage(page, func(rid storage.RID, rec []byte) (bool, error) {
		var err error
		if row, _, _, err = types.DecodeRowPartial(row, rec, mask, width); err != nil {
			return false, err
		}
		kb = ix.AppendKey(kb[:0], row, rid)
		if rid != self && bytes.Equal(kb, key) {
			holder, found = rid, true
		}
		return !found, nil
	})
	return holder, found, err
}

// InsertRowsTxn is one INSERT statement's rows on behalf of tx (nil:
// autocommit), returning how many went in; it normalizes the rows in
// place. Inserts never hit first-updater-wins (the heap assigns a slot
// no uncommitted chain refers to, thanks to the slot pin); only unique
// keys can collide with concurrent work.
func (t *Table) InsertRowsTxn(tx *mvcc.Txn, rows [][]types.Value, u *UndoLog) (int64, error) {
	enc := make([]byte, 0, 256) // the page and the WAL record copy it
	for i, row := range rows {
		if _, err := t.insertRow(tx, row, u, &enc); err != nil {
			return int64(i), err
		}
	}
	return int64(len(rows)), nil
}

// DeleteRowsTxn is one DELETE statement's matched rows (rids, with
// their current contents) on behalf of tx (nil: autocommit), returning
// how many went.
func (t *Table) DeleteRowsTxn(tx *mvcc.Txn, rids []storage.RID, rows [][]types.Value, u *UndoLog) (int64, error) {
	for i, rid := range rids {
		if err := t.deleteRow(tx, rid, rows[i], u); err != nil {
			return int64(i), err
		}
	}
	return int64(len(rids)), nil
}

// UpdateRowsDeferredTxn applies one UPDATE statement's whole row set on
// behalf of tx (nil: autocommit). It normalizes newRows in place and,
// on success, leaves in rids the rows' possibly relocated RIDs. All
// sub-steps are logged into u; on error the caller owns rolling u back.
//
// Unique checks are deferred to a final index-insert pass: every changed
// index entry is removed (and every heap row rewritten) before any new
// entry is inserted, so a statement like UPDATE t SET k = k+1 over a
// dense unique key succeeds whatever order the rows were gathered in. A
// duplicate in the deferred pass is a genuine violation, with an
// untouched row or between two updated rows.
//
// Under tx, every row passes first-updater-wins before the first
// physical change, changed unique keys are screened against the
// pre-images of uncommitted deletes, every heap rewrite records its
// pre-image (a relocation records the new RID as an uncommitted insert),
// and the deferred pass classifies duplicates through the chains.
//
// Each row costs one heap visit: the write hands back the bytes it
// replaced, and that one copy is the undo's restore, the version chain's
// pre-image and the lazy-upgrade test. Keys are built into two scratch
// buffers and compared encoded, for every index: normalization alone
// can change a key (a row that predates ALTER COLUMN TYPE). Only keys
// that change are copied out.
func (t *Table) UpdateRowsDeferredTxn(tx *mvcc.Txn, rids []storage.RID, oldRows, newRows [][]types.Value, u *UndoLog) error {
	if tx != nil {
		for _, rid := range rids {
			if err := t.Vers.CheckWrite(tx, rid); err != nil {
				return fmt.Errorf("catalog: %s: update %v: %w", t.Name, rid, err)
			}
		}
	}
	var oldBuf, newBuf [64]byte
	oldKey, newKey := oldBuf[:0], newBuf[:0]
	for i := range rids {
		nr, err := t.normalizeRow(newRows[i])
		if err != nil {
			return err
		}
		newRows[i] = nr
		if tx == nil {
			continue
		}
		// Shadowed-key screening for changed unique keys, before mutating.
		for _, ix := range t.Indexes {
			if !ix.Unique {
				continue
			}
			oldKey, newKey = ix.AppendKey(oldKey[:0], oldRows[i], rids[i]), ix.AppendKey(newKey[:0], nr, rids[i])
			if bytes.Equal(oldKey, newKey) {
				continue
			}
			shadowed, err := t.shadowedUniqueKey(tx, ix, newKey)
			if err != nil {
				return err
			}
			if shadowed {
				return fmt.Errorf("catalog: %s: unique key shadowed by uncommitted delete: %w", t.Name, mvcc.ErrWriteConflict)
			}
		}
	}
	if err := t.buildForUpdate(rids, newRows); err != nil {
		return err
	}
	rootless := t.rootless()
	var changes []indexWrite
	enc := make([]byte, 0, 256) // the page and the WAL record copy it
	for i, rid := range rids {
		nr := newRows[i]
		enc = types.EncodeRow(enc[:0], nr)
		newRID, pre, err := t.Heap.Update(rid, enc)
		if err != nil {
			return err
		}
		rids[i] = newRID
		u.push(func() error {
			if newRID == rid {
				// The page held pre before this statement, so the in-place
				// restore is guaranteed to fit after compaction.
				back, cur, err := t.Heap.Update(rid, pre)
				if err == nil && back != rid {
					err = fmt.Errorf("catalog: %s: undo relocated row %v to %v", t.Name, rid, back)
				}
				if err != nil || !rootless {
					return err
				}
				return t.rekey(rid, cur, pre)
			}
			// A relocation: never while rootless (buildForUpdate).
			if err := t.Heap.Reinsert(rid, pre); err != nil {
				return err
			}
			_, err := t.Heap.Delete(newRID)
			return err
		})
		// Lazy schema upgrade accounting: a write re-encodes the full
		// current-width row, so a row that predates the newest schema
		// migrates as a side effect — counted once the write stands, and
		// taken back if the statement or the transaction rolls back.
		if arity, n := binary.Uvarint(pre); n > 0 && int(arity) < len(t.Columns) {
			t.LazyUpgrades.Add(1)
			u.push(func() error { t.LazyUpgrades.Add(-1); return nil })
		}
		first := len(changes)
		for _, ix := range t.Indexes {
			oldKey, newKey = ix.AppendKey(oldKey[:0], oldRows[i], rid), ix.AppendKey(newKey[:0], nr, newRID)
			if newRID == rid && bytes.Equal(oldKey, newKey) {
				continue
			}
			both := append(append(make([]byte, 0, len(oldKey)+len(newKey)), oldKey...), newKey...)
			changes = append(changes, indexWrite{ix: ix, oldKey: both[:len(oldKey):len(oldKey)], newKey: both[len(oldKey):], rid: newRID})
		}
		if tx != nil {
			// The chain stays stable only if the row kept its slot and
			// every index key: then pre and the new bytes are found the
			// same way.
			t.Vers.RecordWrite(tx, rid, pre, newRID != rid || len(changes) > first)
			u.push(func() error { t.Vers.PopWrite(tx, rid); return nil })
			if newRID != rid {
				// Relocation: the new slot is an uncommitted insert; the old
				// slot's chain keeps serving the pre-image to older snapshots.
				t.Vers.RecordWrite(tx, newRID, nil, false)
				u.push(func() error { t.Vers.PopWrite(tx, newRID); return nil })
			}
		}
		for _, c := range changes[first:] {
			if !c.ix.Built() {
				continue
			}
			tree, key := c.ix.Tree, c.oldKey
			if err := tree.Delete(key); err != nil {
				return fmt.Errorf("catalog: %s: index %s delete: %w", t.Name, c.ix.Name, err)
			}
			u.push(func() error { return tree.Insert(key, rid) })
		}
	}
	return t.insertDeferred(tx, changes, u)
}

// buildForUpdate builds t's indexes before an UPDATE of the rows at
// rids to newRows when the statement might give a rootless table's heap
// its second page: when the rows' growth, all told, exceeds what the
// page has free, one of them might relocate. A build in the middle of
// the statement would find rows whose old keys it has let go and whose
// new keys wait for the deferred pass, two of them perhaps on one
// unique key for the moment; before it, the page holds a consistent
// table.
func (t *Table) buildForUpdate(rids []storage.RID, newRows [][]types.Value) error {
	if !t.rootless() {
		return nil
	}
	_, free, one := t.Heap.OnePage()
	if !one {
		return nil
	}
	lens := make([]int, len(rids))
	var enc []byte
	grow := 0
	for i := range rids {
		enc = types.EncodeRow(enc[:0], newRows[i])
		lens[i] = len(enc)
		grow += lens[i]
	}
	if grow <= free {
		return nil // the new rows fit beside the old ones: no page read
	}
	var r storage.HeapReader
	grow = 0
	for i, rid := range rids {
		old, err := r.Record(t.Heap, rid)
		if err != nil {
			r.Release()
			return err
		}
		grow += max(0, lens[i]-len(old))
	}
	r.Release()
	if grow <= free {
		return nil
	}
	return t.Build()
}

// VisibleVersions enumerates the snapshot-visible bytes of rids — the
// moved chains the statement captured via Vers.MovedRIDs() when it
// opened. A snapshot read combines it with a physical scan that skips
// exactly that set and resolves every other row where it finds it.
// Taking the capture instead of re-reading the store makes the
// statement immune to concurrent GC (a captured RID whose chain was
// collected meanwhile resolves to its heap bytes, which is the version
// such a chain left visible to every live snapshot). The bytes passed
// to fn are safe to retain.
func (t *Table) VisibleVersions(tx *mvcc.Txn, rids []storage.RID, fn func(rid storage.RID, rec []byte) error) error {
	for _, rid := range rids {
		cur, err := t.Heap.Get(rid)
		if err != nil && !errors.Is(err, storage.ErrSlotGone) {
			return err
		}
		rec, ok := t.Vers.Resolve(tx, rid, cur)
		if !ok {
			continue
		}
		if err := fn(rid, rec); err != nil {
			return err
		}
	}
	return nil
}
