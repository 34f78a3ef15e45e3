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

// decodePre decodes a version-chain pre-image into a full row.
func (t *Table) decodePre(pre []byte) ([]types.Value, error) {
	row, err := types.DecodeRow(pre)
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
		row, err := t.decodePre(pre)
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

// checkUniqueTxn classifies a prospective unique-key insert for tx:
// nil (free), ErrWriteConflict (an uncommitted foreign write owns or
// shadows the key), or a violation error.
func (t *Table) checkUniqueTxn(tx *mvcc.Txn, ix *Index, key []byte) error {
	if rid, err := ix.Tree.Get(key); err == nil {
		if w, ok := t.Vers.NewestWriter(rid); ok && w != tx && !w.Committed() {
			return fmt.Errorf("catalog: %s: unique key held by uncommitted transaction: %w", t.Name, mvcc.ErrWriteConflict)
		}
		return fmt.Errorf("catalog: %s: unique index %s violated", t.Name, ix.Name)
	} else if !errors.Is(err, btree.ErrKeyNotFound) {
		return err
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

// InsertRowsTxn is one INSERT statement's rows on behalf of tx (nil:
// autocommit), returning how many went in; it normalizes the rows in
// place. Inserts never hit first-updater-wins (the heap assigns a slot
// no uncommitted chain refers to, thanks to the slot pin); only unique
// keys can collide with concurrent work.
func (t *Table) InsertRowsTxn(tx *mvcc.Txn, rows [][]types.Value, u *UndoLog) (int64, error) {
	enc := make([]byte, 0, 256) // the page and the WAL record copy it
	for i, row := range rows {
		if _, err := t.insertRow(tx, row, u, i == len(rows)-1, &enc); err != nil {
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
		if err := t.deleteRow(tx, rid, rows[i], u, i == len(rids)-1); err != nil {
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
				back, _, err := t.Heap.Update(rid, pre)
				if err == nil && back != rid {
					err = fmt.Errorf("catalog: %s: undo relocated row %v to %v", t.Name, rid, back)
				}
				return err
			}
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
			tree, key := c.ix.Tree, c.oldKey
			if err := tree.Delete(key); err != nil {
				return fmt.Errorf("catalog: %s: index %s delete: %w", t.Name, c.ix.Name, err)
			}
			u.push(func() error { return tree.Insert(key, rid) })
		}
	}
	return t.insertDeferred(tx, changes, u)
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
