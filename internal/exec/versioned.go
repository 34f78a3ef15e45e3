// Snapshot reads. The physical heap and indexes always hold the newest
// version of every row; a transaction that must not see uncommitted or
// too-new writes reads through the table's version chains instead. The
// writer sorts every chain into one of two kinds (mvcc.VersionStore):
//
//   - stable: every version of the row sits at the same RID under the
//     same index keys, so whichever way a scan reaches the row — heap
//     page or index entry — it resolves the row's own chain there and
//     then, on the bytes under the page pin, and moves on. One visit,
//     nothing captured, so GC emptying the chain before or after the
//     visit changes nothing: a collectable chain left the heap bytes
//     visible to every live snapshot.
//   - moved: some version was deleted, relocated or re-keyed, so the
//     heap or the index may not lead to the version this snapshot sees.
//     The statement captures the moved set ONCE when it opens, skips
//     exactly those RIDs physically and serves them from the capture,
//     re-applying the access path's [lo, hi) key range to the visible
//     version — the B+tree iterator's own criterion. One captured set
//     partitions the table whatever GC does meanwhile; a live probe for
//     the skip could hand a row to both halves, or to neither.
//
// A statement therefore pays for the rows it touches plus the table's
// in-flight deletes and key changes, not for every chain other
// transactions hold on the shared table; with no chains at all it never
// enters this file.
package exec

import (
	"bytes"

	"repro/internal/catalog"
	"repro/internal/mvcc"
	"repro/internal/storage"
	"repro/internal/types"
)

// snapshot is one statement's view of one table under a transaction:
// every access site (seq scan, index scan, index-NL probe, the branches
// of gatherMatches, and a one-page read standing in for an index scan
// or gather) reads through it and nothing else. A nil *snapshot is the
// plain path.
type snapshot struct {
	t     *catalog.Table
	tx    *mvcc.Txn
	skip  map[storage.RID]struct{} // moved chains captured at open
	moved []movedRow               // their visible versions, RID order
}

// movedRow is the version of one captured moved chain that the
// statement sees. rec is safe to retain. key is set when the snapshot
// was opened for an index — the row's key there, from a decode of the
// index columns alone; row is the full decode, made on the first range
// hit (a point probe matches few moved rows, an index-NL join probes
// the same ones many times).
type movedRow struct {
	rid storage.RID
	rec []byte
	key []byte
	row []types.Value
}

// openSnapshot captures t's moved chains for the statement ctx runs, or
// returns nil when the statement reads t plainly: autocommit, or no
// transaction has in-flight or uncollected writes on t — no chain can
// appear while the statement holds its latch. ix is the index the
// access path probes (nil for a heap scan).
func openSnapshot(ctx *Context, t *catalog.Table, ix *catalog.Index) (*snapshot, error) {
	if ctx == nil || ctx.Txn == nil || t.Vers == nil || !t.Vers.HasVersions() {
		return nil, nil
	}
	s := &snapshot{t: t, tx: ctx.Txn}
	rids := t.Vers.MovedRIDs()
	if len(rids) == 0 {
		return s, nil
	}
	s.skip = make(map[storage.RID]struct{}, len(rids))
	for _, rid := range rids {
		s.skip[rid] = struct{}{}
	}
	var keyCols []bool
	var keyRow []types.Value
	if ix != nil {
		keyCols = needMask(ix.Cols, len(t.Columns))
	}
	err := t.VisibleVersions(ctx.Txn, rids, func(rid storage.RID, rec []byte) error {
		m := movedRow{rid: rid, rec: rec}
		if ix != nil {
			var err error
			if keyRow, _, _, err = types.DecodeRowPartial(keyRow, rec, keyCols, len(t.Columns)); err != nil {
				return err
			}
			m.key = ix.KeyFor(keyRow, rid)
		}
		s.moved = append(s.moved, m)
		return nil
	})
	return s, err
}

// visible resolves the row a scan reached at rid, whose heap bytes are
// cur: the bytes this statement sees there, or false when it sees none
// (the row is newer than the snapshot, or a captured moved chain that
// s.moved serves instead). The result may alias cur.
func (s *snapshot) visible(rid storage.RID, cur []byte) ([]byte, bool) {
	if _, moved := s.skip[rid]; moved {
		return nil, false
	}
	return s.t.Vers.Resolve(s.tx, rid, cur)
}

// fetch is the row an index entry led to, decoded into dst (only the
// columns marked in need; nil: all) under the page pin, as this
// statement sees it. ok is false when visible says so; row is then dst,
// for reuse.
func (s *snapshot) fetch(t *catalog.Table, dst []types.Value, rid storage.RID, need []bool) (row []types.Value, decoded, skipped int, ok bool, err error) {
	row = dst
	err = t.Heap.View(rid, func(rec []byte) error {
		var derr error
		row, decoded, skipped, ok, derr = s.decode(t, dst, rid, rec, need)
		return derr
	})
	return row, decoded, skipped, ok && err == nil, err
}

// decode is fetch for a record the caller already holds, rec, the
// bytes at rid (a one-page read's copy, see pageRange).
func (s *snapshot) decode(t *catalog.Table, dst []types.Value, rid storage.RID, rec []byte, need []bool) (row []types.Value, decoded, skipped int, ok bool, err error) {
	if s != nil {
		if rec, ok = s.visible(rid, rec); !ok {
			return dst, 0, 0, false, nil
		}
	}
	row, decoded, skipped, err = types.DecodeRowPartial(dst, rec, need, len(t.Columns))
	return row, decoded, skipped, err == nil, err
}

// inRange calls fn with every moved row whose key under the snapshot's
// index satisfies the B+tree SeekRange criterion lo <= key < hi (nil
// bounds are open). The row is decoded in full and stays valid for the
// statement.
func (s *snapshot) inRange(lo, hi []byte, fn func(rid storage.RID, row []types.Value) error) error {
	if s == nil {
		return nil
	}
	for i := range s.moved {
		m := &s.moved[i]
		if lo != nil && bytes.Compare(m.key, lo) < 0 {
			continue
		}
		if hi != nil && bytes.Compare(m.key, hi) >= 0 {
			continue
		}
		if m.row == nil {
			var err error
			if m.row, err = types.DecodeRowInto(nil, m.rec, len(s.t.Columns)); err != nil {
				return err
			}
		}
		if err := fn(m.rid, m.row); err != nil {
			return err
		}
	}
	return nil
}
