package exec

import (
	"bytes"
	"slices"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/types"
)

// pageRange is an index path answered from a heap of one page (see
// announcePath): the page's live records whose key under the path's
// index lies in [lo, hi) — the entries a seek of the index would find —
// copied out under one pin and put in key order. Each entry carries its
// record, so the path decodes its rows with no second fetch, through
// the snapshot rules the index path applies to the records it fetches.
type pageRange struct {
	ents []pageEntry
	keys []byte // the entries' keys, back to back
	recs []byte // their records, back to back

	row  []types.Value // index-column decode scratch
	ix   *catalog.Index
	mask []bool // ix's columns among width
}

type pageEntry struct {
	rid      storage.RID
	key, rec []byte
}

// load fills p from page, t's only one (InvalidPageID: t's heap is
// empty), for the range [lo, hi) of ix — the B+tree's own criterion,
// nil bounds open. The buffers are p's from load to load.
func (p *pageRange) load(t *catalog.Table, ix *catalog.Index, page storage.PageID, lo, hi []byte) error {
	p.ents, p.keys, p.recs = p.ents[:0], p.keys[:0], p.recs[:0]
	if page == storage.InvalidPageID {
		return nil
	}
	width := len(t.Columns)
	if p.ix != ix || len(p.mask) != width {
		p.ix, p.mask = ix, needMask(ix.Cols, width)
	}
	_, err := t.Heap.ScanPage(page, func(rid storage.RID, rec []byte) (bool, error) {
		var err error
		if p.row, _, _, err = types.DecodeRowPartial(p.row, rec, p.mask, width); err != nil {
			return false, err
		}
		k := len(p.keys)
		p.keys = ix.AppendKey(p.keys, p.row, rid)
		key := p.keys[k:len(p.keys):len(p.keys)]
		if lo != nil && bytes.Compare(key, lo) < 0 || hi != nil && bytes.Compare(key, hi) >= 0 {
			p.keys = p.keys[:k]
			return true, nil
		}
		r := len(p.recs)
		p.recs = append(p.recs, rec...)
		p.ents = append(p.ents, pageEntry{rid: rid, key: key, rec: p.recs[r:len(p.recs):len(p.recs)]})
		return true, nil
	})
	// Keys are unique in the index (a non-unique one appends the RID), so
	// key order is the index's order exactly.
	slices.SortFunc(p.ents, func(a, b pageEntry) int { return bytes.Compare(a.key, b.key) })
	return err
}
