package btree

import "repro/internal/storage"

// LeafUse returns what the leaves of t hold: how many there are, their
// entries, and the heap, directory and prefix bytes those take.
func LeafUse(t *BTree) (leaves, entries, bytes int, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, n, _, err := t.descend(nil)
	for err == nil {
		leaves++
		entries += n.count()
		bytes += n.live() + slotSize*n.count() + n.prefixLen()
		next := n.link()
		t.pool.Unpin(id, false)
		if next == storage.InvalidPageID {
			break
		}
		var buf []byte
		if buf, err = t.pool.Fetch(next, storage.CatIndex); err == nil {
			id, n = next, node(buf)
		}
	}
	return leaves, entries, bytes, err
}
