package btree

import (
	"fmt"

	"repro/internal/storage"
)

// This file holds the recovery side of the tree: page-level replay
// helpers the engine's redo pass calls, and the walkers that rebuild
// derived state (entry count) or enumerate pages for deferred drops.
// Replay operates on single pages through the buffer pool — the
// physiological contract: records name a page, application is logical
// within it.

// Pages returns every page of the tree (pre-order). Used by DROP to
// collect pages for commit-deferred freeing.
func (t *BTree) Pages() ([]storage.PageID, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []storage.PageID
	var walk func(id storage.PageID) error
	walk = func(id storage.PageID) error {
		buf, err := t.pool.Fetch(id, storage.CatIndex)
		if err != nil {
			return err
		}
		out = append(out, id)
		if n := node(buf); !n.leaf() {
			for i := 0; i <= n.count() && err == nil; i++ {
				err = walk(n.child(i))
			}
		}
		t.pool.Unpin(id, false)
		return err
	}
	if err := walk(t.root); err != nil {
		return nil, err
	}
	return out, nil
}

// RecountSize rebuilds the entry count by walking the leaf chain —
// derived state the log deliberately does not carry.
func (t *BTree) RecountSize() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur, leaf, _, err := t.descend(nil)
	if err != nil {
		return err
	}
	var n int64
	for {
		n += int64(leaf.count())
		next := leaf.link()
		t.pool.Unpin(cur, false)
		if next == storage.InvalidPageID {
			break
		}
		buf, err := t.pool.Fetch(next, storage.CatIndex)
		if err != nil {
			return err
		}
		cur, leaf = next, node(buf)
	}
	t.size = n
	return nil
}

// ReplayInit formats page as an empty leaf (redo of KBTreeInit).
func ReplayInit(pool *storage.BufferPool, page storage.PageID) error {
	buf, err := pool.Fetch(page, storage.CatIndex)
	if err != nil {
		return err
	}
	node(buf).init(true, storage.InvalidPageID)
	pool.Unpin(page, true)
	return nil
}

// replayLeaf pins page, finds key on it and, when its presence is what
// the record expects, applies fn at key's position — application is
// logical within the page, by the same node operations the live tree
// uses. The pageLSN skip guarantees the leaf is in the pre-record state.
func replayLeaf(pool *storage.BufferPool, page storage.PageID, op string, key []byte, present bool, fn func(n node, pos int) error) error {
	buf, err := pool.Fetch(page, storage.CatIndex)
	if err != nil {
		return err
	}
	pos, found := node(buf).search(key)
	switch {
	case found && !present:
		err = fmt.Errorf("btree: replay %s of existing key on page %d", op, page)
	case !found && present:
		err = fmt.Errorf("btree: replay %s of missing key on page %d", op, page)
	default:
		err = fn(buf, pos)
	}
	pool.Unpin(page, err == nil)
	return err
}

// ReplayInsert redoes a leaf insert of key→rid on page: the key must be
// absent and must fit.
func ReplayInsert(pool *storage.BufferPool, page storage.PageID, key []byte, rid storage.RID) error {
	return replayLeaf(pool, page, "insert", key, false, func(n node, pos int) error {
		if !n.fits(len(key)) {
			return fmt.Errorf("btree: replay insert overflows page %d", page)
		}
		var val [ridSize]byte
		putRID(val[:], rid)
		n.insert(pos, key, val[:])
		return nil
	})
}

// ReplayDelete redoes a leaf delete of key on page.
func ReplayDelete(pool *storage.BufferPool, page storage.PageID, key []byte) error {
	return replayLeaf(pool, page, "delete", key, true, func(n node, pos int) error {
		n.remove(pos)
		return nil
	})
}

// ReplayUpdate redoes a leaf RID repoint of key on page.
func ReplayUpdate(pool *storage.BufferPool, page storage.PageID, key []byte, rid storage.RID) error {
	return replayLeaf(pool, page, "update", key, true, func(n node, pos int) error {
		_, v := n.entry(pos)
		putRID(v, rid)
		return nil
	})
}

// ReplayImage redoes a full-page image (redo of KBTreeImage).
func ReplayImage(pool *storage.BufferPool, page storage.PageID, img []byte) error {
	buf, err := pool.Fetch(page, storage.CatIndex)
	if err != nil {
		return err
	}
	copy(buf, img)
	pool.Unpin(page, true)
	return nil
}
