package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/storage"
)

// Check verifies the tree's structure, which no scan sees: a wrong
// separator leaves every key in key order on the leaf chain and only
// sends a Get or an Insert down the wrong path. From the root down it
// holds every node to its fence keys [lo, hi), open at the root and
// along a level's edges:
//
//   - the node's page is well formed: directory below the heap, every
//     entry inside the page, the live count the entries' bytes;
//   - its keys ascend, and lie in [lo, hi);
//   - its stored prefix, which every key begins with, is the longest
//     common prefix of lo and hi;
//   - its leaves lie at one depth and are of one kind;
//   - the leaf chain visits the leaves in the order the descent reaches
//     them, and ends after the last.
//
// It returns nil for a sound tree, a rootless one included, and an
// error naming the first fault. Like Pages it holds the pages of one
// root-to-node path pinned.
func (t *BTree) Check() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == storage.InvalidPageID {
		if t.size != 0 {
			return fmt.Errorf("btree: rootless tree counts %d entries", t.size)
		}
		return nil
	}
	c := checker{t: t, depth: -1}
	if err := c.walk(t.root, nil, nil, 0); err != nil {
		return err
	}
	return c.chain()
}

// PrefixLen returns the length of the prefix the node page holds: the
// bytes every key on it shares with its fences, 0 at the root and along
// a level's edges. For tests that compare raw index pages, to show the
// pages they compare store prefixes at all.
func PrefixLen(page []byte) int { return node(page).prefixLen() }

// maxDepth bounds Check's descent, so that a cycle of child links ends:
// a tree of three-entry nodes this deep would hold 3^64 keys.
const maxDepth = 64

// checker is Check's state: the leaves in descent order, their depth
// and their kind.
type checker struct {
	t      *BTree
	leaves []storage.PageID
	depth  int
	kind   byte
}

func (c *checker) walk(id storage.PageID, lo, hi []byte, depth int) error {
	if depth > maxDepth {
		return fmt.Errorf("btree: page %d is %d levels below the root", id, depth)
	}
	buf, err := c.t.pool.Fetch(id, storage.CatIndex)
	if err != nil {
		return err
	}
	defer c.t.pool.Unpin(id, false)
	n := node(buf)
	if err := n.check(lo, hi); err != nil {
		return fmt.Errorf("btree: page %d: %w", id, err)
	}
	if n.leaf() {
		if c.depth < 0 {
			c.depth, c.kind = depth, n[0]
		}
		if depth != c.depth || n[0] != c.kind {
			return fmt.Errorf("btree: leaf %d of kind %d at depth %d, the first of kind %d at %d", id, n[0], depth, c.kind, c.depth)
		}
		c.leaves = append(c.leaves, id)
		return nil
	}
	cnt := n.count()
	if cnt == 0 {
		return fmt.Errorf("btree: inner page %d holds no separator", id)
	}
	for i := 0; i <= cnt; i++ {
		clo, chi := lo, hi
		if i > 0 {
			clo = n.appendKey(nil, i-1)
		}
		if i < cnt {
			chi = n.appendKey(nil, i)
		}
		if err := c.walk(n.child(i), clo, chi, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// chain follows the leaf links from the first leaf the descent reached.
func (c *checker) chain() error {
	id := c.leaves[0]
	for i := range c.leaves {
		if id != c.leaves[i] {
			return fmt.Errorf("btree: leaf chain reaches page %d as leaf %d, the descent page %d", id, i, c.leaves[i])
		}
		buf, err := c.t.pool.Fetch(id, storage.CatIndex)
		if err != nil {
			return err
		}
		id = node(buf).link()
		c.t.pool.Unpin(c.leaves[i], false)
	}
	if id != storage.InvalidPageID {
		return fmt.Errorf("btree: leaf chain runs on to page %d past the last of %d leaves", id, len(c.leaves))
	}
	return nil
}

// check holds one node to its layout and to its fences lo and hi.
func (n node) check(lo, hi []byte) error {
	if n[0] > kindKeyLeaf {
		return fmt.Errorf("kind %d", n[0])
	}
	cnt, heapStart := n.count(), len(n)-n.heap()
	if dirEnd := n.dir() + slotSize*cnt; dirEnd > heapStart || heapStart > len(n) {
		return fmt.Errorf("%d entries: directory to %d, heap from %d", cnt, dirEnd, heapStart)
	}
	live := 0
	for i := 0; i < cnt; i++ {
		off := n.off(i)
		if off < heapStart || off >= len(n) {
			return fmt.Errorf("entry %d at offset %d, heap [%d, %d)", i, off, heapStart, len(n))
		}
		kl, w := binary.Uvarint(n[off:])
		if w <= 0 || kl > uint64(len(n)) {
			return fmt.Errorf("entry %d: no key length", i)
		}
		end := off + w + int(kl)
		switch n[0] {
		case kindInner:
			end += childSize
		case kindLeaf:
			if end >= len(n) {
				return fmt.Errorf("entry %d runs past the page", i)
			}
			end += ridLen(n[end])
		}
		if end > len(n) {
			return fmt.Errorf("entry %d runs past the page", i)
		}
		live += end - off
	}
	if live != n.live() {
		return fmt.Errorf("live %d, entries hold %d", n.live(), live)
	}
	if p, want := n.prefix(), lo[:commonPrefix(lo, hi)]; !bytes.Equal(p, want) {
		return fmt.Errorf("prefix %x, the fences %x and %x share %x", p, lo, hi, want)
	}
	for i := 1; i < cnt; i++ {
		if bytes.Compare(n.suffix(i-1), n.suffix(i)) >= 0 {
			return fmt.Errorf("key %d (%x) not above key %d (%x)", i, n.appendKey(nil, i), i-1, n.appendKey(nil, i-1))
		}
	}
	if cnt > 0 && lo != nil && n.compare(0, lo) < 0 {
		return fmt.Errorf("first key %x below the low fence %x", n.appendKey(nil, 0), lo)
	}
	if cnt > 0 && hi != nil && n.compare(cnt-1, hi) >= 0 {
		return fmt.Errorf("last key %x not below the high fence %x", n.appendKey(nil, cnt-1), hi)
	}
	return nil
}
