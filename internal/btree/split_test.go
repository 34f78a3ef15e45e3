package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/storage"
)

// checkTree holds a tree to its model after a batch of operations: the
// tree passes Check, a full scan returns the model's keys in order with
// their RIDs, Get finds every key, and the pages Pages lists are the
// disk's pages, each once, whose leaves, in the order listed, are the
// leaf chain.
func checkTree(tr *BTree, disk *storage.Disk, model map[string]storage.RID) error {
	if err := tr.Check(); err != nil {
		return err
	}
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	it, err := tr.Scan()
	if err != nil {
		return err
	}
	i := 0
	for ; it.Valid(); it.Next() {
		if i >= len(keys) || string(it.Key()) != keys[i] || it.RID() != model[keys[i]] {
			it.Release()
			return fmt.Errorf("scan entry %d is %x → %v", i, it.Key(), it.RID())
		}
		i++
	}
	it.Release()
	if err := it.Err(); err != nil || i != len(keys) || tr.Len() != int64(len(keys)) {
		return fmt.Errorf("scan saw %d of %d keys, Len %d (%v)", i, len(keys), tr.Len(), err)
	}
	for _, k := range keys {
		if rid, err := tr.Get([]byte(k)); err != nil || rid != model[k] {
			return fmt.Errorf("Get(%x) = %v, %v; want %v", k, rid, err, model[k])
		}
	}
	ids, err := tr.Pages()
	if err != nil {
		return err
	}
	if len(ids) != disk.NumPages() {
		return fmt.Errorf("Pages lists %d pages, the disk holds %d", len(ids), disk.NumPages())
	}
	seen := map[storage.PageID]bool{}
	var leaves []storage.PageID
	for _, id := range ids {
		if seen[id] {
			return fmt.Errorf("page %d listed twice", id)
		}
		seen[id] = true
		buf, err := tr.pool.Fetch(id, storage.CatIndex)
		if err != nil {
			return err
		}
		if node(buf).leaf() {
			leaves = append(leaves, id)
		}
		tr.pool.Unpin(id, false)
	}
	id, n, _, err := tr.descend(nil)
	for i := 0; err == nil; i++ {
		if i >= len(leaves) || id != leaves[i] {
			tr.pool.Unpin(id, false)
			return fmt.Errorf("leaf chain reaches page %d at leaf %d; Pages lists %v", id, i, leaves)
		}
		next := n.link()
		tr.pool.Unpin(id, false)
		if next == storage.InvalidPageID {
			if i+1 != len(leaves) {
				return fmt.Errorf("leaf chain ends after %d of %d leaves", i+1, len(leaves))
			}
			return nil
		}
		var buf []byte
		if buf, err = tr.pool.Fetch(next, storage.CatIndex); err == nil {
			id, n = next, node(buf)
		}
	}
	return err
}

// treeInsertRunsSeeds is FuzzTreeInsertRuns's seed corpus.
func treeInsertRunsSeeds() (ridInKey []bool, ops [][]byte) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		b := make([]byte, 400+400*i)
		r.Read(b)
		ridInKey, ops = append(ridInKey, i%2 == 1), append(ops, b)
	}
	ridInKey = append(ridInKey, false, true, true)
	ops = append(ops, bytes.Repeat([]byte{0, 1, 1, 4, 1, 2, 0, 7}, 200),
		bytes.Repeat([]byte{1, 0, 0, 2, 1, 3, 1, 4, 5, 6, 3, 9}, 150),
		bytes.Repeat([]byte{0, 5, 0, 7, 1, 5, 0, 9, 0, 2, 1, 1}, 200))
	// Mostly keys among the runs' in random order, with deletes and
	// equal-value inserts between them.
	for _, rik := range []bool{false, true} {
		var b []byte
		for len(b) < 2000 {
			switch r.Intn(4) {
			case 0:
				b = append(b, 3, byte(r.Intn(256)))
			case 1:
				b = append(b, 0, 5, 0, byte(r.Intn(64)))
			default:
				b = append(b, randomOrderOp, byte(r.Intn(5)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(64)))
			}
		}
		ridInKey, ops = append(ridInKey, rik), append(ops, b)
	}
	return ridInKey, ops
}

// randomOrderOp is the least operation byte of FuzzTreeInsertRuns that
// inserts a key among a run's in random order; a byte below it selects
// one of the other operations by its value mod 4.
const randomOrderOp = 0xc0

// FuzzTreeInsertRuns drives a tree over a buffer pool, whose splits and
// sheds take their fence keys from real root-to-leaf paths, through
// interleaved ascending runs under a few shared prefixes, keys under
// those prefixes in random order, random keys and deletes, on small
// pages of either leaf kind, and after every batch of 32 operations
// holds it to its model with checkTree, Check included. The last prefix
// takes no sequence number: on a tree whose keys end in their RIDs its
// keys are many equal values, which differ only in their RIDs, so that
// leaves' fences share the RIDs' leading bytes and a prefix reaches
// into the RID form. It sorts between the others, so that its leaves
// have both fences.
func FuzzTreeInsertRuns(f *testing.F) {
	ridInKey, ops := treeInsertRunsSeeds()
	for i := range ops {
		f.Add(ridInKey[i], ops[i])
	}
	f.Fuzz(func(t *testing.T, ridInKey bool, ops []byte) { treeInsertRuns(t, ridInKey, ops) })
}

// TestTreeInsertRunsShedBothWays runs FuzzTreeInsertRuns's seeds and
// counts their sheds: on either leaf kind they shed into a left sibling
// and into a right one, so that the fuzz step reaches both directions.
func TestTreeInsertRunsShedBothWays(t *testing.T) {
	ridInKey, ops := treeInsertRunsSeeds()
	var left, right [2]int
	for i := range ops {
		l, r := treeInsertRuns(t, ridInKey[i], ops[i])
		k := 0
		if ridInKey[i] {
			k = 1
		}
		left[k] += l
		right[k] += r
	}
	t.Logf("sheds left %v, right %v (unique leaves, leaves whose keys end in their RIDs)", left, right)
	if min(left[0], left[1], right[0], right[1]) == 0 {
		t.Errorf("sheds left %v, right %v: want both directions on both leaf kinds", left, right)
	}
}

// treeInsertRuns is FuzzTreeInsertRuns's body. It returns the sheds
// the operations made into a left and into a right sibling: an insert
// that logs three page images and allocates no page shed, into the
// left when the first image, the sibling's, links to the second, the
// leaf's.
func treeInsertRuns(t *testing.T, ridInKey bool, ops []byte) (left, right int) {
	prefixes := []string{"t1/c1/", "t1/c2/", "t1/c3/", "t2/c1/", "t2/", "t1/d/"}
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	disk := storage.NewDisk(256)
	lg := &recLogger{}
	tr, err := NewLogged(storage.NewBufferPool(disk, 256*4096), lg, ridInKey)
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]storage.RID{}
	var keys []string // the model's keys, for deletes to pick from
	var seq [6]uint32
	for op := 1; len(ops) > 0; op++ {
		var k []byte
		op := next()
		if op < randomOrderOp {
			op %= 4
		}
		switch op {
		case 0, 1:
			g := next() % uint8(len(prefixes))
			seq[g] += 1 + uint32(next()%4)
			if k = []byte(prefixes[g]); int(g) < len(prefixes)-1 {
				k = binary.BigEndian.AppendUint32(k, seq[g])
			}
		case 2:
			k = make([]byte, next()%12)
			for i := range k {
				k[i] = 't' - next()%4
			}
		case 3:
			if len(keys) > 0 {
				i := int(next()) % len(keys)
				if err := tr.Delete([]byte(keys[i])); err != nil {
					t.Fatalf("delete %x: %v", keys[i], err)
				}
				delete(model, keys[i])
				keys[i] = keys[len(keys)-1]
				keys = keys[:len(keys)-1]
			}
		default: // among a run's keys, in no order: inserts land inside full leaves
			g := next() % uint8(len(prefixes)-1)
			k = binary.BigEndian.AppendUint32([]byte(prefixes[g]), uint32(next())<<2|uint32(next()%4))
		}
		if k != nil {
			rid := storage.RID{Page: storage.PageID(op), Slot: uint16(next() % 64)}
			if ridInKey {
				k = AppendRID(k, rid)
			}
			lg.recs = lg.recs[:0]
			err := tr.Insert(k, rid)
			if _, dup := model[string(k)]; dup != (err == ErrDuplicateKey) || !dup && err != nil {
				t.Fatalf("insert %x: %v (in the model: %v)", k, err, dup)
			}
			if err == nil {
				model[string(k)] = rid
				keys = append(keys, string(k))
			}
			if r := lg.recs; len(r) == 3 && r[0].kind == "image" && r[1].kind == "image" && r[2].kind == "image" {
				if node(r[0].img).link() == r[1].page {
					left++
				} else {
					right++
				}
			}
		}
		if op%32 == 0 || len(ops) == 0 {
			if err := checkTree(tr, disk, model); err != nil {
				t.Fatalf("after %d operations: %v", op, err)
			}
		}
	}
	return left, right
}

// leafFill loads keys into a fresh tree on pageSize pages and returns
// the tree, its pages and the share of its leaves' bytes in use.
func leafFill(t *testing.T, pageSize int, keys [][]byte) (tr *BTree, pages int, fill float64) {
	t.Helper()
	tr, err := New(newPool(pageSize))
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := tr.Insert(k, storage.RID{Page: storage.PageID(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	leaves, _, used, err := LeafUse(tr)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := tr.Pages()
	if err != nil {
		t.Fatal(err)
	}
	return tr, len(ids), float64(used+nodeHeader*leaves) / float64(leaves*pageSize)
}

// TestRunLoadFill loads G groups of ascending keys, interleaved as a
// chunk table's load appends to its (Tenant, Table, Chunk, Row) index.
// The leaf a group's run appends to has the next group's first key for
// its high fence, so its prefix is short; a leaf the run leaves behind
// lies within the run and holds the same keys under a long prefix, in
// fewer bytes. The run's next full leaf sheds its older entries into
// that leaf, and a leaf whose left sibling is full evens out with its
// right one, so the leaves fill to at least 79 %, prefixes counted
// (80.0 %; 79.3 % while only a run's left sibling took entries, 26.3 %
// when every split cuts at the byte midpoint, whose left halves keep
// only what fitted under the short prefix). The tree has three levels,
// and its 69 pages are held too (73 while only a run's left sibling
// took entries, 223 at the midpoint, 212 at 83.1 % before leaves stored
// a prefix).
func TestRunLoadFill(t *testing.T) {
	const groups, perGroup = 12, 400
	var keys [][]byte
	for i := 0; i < perGroup; i++ {
		for g := 0; g < groups; g++ {
			keys = append(keys, fmt.Appendf(nil, "tenant-%02d/chunk-%d/row-%06d", g/3, g%3, i))
		}
	}
	tr, pages, fill := leafFill(t, 1024, keys)
	t.Logf("%d interleaved runs of %d keys: %d pages, leaves %.1f %% full", groups, perGroup, pages, 100*fill)
	if h, err := tr.Height(); h != 3 || err != nil {
		t.Errorf("height %d (%v), want 3", h, err)
	}
	if fill < 0.79 || pages > 69 {
		t.Errorf("%d pages, leaves %.1f %% full; want at most 69, at least 79 %%", pages, 100*fill)
	}
}

// randomLoadPages is what TestRandomLoadPages's load takes: 263 pages,
// leaves 79.3 % full. Every leaf split cut at the byte midpoint before
// a full leaf first evened out with a sibling: 305 pages at 68.1 % (568
// before leaves stored a prefix).
const randomLoadPages = 263

// TestRandomLoadPages loads keys in random order, where runs are rare
// and a full leaf evens out with a sibling that has room before it
// splits, as a B*-tree's overflow does: the tree takes at most
// randomLoadPages pages.
func TestRandomLoadPages(t *testing.T) {
	r := rand.New(rand.NewSource(2008))
	var keys [][]byte
	for _, i := range r.Perm(20000) {
		keys = append(keys, key(i))
	}
	_, pages, fill := leafFill(t, 1024, keys)
	t.Logf("random load: %d pages, leaves %.1f %% full", pages, 100*fill)
	if pages > randomLoadPages {
		t.Errorf("random load takes %d pages, more than %d", pages, randomLoadPages)
	}
}
