package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/storage"
)

func newPool(pageSize int) *storage.BufferPool {
	return storage.NewBufferPool(storage.NewDisk(pageSize), int64(pageSize)*4096)
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

func TestInsertGet(t *testing.T) {
	tr, err := New(newPool(512))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), storage.RID{Page: storage.PageID(i + 1), Slot: uint16(i)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tr.Len() != n {
		t.Errorf("Len = %d", tr.Len())
	}
	for i := 0; i < n; i++ {
		rid, err := tr.Get(key(i))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if rid.Page != storage.PageID(i+1) || rid.Slot != uint16(i) {
			t.Errorf("get %d = %v", i, rid)
		}
	}
	if _, err := tr.Get([]byte("missing")); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("missing key: %v", err)
	}
	h, err := tr.Height()
	if err != nil || h < 2 {
		t.Errorf("height %d (%v): expected splits with 512-byte pages", h, err)
	}
}

func TestDuplicateKey(t *testing.T) {
	tr, _ := New(newPool(512))
	if err := tr.Insert([]byte("k"), storage.RID{Page: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert([]byte("k"), storage.RID{Page: 2}); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("want ErrDuplicateKey, got %v", err)
	}
}

func TestDelete(t *testing.T) {
	tr, _ := New(newPool(512))
	for i := 0; i < 500; i++ {
		tr.Insert(key(i), storage.RID{Page: storage.PageID(i + 1)})
	}
	for i := 0; i < 500; i += 2 {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	for i := 0; i < 500; i++ {
		_, err := tr.Get(key(i))
		if i%2 == 0 && !errors.Is(err, ErrKeyNotFound) {
			t.Errorf("deleted key %d still present (%v)", i, err)
		}
		if i%2 == 1 && err != nil {
			t.Errorf("surviving key %d: %v", i, err)
		}
	}
	if err := tr.Delete([]byte("missing")); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("delete missing: %v", err)
	}
	if tr.Len() != 250 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestUpdate(t *testing.T) {
	tr, _ := New(newPool(512))
	tr.Insert([]byte("k"), storage.RID{Page: 1})
	if err := tr.Update([]byte("k"), storage.RID{Page: 99, Slot: 3}); err != nil {
		t.Fatal(err)
	}
	rid, _ := tr.Get([]byte("k"))
	if rid.Page != 99 || rid.Slot != 3 {
		t.Errorf("update lost: %v", rid)
	}
	if err := tr.Update([]byte("zz"), storage.RID{}); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("update missing: %v", err)
	}
}

func TestScanOrder(t *testing.T) {
	tr, _ := New(newPool(512))
	perm := rand.New(rand.NewSource(1)).Perm(800)
	for _, i := range perm {
		tr.Insert(key(i), storage.RID{Page: storage.PageID(i + 1)})
	}
	it, err := tr.Scan()
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for ; it.Valid(); it.Next() {
		if !bytes.Equal(it.Key(), key(i)) {
			t.Fatalf("scan order broken at %d: %q", i, it.Key())
		}
		i++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if i != 800 {
		t.Errorf("scan saw %d entries", i)
	}
}

func TestSeekRange(t *testing.T) {
	tr, _ := New(newPool(512))
	for i := 0; i < 100; i++ {
		tr.Insert(key(i), storage.RID{Page: storage.PageID(i + 1)})
	}
	it, err := tr.SeekRange(key(10), key(20))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for ; it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	if len(got) != 10 || got[0] != string(key(10)) || got[9] != string(key(19)) {
		t.Errorf("range [10,20): %v", got)
	}
	// Range starting below the smallest key.
	it, _ = tr.SeekRange([]byte("a"), nil)
	if !it.Valid() || !bytes.Equal(it.Key(), key(0)) {
		t.Error("seek below min should land on first key")
	}
	// Empty range.
	it, _ = tr.SeekRange(key(50), key(50))
	if it.Valid() {
		t.Error("empty range should be done immediately")
	}
}

func TestSeekPrefix(t *testing.T) {
	tr, _ := New(newPool(512))
	for _, k := range []string{"a/1", "a/2", "b/1", "b/2", "b/3", "c/1"} {
		tr.Insert([]byte(k), storage.RID{Page: 1})
	}
	it, err := tr.SeekPrefix([]byte("b/"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; it.Valid(); it.Next() {
		if !bytes.HasPrefix(it.Key(), []byte("b/")) {
			t.Errorf("prefix scan leaked %q", it.Key())
		}
		n++
	}
	if n != 3 {
		t.Errorf("prefix scan saw %d", n)
	}
}

func TestPrefixSuccessor(t *testing.T) {
	if got := PrefixSuccessor([]byte{1, 2}); !bytes.Equal(got, []byte{1, 3}) {
		t.Errorf("PrefixSuccessor: %v", got)
	}
	if got := PrefixSuccessor([]byte{1, 0xFF}); !bytes.Equal(got, []byte{2}) {
		t.Errorf("PrefixSuccessor with trailing FF: %v", got)
	}
	if got := PrefixSuccessor([]byte{0xFF, 0xFF}); got != nil {
		t.Errorf("PrefixSuccessor of all-FF: %v", got)
	}
}

func TestScanSkipsEmptyLeaves(t *testing.T) {
	tr, _ := New(newPool(512))
	for i := 0; i < 300; i++ {
		tr.Insert(key(i), storage.RID{Page: 1})
	}
	// Delete a whole contiguous run so at least one leaf empties.
	for i := 50; i < 250; i++ {
		tr.Delete(key(i))
	}
	it, _ := tr.Scan()
	n := 0
	for ; it.Valid(); it.Next() {
		n++
	}
	if n != 100 {
		t.Errorf("scan after mass delete saw %d", n)
	}
}

func TestDropFreesPages(t *testing.T) {
	disk := storage.NewDisk(512)
	pool := storage.NewBufferPool(disk, 512*1024)
	tr, _ := New(pool)
	for i := 0; i < 1000; i++ {
		tr.Insert(key(i), storage.RID{Page: 1})
	}
	if disk.NumPages() < 2 {
		t.Fatal("expected multi-page tree")
	}
	if err := tr.Drop(); err != nil {
		t.Fatal(err)
	}
	if disk.NumPages() != 0 {
		t.Errorf("drop left %d pages", disk.NumPages())
	}
}

// maxKeyLen is the longest key Insert accepts on a page of the given
// size: three entries must fit (keyFits), and an entry costs a 2-byte
// directory slot, the uvarint key length, the key and an 8-byte RID.
//
//	pageSize 256: (256-15)/3 = 80 = 2 + 1 + 69 + 8  → 69
//	pageSize 512: (512-15)/3 = 165 ≥ 2 + 2 + 153 + 8 → 153 (two length bytes from 128 up)
func maxKeyLen(pageSize int) int {
	k := 0
	for keyFits(k+1, pageSize) {
		k++
	}
	return k
}

// TestOversizedKey holds the guard to its arithmetic on both sides of
// the boundary, and checks that a page really takes three maximal keys
// and splits cleanly on the fourth.
func TestOversizedKey(t *testing.T) {
	for pageSize, want := range map[int]int{256: 69, 512: 153} {
		max := maxKeyLen(pageSize)
		if max != want {
			t.Fatalf("page %d: max key %d, want %d", pageSize, max, want)
		}
		tr, _ := New(newPool(pageSize))
		if err := tr.Insert(make([]byte, max+1), storage.RID{}); err == nil {
			t.Errorf("page %d: key of %d bytes should be rejected", pageSize, max+1)
		}
		for i := 0; i < 3; i++ {
			k := bytes.Repeat([]byte{byte('a' + i)}, max)
			if err := tr.Insert(k, storage.RID{Page: 1}); err != nil {
				t.Fatalf("page %d: boundary key %d: %v", pageSize, i, err)
			}
		}
		if h, _ := tr.Height(); h != 1 {
			t.Errorf("page %d: three maximal keys should share the root leaf, height %d", pageSize, h)
		}
		if err := tr.Insert(bytes.Repeat([]byte{'d'}, max), storage.RID{Page: 1}); err != nil {
			t.Fatalf("page %d: fourth boundary key: %v", pageSize, err)
		}
		if h, _ := tr.Height(); h != 2 {
			t.Errorf("page %d: fourth maximal key should split the root, height %d", pageSize, h)
		}
	}
	tr, _ := New(newPool(256))
	if err := tr.Insert([]byte("k"), storage.RID{Page: maxPageID + 1}); err == nil {
		t.Error("a RID page beyond six bytes should be rejected")
	}
}

// logRec is one redo record as a btree.Logger sees it.
type logRec struct {
	kind     string
	page     storage.PageID
	key, img []byte
	rid      storage.RID
	old, new storage.PageID
}

// recLogger records every redo record the tree emits, copying what it
// is handed the way wal.Scope serializes it.
type recLogger struct{ recs []logRec }

func (l *recLogger) BTreePageAlloc(page storage.PageID) error {
	l.recs = append(l.recs, logRec{kind: "alloc", page: page})
	return nil
}
func (l *recLogger) BTreeInit(page storage.PageID) error {
	l.recs = append(l.recs, logRec{kind: "init", page: page})
	return nil
}
func (l *recLogger) BTreeInsert(page storage.PageID, key []byte, rid storage.RID) error {
	l.recs = append(l.recs, logRec{kind: "insert", page: page, key: append([]byte(nil), key...), rid: rid})
	return nil
}
func (l *recLogger) BTreeDelete(page storage.PageID, key []byte) error {
	l.recs = append(l.recs, logRec{kind: "delete", page: page, key: append([]byte(nil), key...)})
	return nil
}
func (l *recLogger) BTreeUpdate(page storage.PageID, key []byte, rid storage.RID) error {
	l.recs = append(l.recs, logRec{kind: "update", page: page, key: append([]byte(nil), key...), rid: rid})
	return nil
}
func (l *recLogger) BTreePageImage(page storage.PageID, img []byte) error {
	l.recs = append(l.recs, logRec{kind: "image", page: page, img: append([]byte(nil), img...)})
	return nil
}
func (l *recLogger) BTreeRoot(old, new storage.PageID) error {
	l.recs = append(l.recs, logRec{kind: "root", old: old, new: new})
	return nil
}

// replay redoes the recorded log onto an empty disk of its own, through
// the same Replay* entry points recovery uses, and returns the tree.
func (l *recLogger) replay(pageSize int) (*BTree, error) {
	disk := storage.NewDisk(pageSize)
	pool := storage.NewBufferPool(disk, int64(pageSize)*4096)
	var root storage.PageID
	for i, r := range l.recs {
		var err error
		switch r.kind {
		case "alloc":
			err = disk.AllocAt(r.page, storage.CatIndex)
		case "init":
			if root == storage.InvalidPageID {
				root = r.page
			}
			err = ReplayInit(pool, r.page)
		case "insert":
			err = ReplayInsert(pool, r.page, r.key, r.rid)
		case "delete":
			err = ReplayDelete(pool, r.page, r.key)
		case "update":
			err = ReplayUpdate(pool, r.page, r.key, r.rid)
		case "image":
			err = ReplayImage(pool, r.page, r.img)
		case "root":
			if root != r.old {
				err = fmt.Errorf("root record %d→%d, replayed root is %d", r.old, r.new, root)
			}
			root = r.new
		}
		if err != nil {
			return nil, fmt.Errorf("record %d (%s page %d): %w", i, r.kind, r.page, err)
		}
	}
	tr := Restore(pool, root)
	return tr, tr.RecountSize()
}

// randomOps drives a logged tree on pageSize pages with ops random
// inserts, deletes, updates and lookups over keySpace distinct keys of
// 6 to maxKey bytes, checking every result against a map model. Every
// fifth stretch of 200 operations is delete-heavy, which leaves holes in
// the leaves for later inserts to compact. At the end the live tree and
// a second tree rebuilt from the recorded log alone must both scan to
// the model's sorted (key, rid) sequence. It returns the live tree's
// height.
func randomOps(t *testing.T, seed int64, pageSize, ops, keySpace, maxKey int) (int, error) {
	r := rand.New(rand.NewSource(seed))
	lg := &recLogger{}
	tr, err := NewLogged(newPool(pageSize), lg)
	if err != nil {
		return 0, err
	}
	// Key i is its six-digit number padded to a length that depends on
	// i alone: short, medium, anywhere up to the guard, at the guard.
	keyOf := func(i int) []byte {
		pad := [4]int{0, (i * 7) % 19, (i * 13) % (maxKey - 5), maxKey - 6}[i%4]
		return append([]byte(fmt.Sprintf("%06d", i)), bytes.Repeat([]byte{'x'}, pad)...)
	}
	model := map[string]storage.RID{}
	for op := 0; op < ops; op++ {
		k := keyOf(r.Intn(keySpace))
		rid := storage.RID{Page: storage.PageID(r.Intn(1 << 20)), Slot: uint16(r.Intn(1 << 16))}
		_, exists := model[string(k)]
		kind := r.Intn(4)
		if (op/200)%5 == 4 && kind != 3 {
			kind = 1
		}
		switch kind {
		case 0:
			err := tr.Insert(k, rid)
			switch {
			case exists && !errors.Is(err, ErrDuplicateKey):
				return 0, fmt.Errorf("op %d: insert of existing %q: %v", op, k, err)
			case !exists && err != nil:
				return 0, fmt.Errorf("op %d: insert %q: %v", op, k, err)
			case !exists:
				model[string(k)] = rid
			}
		case 1:
			err := tr.Delete(k)
			switch {
			case exists && err != nil:
				return 0, fmt.Errorf("op %d: delete %q: %v", op, k, err)
			case !exists && !errors.Is(err, ErrKeyNotFound):
				return 0, fmt.Errorf("op %d: delete of missing %q: %v", op, k, err)
			}
			delete(model, string(k))
		case 2:
			err := tr.Update(k, rid)
			switch {
			case exists && err != nil:
				return 0, fmt.Errorf("op %d: update %q: %v", op, k, err)
			case !exists && !errors.Is(err, ErrKeyNotFound):
				return 0, fmt.Errorf("op %d: update of missing %q: %v", op, k, err)
			case exists:
				model[string(k)] = rid
			}
		case 3:
			got, err := tr.Get(k)
			switch {
			case exists && (err != nil || got != model[string(k)]):
				return 0, fmt.Errorf("op %d: get %q = %v, %v; want %v", op, k, got, err, model[string(k)])
			case !exists && !errors.Is(err, ErrKeyNotFound):
				return 0, fmt.Errorf("op %d: get of missing %q: %v", op, k, err)
			}
		}
	}

	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	replayed, err := lg.replay(pageSize)
	if err != nil {
		return 0, fmt.Errorf("replay: %w", err)
	}
	for name, tree := range map[string]*BTree{"live": tr, "replayed": replayed} {
		if tree.Len() != int64(len(model)) {
			return 0, fmt.Errorf("%s tree: Len %d, model %d", name, tree.Len(), len(model))
		}
		it, err := tree.Scan()
		if err != nil {
			return 0, err
		}
		for _, k := range keys {
			if !it.Valid() || string(it.Key()) != k || it.RID() != model[k] {
				return 0, fmt.Errorf("%s tree: scan diverges from the model at %q", name, k)
			}
			it.Next()
		}
		if it.Valid() || it.Err() != nil {
			return 0, fmt.Errorf("%s tree: scan runs past the model (err %v)", name, it.Err())
		}
	}
	// A range scan per decile, bounds falling between and on keys.
	for i := 0; i+1 < len(keys); i += len(keys)/10 + 1 {
		j := min(i+len(keys)/10+1, len(keys)-1)
		it, err := tr.SeekRange([]byte(keys[i]), []byte(keys[j]))
		if err != nil {
			return 0, err
		}
		for _, k := range keys[i:j] {
			if !it.Valid() || string(it.Key()) != k {
				return 0, fmt.Errorf("range [%q, %q) diverges at %q", keys[i], keys[j], k)
			}
			it.Next()
		}
		if it.Valid() {
			return 0, fmt.Errorf("range [%q, %q) runs past its bound to %q", keys[i], keys[j], it.Key())
		}
	}
	h, err := tr.Height()
	return h, err
}

// TestRandomOpsProperty cross-checks the tree against a sorted-map model
// under random insert/delete/update/lookup streams, and the tree that
// WAL replay rebuilds from the emitted records against both: many
// short streams on small trees, then three long ones that mix key sizes
// up to the oversized-key guard and grow the tree to three levels.
func TestRandomOpsProperty(t *testing.T) {
	f := func(seed int64) bool {
		if _, err := randomOps(t, seed, 512, 600, 400, 24); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		h, err := randomOps(t, seed, 512, 12000, 3000, maxKeyLen(512))
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
		} else if h < 3 {
			t.Errorf("seed %d: height %d, want a tree of at least three levels", seed, h)
		}
	}
}

func TestLargeTreeSplitCascade(t *testing.T) {
	// Small pages force multi-level splits.
	tr, _ := New(newPool(256))
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), storage.RID{Page: storage.PageID(i + 1)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	h, _ := tr.Height()
	if h < 3 {
		t.Errorf("expected height >= 3, got %d", h)
	}
	for _, i := range []int{0, 1, n / 2, n - 2, n - 1} {
		if _, err := tr.Get(key(i)); err != nil {
			t.Errorf("get %d after cascade: %v", i, err)
		}
	}
}

// TestAllocationGates keeps node decoding from creeping back: reads
// work on the pinned frame, so what a lookup, a point range or a
// non-splitting insert allocates must not depend on how many entries a
// node holds. 8 KiB pages give leaves of some 350 entries.
func TestAllocationGates(t *testing.T) {
	const pageSize = 8192
	build := func(n int) *BTree {
		tr, err := New(newPool(pageSize))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := tr.Insert(key(2*i), storage.RID{Page: storage.PageID(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	tr := build(3000)
	if h, _ := tr.Height(); h < 2 {
		t.Fatalf("height %d: the gates need inner nodes on the path", h)
	}

	probe := key(2 * 1234)
	if got := testing.AllocsPerRun(100, func() {
		if _, err := tr.Get(probe); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Get allocates %v times, want 0", got)
	}

	// A point range: the iterator, its entry buffer and its offsets.
	seek := func(tr *BTree) float64 {
		lo, hi := key(2*40), key(2*40+1)
		return testing.AllocsPerRun(100, func() {
			it, err := tr.SeekRange(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for ; it.Valid(); it.Next() {
				n++
			}
			if n != 1 || it.Err() != nil {
				t.Fatalf("point range saw %d entries (err %v)", n, it.Err())
			}
		})
	}
	if got := seek(tr); got > 3 {
		t.Errorf("point SeekRange + drain allocates %v times, want <= 3", got)
	}
	if few, many := seek(build(50)), seek(tr); few != many {
		t.Errorf("point SeekRange allocates %v times on a 50-entry leaf, %v on full leaves", few, many)
	}

	// Inserts that do not split, into a leaf of 10 entries and of 300.
	odd := make([][]byte, 21) // odd keys are absent; AllocsPerRun warms up once
	for i := range odd {
		odd[i] = key(2*i + 1)
	}
	for _, n := range []int{10, 300} {
		tr, next := build(n), 0
		got := testing.AllocsPerRun(len(odd)-1, func() {
			if err := tr.Insert(odd[next], storage.RID{Page: 1}); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if h, _ := tr.Height(); h != 1 || got != 0 {
			t.Errorf("non-splitting Insert into a leaf of %d entries allocates %v times (height %d), want 0", n, got, h)
		}
	}
}

// TestConcurrentReaders runs Get and SeekRange from several goroutines
// at once between writer phases. Readers share the pinned frame's bytes
// — there is no private decoded copy — so this is the race detector's
// check of the BTree contract: readers concurrent with readers, never
// with a writer.
func TestConcurrentReaders(t *testing.T) {
	tr, err := New(newPool(512))
	if err != nil {
		t.Fatal(err)
	}
	const perPhase, readers = 400, 4
	for phase := 0; phase < 4; phase++ {
		// Writer phase: grow the tree, punch holes, repoint.
		base := phase * perPhase
		for i := base; i < base+perPhase; i++ {
			if err := tr.Insert(key(i), storage.RID{Page: storage.PageID(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := base; i < base+perPhase; i += 7 {
			if err := tr.Delete(key(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := base + 1; i < base+perPhase; i += 7 {
			if err := tr.Update(key(i), storage.RID{Page: storage.PageID(i + 1), Slot: 9}); err != nil {
				t.Fatal(err)
			}
		}
		// Reader phase.
		n := base + perPhase
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rnd := rand.New(rand.NewSource(int64(phase*readers + r)))
				for q := 0; q < 300; q++ {
					i := rnd.Intn(n)
					rid, err := tr.Get(key(i))
					if deleted := i%perPhase%7 == 0; deleted != errors.Is(err, ErrKeyNotFound) || (!deleted && rid.Page != storage.PageID(i+1)) {
						t.Errorf("phase %d: Get(%d) = %v, %v", phase, i, rid, err)
						return
					}
					it, err := tr.SeekRange(key(i), key(i+20))
					if err != nil {
						t.Error(err)
						return
					}
					for prev := []byte(nil); it.Valid(); it.Next() {
						if bytes.Compare(prev, it.Key()) >= 0 {
							t.Errorf("phase %d: range from %d out of order", phase, i)
							return
						}
						prev = append(prev[:0], it.Key()...)
					}
					if it.Err() != nil {
						t.Error(it.Err())
						return
					}
				}
			}(r)
		}
		wg.Wait()
	}
}

// TestIteratorHintsSiblingLeaf: a scan that runs on into the next leaf
// has it loading while the caller consumes the current one — every leaf
// after the first is hinted once and joined — and a range that ends
// inside a leaf hints nothing.
func TestIteratorHintsSiblingLeaf(t *testing.T) {
	disk := storage.NewDisk(256)
	pool := storage.NewBufferPool(disk, 256*4096)
	tree, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := tree.Insert(key(i), storage.RID{Page: 1, Slot: uint16(i)}); err != nil {
			t.Fatal(err)
		}
	}
	height, err := tree.Height()
	if err != nil {
		t.Fatal(err)
	}
	cold := func() {
		if err := pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		pool.ResetStats()
	}
	disk.ReadLatency = 20 * time.Microsecond

	cold()
	it, err := tree.Scan()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for ; it.Valid(); it.Next() {
		seen++
	}
	if err := it.Err(); err != nil || seen != n {
		t.Fatalf("%d entries, %v", seen, err)
	}
	st := pool.Stats()
	leaves := st.TotalPhysicalReads() - int64(height) + 1
	if leaves < 4 || st.Prefetches != leaves-1 || st.PrefetchJoined != leaves-1 || st.PrefetchWasted != 0 {
		t.Errorf("height %d, %d leaves: %+v", height, leaves, st)
	}

	cold()
	it, err = tree.SeekRange(key(0), key(2))
	if err != nil {
		t.Fatal(err)
	}
	for ; it.Valid(); it.Next() {
	}
	if st := pool.Stats(); st.Prefetches != 0 || st.TotalPhysicalReads() != int64(height) {
		t.Errorf("bounded range: %+v", st)
	}
}
