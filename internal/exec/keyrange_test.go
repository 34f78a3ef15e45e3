package exec

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/mvcc"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// TestUpperBoundSkipsNullKeys: an index range with only an upper bound —
// a < v or a <= v, alone or after an equality prefix — returns no row
// whose bounded column is NULL. NULL encodes lowest, but it is not less
// than anything. Each query is held to the seq-scan plan of the same
// predicate over a + 0 (which no index serves): on the one-page read
// while the indexes are rootless, and once they are built, on the
// one-page read and on the index path.
func TestUpperBoundSkipsNullKeys(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewDisk(0), 4<<20)
	cat := catalog.New(pool, catalog.Config{MemoryBytes: 4 << 20, Versions: mvcc.NewManager()})
	tab, err := cat.CreateTable("t", []catalog.Column{
		{Name: "id", Type: types.IntType, NotNull: true},
		{Name: "a", Type: types.IntType},
		{Name: "b", Type: types.IntType},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, cols := range map[string][]string{"t_a": {"a"}, "t_ab": {"a", "b"}} {
		if _, err := cat.CreateIndex("t", name, cols, false); err != nil {
			t.Fatal(err)
		}
	}
	// Every fourth a and every fourth b is NULL; a = 3 has a NULL b (id 38).
	nullable := func(i int) types.Value {
		if i%4 == 0 {
			return types.Null()
		}
		return types.NewInt(int64(i % 7))
	}
	for i := 0; i < 40; i++ {
		if _, err := tab.InsertRow([]types.Value{types.NewInt(int64(i)), nullable(i), nullable(i / 3)}); err != nil {
			t.Fatal(err)
		}
	}
	if p := tab.Heap.NumPages(); p != 1 {
		t.Fatalf("fixture heap has %d pages", p)
	}
	sorted := func(rows [][]types.Value) []string {
		out := renderRows(rows)
		sort.Strings(out)
		return out
	}
	for _, built := range []bool{false, true} {
		if built {
			if err := tab.Build(); err != nil {
				t.Fatal(err)
			}
		}
		checkUpperBounds(t, cat, sorted, built)
	}
}

func checkUpperBounds(t *testing.T, cat *catalog.Catalog, sorted func([][]types.Value) []string, built bool) {
	for _, c := range []struct {
		index, seq string
		params     []types.Value
	}{
		{"SELECT id FROM t WHERE a < ?", "SELECT id FROM t WHERE a + 0 < ?", []types.Value{types.NewInt(5)}},
		{"SELECT id FROM t WHERE a <= ?", "SELECT id FROM t WHERE a + 0 <= ?", []types.Value{types.NewInt(5)}},
		{"SELECT id FROM t WHERE a = ? AND b < ?", "SELECT id FROM t WHERE a + 0 = ? AND b + 0 < ?", []types.Value{types.NewInt(3), types.NewInt(4)}},
		{"SELECT id FROM t WHERE a = ? AND b <= ?", "SELECT id FROM t WHERE a + 0 = ? AND b + 0 <= ?", []types.Value{types.NewInt(3), types.NewInt(4)}},
	} {
		n := planQuery(t, cat, c.index)
		is, ok := findNode[*plan.IndexScan](n)
		if !ok || is.Path.Lo != nil || is.Path.Hi == nil {
			t.Fatalf("%q: want an index scan with only an upper bound, plan %s", c.index, n)
		}
		ref := planQuery(t, cat, c.seq)
		if _, ok := findNode[*plan.IndexScan](ref); ok {
			t.Fatalf("%q: the reference plan uses an index: %s", c.seq, ref)
		}
		tree, err := Build(ref)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tree.Collect(c.params, &Stats{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		paths := map[string][][]types.Value{}
		var onePageC Counters
		if built {
			paths["one-page read"], paths["index path"], onePageC, _ = twoPaths(t, n, c.params, nil)
		} else {
			var st Stats
			tree, err := Build(n)
			if err != nil {
				t.Fatal(err)
			}
			if paths["one-page read"], err = tree.Collect(c.params, &st, nil); err != nil {
				t.Fatal(err)
			}
			onePageC = st.Snapshot()
		}
		if onePageC.OnePageReads == 0 {
			t.Errorf("%q: the one-page table was not read through its page", c.index)
		}
		for path, got := range paths {
			if !reflect.DeepEqual(sorted(got), sorted(want)) {
				t.Errorf("%q %v, %s: %v, seq scan %v", c.index, c.params, path, sorted(got), sorted(want))
			}
		}
	}
}
