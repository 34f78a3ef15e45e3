package catalog

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/btree"
	"repro/internal/storage"
	"repro/internal/types"
)

func newCatalog(memBytes int64) (*Catalog, *storage.BufferPool) {
	disk := storage.NewDisk(0)
	pool := storage.NewBufferPool(disk, memBytes)
	return New(pool, Config{MemoryBytes: memBytes}), pool
}

// seek returns, in key order, the RIDs a seek of ix over the keys
// beginning with prefix (nil: every key) finds: the tree's entries, or
// on a rootless index the heap rows whose keys begin with it, which is
// how the executor reads the page that answers for it.
func seek(t testing.TB, tab *Table, ix *Index, prefix []byte) []storage.RID {
	t.Helper()
	var rids []storage.RID
	if ix.Built() {
		var hi []byte
		if prefix != nil {
			hi = btree.PrefixSuccessor(prefix)
		}
		it, err := ix.Tree.SeekRange(prefix, hi)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Release()
		for ; it.Valid(); it.Next() {
			rids = append(rids, it.RID())
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		return rids
	}
	type entry struct {
		key []byte
		rid storage.RID
	}
	var ents []entry
	err := tab.Heap.Scan(func(rid storage.RID, rec []byte) (bool, error) {
		row, err := tab.decodeRow(rec)
		if err != nil {
			return false, err
		}
		if k := ix.KeyFor(row, rid); bytes.HasPrefix(k, prefix) {
			ents = append(ents, entry{k, rid})
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(ents, func(a, b entry) int { return bytes.Compare(a.key, b.key) })
	for _, e := range ents {
		rids = append(rids, e.rid)
	}
	return rids
}

func accountCols() []Column {
	return []Column{
		{Name: "Aid", Type: types.IntType, NotNull: true},
		{Name: "Name", Type: types.VarcharType(50)},
		{Name: "Hospital", Type: types.VarcharType(50)},
		{Name: "Beds", Type: types.IntType},
	}
}

func TestCreateDropTable(t *testing.T) {
	c, _ := newCatalog(1 << 20)
	tab, err := c.CreateTable("Account", accountCols())
	if err != nil {
		t.Fatal(err)
	}
	if tab.ColIndex("beds") != 3 || tab.ColIndex("AID") != 0 {
		t.Error("ColIndex should be case-insensitive")
	}
	if tab.ColIndex("nope") != -1 {
		t.Error("missing column should be -1")
	}
	if _, err := c.CreateTable("account", accountCols()); err == nil {
		t.Error("duplicate table (case-insensitive) should fail")
	}
	if !c.HasTable("ACCOUNT") {
		t.Error("HasTable case-insensitive lookup failed")
	}
	if _, err := c.DropTableDeferred("Account"); err != nil {
		t.Fatal(err)
	}
	if c.HasTable("Account") {
		t.Error("table survived drop")
	}
	if _, err := c.DropTableDeferred("Account"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestCreateTableValidation(t *testing.T) {
	c, _ := newCatalog(1 << 20)
	if _, err := c.CreateTable("empty", nil); err == nil {
		t.Error("empty column list should fail")
	}
	if _, err := c.CreateTable("dup", []Column{{Name: "a", Type: types.IntType}, {Name: "A", Type: types.IntType}}); err == nil {
		t.Error("duplicate columns should fail")
	}
}

func TestMetaBudgetShrinksPool(t *testing.T) {
	mem := int64(256 << 10) // 256 KB budget, 8 KB pages -> 32 frames
	c, pool := newCatalog(mem)
	before := pool.Capacity()
	for i := 0; i < 20; i++ {
		if _, err := c.CreateTable(fmt.Sprintf("t%02d", i), accountCols()); err != nil {
			t.Fatal(err)
		}
	}
	after := pool.Capacity()
	if after >= before {
		t.Errorf("pool capacity %d -> %d: creating tables must shrink the pool", before, after)
	}
	if got := c.MetaBytes(); got != 20*DefaultMetaBytesPerTable {
		t.Errorf("MetaBytes = %d", got)
	}
	for i := 0; i < 20; i++ {
		c.DropTableDeferred(fmt.Sprintf("t%02d", i))
	}
	if pool.Capacity() != before {
		t.Errorf("pool capacity should recover after drops: %d vs %d", pool.Capacity(), before)
	}
}

func TestInsertGetRow(t *testing.T) {
	c, _ := newCatalog(1 << 20)
	tab, _ := c.CreateTable("Account", accountCols())
	row := []types.Value{types.NewInt(1), types.NewString("Acme"), types.NewString("St. Mary"), types.NewInt(135)}
	rid, err := tab.InsertRow(row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tab.GetRow(rid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if !types.Equal(got[i], row[i]) {
			t.Errorf("col %d: %v != %v", i, got[i], row[i])
		}
	}
}

func TestInsertTypeChecking(t *testing.T) {
	c, _ := newCatalog(1 << 20)
	tab, _ := c.CreateTable("Account", accountCols())
	// NULL in NOT NULL column.
	if _, err := tab.InsertRow([]types.Value{types.Null(), types.NewString("x"), types.Null(), types.Null()}); err == nil {
		t.Error("NULL in NOT NULL column should fail")
	}
	// Too many values.
	if _, err := tab.InsertRow(make([]types.Value, 10)); err == nil {
		t.Error("arity overflow should fail")
	}
	// Short row pads with NULL.
	rid, err := tab.InsertRow([]types.Value{types.NewInt(2), types.NewString("Gump")})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := tab.GetRow(rid)
	if !got[3].IsNull() {
		t.Error("short row should pad NULLs")
	}
	// String coerced into INT column.
	if _, err := tab.InsertRow([]types.Value{types.NewString("3"), types.Null(), types.Null(), types.Null()}); err != nil {
		t.Errorf("numeric string into INT column should coerce: %v", err)
	}
	if _, err := tab.InsertRow([]types.Value{types.NewString("abc"), types.Null(), types.Null(), types.Null()}); err == nil {
		t.Error("non-numeric string into INT column should fail")
	}
}

// TestNonUniqueKeyRIDOrder holds a non-unique index's RID suffix to RID
// order, page then slot, across page ids of every length class up to
// the largest a tree accepts and slots up to the largest a page has,
// and its keys to the key columns' order first: a key is the value's
// encoding, then btree.AppendRID's page id and slot.
func TestNonUniqueKeyRIDOrder(t *testing.T) {
	ix := &Index{Cols: []int{0}}
	var rids []storage.RID
	for _, p := range []uint64{0, 1, 63, 64, 255, 256, 1<<14 - 1, 1 << 14, 1 << 16, 1<<22 - 1, 1 << 22, 1 << 40, 1<<48 - 1} {
		for _, s := range []uint16{0, 1, 63, 256, 1<<14 - 1} {
			rids = append(rids, storage.RID{Page: storage.PageID(p), Slot: s})
		}
	}
	var keys [][]byte
	for _, v := range []int64{-1, 0, 7} {
		row := []types.Value{types.NewInt(v)}
		for _, rid := range rids {
			keys = append(keys, ix.KeyFor(row, rid))
		}
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			t.Fatalf("key %d %x not above key %d %x (%v)", i, keys[i], i-1, keys[i-1], rids[i%len(rids)])
		}
	}
	if k := ix.KeyFor([]types.Value{types.NewInt(7)}, storage.RID{Page: 300, Slot: 4}); len(k) != 3+4 {
		t.Errorf("INT 7 at page 300 is a %d-byte key %x, want 7", len(k), k)
	}
}

func TestUniqueIndexEnforced(t *testing.T) {
	c, _ := newCatalog(1 << 20)
	tab, _ := c.CreateTable("Account", accountCols())
	if _, err := c.CreateIndex("Account", "pk_account", []string{"Aid"}, true); err != nil {
		t.Fatal(err)
	}
	mk := func(id int64) []types.Value {
		return []types.Value{types.NewInt(id), types.NewString("n"), types.Null(), types.Null()}
	}
	if _, err := tab.InsertRow(mk(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.InsertRow(mk(1)); err == nil {
		t.Error("duplicate PK should fail")
	}
	if _, err := tab.InsertRow(mk(2)); err != nil {
		t.Fatal(err)
	}
}

func TestIndexBackfillAndLookup(t *testing.T) {
	c, _ := newCatalog(1 << 20)
	tab, _ := c.CreateTable("Account", accountCols())
	var rids []storage.RID
	for i := 0; i < 100; i++ {
		rid, err := tab.InsertRow([]types.Value{
			types.NewInt(int64(i)), types.NewString(fmt.Sprintf("acct%d", i)),
			types.NewString(strings.Repeat("hosp", 25)), types.NewInt(int64(i % 10)),
		})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	ix, err := c.CreateIndex("Account", "ix_beds", []string{"Beds"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := tab.Heap.NumPages(); n < 2 || !ix.Built() || ix.Tree.Len() != 100 {
		t.Errorf("backfill over %d pages: built %v, %d entries", n, ix.Built(), ix.Tree.Len())
	}
	// Prefix scan on Beds = 3 should find 10 rows.
	it, err := ix.Tree.SeekPrefix(ix.PrefixFor([]types.Value{types.NewInt(3)}))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Release()
	n := 0
	for ; it.Valid(); it.Next() {
		row, err := tab.GetRow(it.RID())
		if err != nil || row[3].Int != 3 {
			t.Errorf("index returned wrong row: %v %v", row, err)
		}
		n++
	}
	if n != 10 {
		t.Errorf("index scan found %d rows", n)
	}
	// Backfill with duplicates must fail for unique index.
	if _, err := c.CreateIndex("Account", "bad_unique", []string{"Beds"}, true); err == nil {
		t.Error("unique backfill over duplicates should fail")
	}
	if tab.Index("bad_unique") != nil {
		t.Error("failed index should not be registered")
	}
}

func TestDeleteMaintainsIndexes(t *testing.T) {
	c, _ := newCatalog(1 << 20)
	tab, _ := c.CreateTable("Account", accountCols())
	c.CreateIndex("Account", "pk", []string{"Aid"}, true)
	row := []types.Value{types.NewInt(1), types.NewString("x"), types.Null(), types.Null()}
	rid, _ := tab.InsertRow(row)
	full, _ := tab.GetRow(rid)
	if err := tab.DeleteRow(rid, full); err != nil {
		t.Fatal(err)
	}
	if rids := seek(t, tab, tab.Index("pk"), nil); len(rids) != 0 {
		t.Error("index entry survived delete")
	}
	// PK is reusable after delete.
	if _, err := tab.InsertRow(row); err != nil {
		t.Errorf("reinsert after delete: %v", err)
	}
}

func TestUpdateMaintainsIndexes(t *testing.T) {
	c, _ := newCatalog(1 << 20)
	tab, _ := c.CreateTable("Account", accountCols())
	c.CreateIndex("Account", "pk", []string{"Aid"}, true)
	ix, _ := c.CreateIndex("Account", "ix_name", []string{"Name"}, false)
	rid, _ := tab.InsertRow([]types.Value{types.NewInt(1), types.NewString("old"), types.Null(), types.Null()})
	oldRow, _ := tab.GetRow(rid)
	newRow := append([]types.Value(nil), oldRow...)
	newRow[1] = types.NewString("new")
	newRID, err := updateRow(tab, rid, oldRow, newRow)
	if err != nil {
		t.Fatal(err)
	}
	if rids := seek(t, tab, ix, ix.PrefixFor([]types.Value{types.NewString("new")})); len(rids) != 1 || rids[0] != newRID {
		t.Error("index not updated to new value")
	}
	if rids := seek(t, tab, ix, ix.PrefixFor([]types.Value{types.NewString("old")})); len(rids) != 0 {
		t.Error("stale index entry for old value")
	}
}

func TestUpdateUniqueViolation(t *testing.T) {
	c, _ := newCatalog(1 << 20)
	tab, _ := c.CreateTable("Account", accountCols())
	c.CreateIndex("Account", "pk", []string{"Aid"}, true)
	tab.InsertRow([]types.Value{types.NewInt(1), types.Null(), types.Null(), types.Null()})
	rid2, _ := tab.InsertRow([]types.Value{types.NewInt(2), types.Null(), types.Null(), types.Null()})
	oldRow, _ := tab.GetRow(rid2)
	newRow := append([]types.Value(nil), oldRow...)
	newRow[0] = types.NewInt(1)
	if _, err := updateRow(tab, rid2, oldRow, newRow); err == nil {
		t.Error("update into existing PK should fail")
	}
}

func TestAddColumn(t *testing.T) {
	c, _ := newCatalog(1 << 20)
	tab, _ := c.CreateTable("T", []Column{{Name: "a", Type: types.IntType}})
	rid, _ := tab.InsertRow([]types.Value{types.NewInt(1)})
	if err := c.AddColumn("T", Column{Name: "b", Type: types.StringType}); err != nil {
		t.Fatal(err)
	}
	row, err := tab.GetRow(rid)
	if err != nil || len(row) != 2 || !row[1].IsNull() {
		t.Errorf("old row after ADD COLUMN: %v %v", row, err)
	}
	if err := c.AddColumn("T", Column{Name: "b", Type: types.IntType}); err == nil {
		t.Error("duplicate ADD COLUMN should fail")
	}
	if err := c.AddColumn("T", Column{Name: "c", Type: types.IntType, NotNull: true}); err == nil {
		t.Error("NOT NULL ADD COLUMN should fail")
	}
}

func TestDropIndex(t *testing.T) {
	c, _ := newCatalog(1 << 20)
	c.CreateTable("T", accountCols())
	c.CreateIndex("T", "ix", []string{"Aid"}, false)
	if _, err := c.DropIndexDeferred("T", "ix"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DropIndexDeferred("T", "ix"); err == nil {
		t.Error("double drop index should fail")
	}
}

// TestRowOpsProperty randomly interleaves insert/update/delete against a
// model map and checks table + all index contents stay consistent.
func TestRowOpsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, _ := newCatalog(4 << 20)
		tab, _ := c.CreateTable("T", accountCols())
		c.CreateIndex("T", "pk", []string{"Aid"}, true)
		ix, _ := c.CreateIndex("T", "ix_beds", []string{"Beds"}, false)
		model := map[int64][]types.Value{} // Aid -> row
		ridOf := map[int64]storage.RID{}
		for op := 0; op < 300; op++ {
			id := int64(r.Intn(50))
			switch r.Intn(3) {
			case 0:
				row := []types.Value{
					types.NewInt(id),
					types.NewString(strings.Repeat("x", r.Intn(20))),
					types.NewString(strings.Repeat("h", r.Intn(400))), // the heap crosses a page
					types.NewInt(int64(r.Intn(5))),
				}
				rid, err := tab.InsertRow(row)
				if _, exists := model[id]; exists {
					if err == nil {
						return false // unique violation missed
					}
				} else {
					if err != nil {
						return false
					}
					got, _ := tab.GetRow(rid)
					model[id] = got
					ridOf[id] = rid
				}
			case 1:
				if old, exists := model[id]; exists {
					if err := tab.DeleteRow(ridOf[id], old); err != nil {
						return false
					}
					delete(model, id)
					delete(ridOf, id)
				}
			case 2:
				if old, exists := model[id]; exists {
					nr := append([]types.Value(nil), old...)
					nr[3] = types.NewInt(int64(r.Intn(5)))
					newRID, err := updateRow(tab, ridOf[id], old, nr)
					if err != nil {
						return false
					}
					model[id] = nr
					ridOf[id] = newRID
				}
			}
		}
		// Verify every model row readable and the non-unique index complete.
		if len(seek(t, tab, ix, nil)) != len(model) || tab.CheckInvariants() != nil {
			return false
		}
		for id, want := range model {
			got, err := tab.GetRow(ridOf[id])
			if err != nil {
				return false
			}
			for i := range want {
				if !types.Equal(got[i], want[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
