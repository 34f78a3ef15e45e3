package catalog

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

func TestUndoLogReverseOrderAndDiscard(t *testing.T) {
	var got []int
	u := &UndoLog{}
	for i := 0; i < 3; i++ {
		i := i
		u.push(func() error { got = append(got, i); return nil })
	}
	if u.Len() != 3 {
		t.Fatalf("Len = %d, want 3", u.Len())
	}
	if err := u.Rollback(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{2, 1, 0}) {
		t.Errorf("rollback order %v, want [2 1 0]", got)
	}
	if u.Len() != 0 {
		t.Error("Rollback should clear the log")
	}

	u = &UndoLog{}
	u.push(func() error { t.Error("discarded action ran"); return nil })
	u.Discard()
	if err := u.Rollback(); err != nil {
		t.Fatal(err)
	}
}

func TestUndoLogJoinsErrors(t *testing.T) {
	e1 := errors.New("boom1")
	e2 := errors.New("boom2")
	ran := false
	u := &UndoLog{}
	u.push(func() error { ran = true; return nil })
	u.push(func() error { return e1 })
	u.push(func() error { return e2 })
	err := u.Rollback()
	if !errors.Is(err, e1) || !errors.Is(err, e2) {
		t.Errorf("rollback error should join both failures, got %v", err)
	}
	if !ran {
		t.Error("rollback must attempt every action even after a failure")
	}
}

// atomFixture builds a table with a unique index and a non-unique index
// over a pool with small pages, pre-filled with n rows, so fault sweeps
// exercise heap writes, relocations, and index splits.
func atomFixture(t *testing.T, pageSize int, n int) (*Table, *storage.BufferPool) {
	t.Helper()
	disk := storage.NewDisk(pageSize)
	pool := storage.NewBufferPool(disk, int64(pageSize)*1024)
	c := New(pool, Config{MemoryBytes: int64(pageSize) * 1024})
	tab, err := c.CreateTable("acct", []Column{
		{Name: "Aid", Type: types.IntType, NotNull: true},
		{Name: "Name", Type: types.VarcharType(40)},
		{Name: "Pad", Type: types.VarcharType(400)}, // unindexed: grows to force heap relocation
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("acct", "pk", []string{"Aid"}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("acct", "byname", []string{"Name"}, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := []types.Value{types.NewInt(int64(i)), types.NewString(pad("name", i)), types.NewString("p")}
		if _, err := tab.InsertRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return tab, pool
}

func pad(prefix string, i int) string {
	return prefix + "-" + strings.Repeat("x", 20) + "-" + string(rune('a'+i%26))
}

// sweepOp runs op under a fault sweep for the given page category:
// attempt k = 1, 2, 3, ... each against a fresh fixture with the kth
// logical page access of that category failing. Every faulted run must
// roll back to the pre-statement state; the sweep ends when op outruns
// the fault (performs fewer than k accesses) and succeeds.
func sweepOp(t *testing.T, cat storage.Category, build func() (*Table, *storage.BufferPool), prep func(*Table) func() error) {
	t.Helper()
	const maxK = 500
	for k := int64(1); k <= maxK; k++ {
		tab, pool := build()
		op := prep(tab) // lookups happen before the fault is armed
		snap, err := tab.SnapshotRows()
		if err != nil {
			t.Fatal(err)
		}
		pool.SetFetchFault(storage.FailNthFetch(k, cat))
		opErr := op()
		pool.SetFetchFault(nil)
		if opErr == nil {
			return // fault never fired: every access point has been swept
		}
		if !errors.Is(opErr, storage.ErrInjectedFault) {
			t.Fatalf("cat %v fault %d: unexpected error %v", cat, k, opErr)
		}
		if err := tab.CheckInvariants(); err != nil {
			t.Fatalf("cat %v fault %d: invariants violated after rollback: %v", cat, k, err)
		}
		after, err := tab.SnapshotRows()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snap, after) {
			t.Fatalf("cat %v fault %d: visible rows differ from pre-statement snapshot", cat, k)
		}
	}
	t.Fatalf("cat %v: op never completed fault-free within %d fault points", cat, maxK)
}

func TestInsertRowRollbackSweep(t *testing.T) {
	build := func() (*Table, *storage.BufferPool) { return atomFixture(t, 256, 40) }
	row := []types.Value{types.NewInt(1000), types.NewString(pad("fresh", 0)), types.NewString("p")}
	for _, cat := range []storage.Category{storage.CatData, storage.CatIndex} {
		sweepOp(t, cat, build, func(tab *Table) func() error {
			return func() error {
				_, err := tab.InsertRow(row)
				return err
			}
		})
	}
}

func TestDeleteRowRollbackSweep(t *testing.T) {
	build := func() (*Table, *storage.BufferPool) { return atomFixture(t, 256, 40) }
	for _, cat := range []storage.Category{storage.CatData, storage.CatIndex} {
		sweepOp(t, cat, build, func(tab *Table) func() error {
			rid, row := rowWithAid(t, tab, 17)
			return func() error { return tab.DeleteRow(rid, row) }
		})
	}
}

func TestUpdateRowRollbackSweep(t *testing.T) {
	build := func() (*Table, *storage.BufferPool) { return atomFixture(t, 256, 40) }
	for _, cat := range []storage.Category{storage.CatData, storage.CatIndex} {
		sweepOp(t, cat, build, func(tab *Table) func() error {
			rid, row := rowWithAid(t, tab, 17)
			newRow := []types.Value{types.NewInt(1017), types.NewString(pad("moved", 3)), row[2]}
			return func() error {
				_, err := updateRow(tab, rid, row, newRow)
				return err
			}
		})
	}
}

// A DELETE whose index entries are already gone when the heap delete
// fails. DeleteRow removes both index entries, then deletes the heap
// record, its one data-page access (the delete hands back the removed
// bytes, so nothing reads the record first) — failing that access must
// restore the index entries.
func TestDeleteHeapFaultAfterIndexRemoval(t *testing.T) {
	tab, pool := atomFixture(t, 256, 40)
	rid, row := rowWithAid(t, tab, 23)
	snap, err := tab.SnapshotRows()
	if err != nil {
		t.Fatal(err)
	}
	pool.SetFetchFault(storage.FailNthFetch(1, storage.CatData))
	err = tab.DeleteRow(rid, row)
	pool.SetFetchFault(nil)
	if !errors.Is(err, storage.ErrInjectedFault) {
		t.Fatalf("want injected fault on the heap delete, got %v", err)
	}
	// The row must still be reachable through the unique index.
	pk := tab.Index("pk")
	if _, err := pk.Tree.Get(pk.KeyFor(row, rid)); err != nil {
		t.Errorf("unique index entry not restored: %v", err)
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Errorf("invariants after rollback: %v", err)
	}
	after, err := tab.SnapshotRows()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, after) {
		t.Error("visible rows differ from pre-statement snapshot")
	}
}

// An UPDATE whose heap relocation succeeds but
// whose index maintenance then fails. The row grows past its page so
// the heap moves it to a new RID; every index then rewrites its entry
// (same key, new RID). Failing any of those index accesses must move
// the row back and restore the old entries.
func TestUpdateRelocationIndexFaultSweep(t *testing.T) {
	const pageSize = 256
	grown := strings.Repeat("G", 180) // > half the page: cannot stay in place
	build := func() (*Table, *storage.BufferPool) { return atomFixture(t, pageSize, 40) }

	// Pre-flight without faults: prove this update really relocates.
	tab, _ := build()
	rid, row := rowWithAid(t, tab, 17)
	newRow := []types.Value{row[0], row[1], types.NewString(grown)}
	newRID, err := updateRow(tab, rid, row, newRow)
	if err != nil {
		t.Fatal(err)
	}
	if newRID == rid {
		t.Fatalf("fixture bug: update did not relocate (rid %v unchanged)", rid)
	}

	sweepOp(t, storage.CatIndex, build, func(tab *Table) func() error {
		rid, row := rowWithAid(t, tab, 17)
		newRow := []types.Value{row[0], row[1], types.NewString(grown)}
		return func() error {
			_, err := updateRow(tab, rid, row, newRow)
			return err
		}
	})
}

// UpdateRowsDeferredTxn must shift a dense unique key regardless of the
// order rows arrive in: ascending visits each collision before it is
// cleared, which immediate checking would reject.
func TestUpdateRowsDeferredOrderIndependent(t *testing.T) {
	for _, order := range []string{"ascending", "descending"} {
		tab, _ := atomFixture(t, 512, 20)
		rids, rows := allRowsByAid(t, tab)
		if order == "descending" {
			reverse(rids)
			reverse(rows)
		}
		newRows := make([][]types.Value, len(rows))
		for i, r := range rows {
			newRows[i] = []types.Value{types.NewInt(r[0].Int + 1), r[1], r[2]}
		}
		u := &UndoLog{}
		if err := tab.UpdateRowsDeferredTxn(nil, rids, rows, newRows, u); err != nil {
			t.Fatalf("%s: k = k+1 over dense keys failed: %v", order, err)
		}
		u.Discard()
		if err := tab.CheckInvariants(); err != nil {
			t.Fatalf("%s: invariants: %v", order, err)
		}
		_, after := allRowsByAid(t, tab)
		for i, r := range after {
			if r[0].Int != int64(i+1) {
				t.Fatalf("%s: key[%d] = %d, want %d", order, i, r[0].Int, i+1)
			}
		}
	}
}

// A deferred batch that genuinely collides with an untouched row must
// fail as a unique violation and roll back completely.
func TestUpdateRowsDeferredGenuineViolation(t *testing.T) {
	tab, _ := atomFixture(t, 512, 20)
	snap, err := tab.SnapshotRows()
	if err != nil {
		t.Fatal(err)
	}
	rid, row := rowWithAid(t, tab, 5)
	u := &UndoLog{}
	uerr := tab.UpdateRowsDeferredTxn(nil,
		[]storage.RID{rid},
		[][]types.Value{row},
		[][]types.Value{{types.NewInt(10), row[1], row[2]}}, // Aid 10 already exists
		u)
	if uerr == nil {
		t.Fatal("collision with an untouched row must fail")
	}
	if !strings.Contains(uerr.Error(), "unique") {
		t.Errorf("error should name the unique violation: %v", uerr)
	}
	if err := u.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Errorf("invariants after rollback: %v", err)
	}
	after, err := tab.SnapshotRows()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, after) {
		t.Error("rollback did not restore the pre-statement rows")
	}
}

// CheckInvariants must actually detect divergence, or the fault tests
// above prove nothing: a tree missing an entry, and a rootless unique
// index whose page holds one key twice.
func TestCheckInvariantsDetectsDivergence(t *testing.T) {
	tab, _ := atomFixture(t, 512, 30)
	if err := tab.CheckInvariants(); err != nil {
		t.Fatalf("fresh table should be consistent: %v", err)
	}
	rid, row := rowWithAid(t, tab, 3)
	pk := tab.Index("pk")
	if !pk.Built() {
		t.Fatalf("%d heap pages, pk not built", tab.Heap.NumPages())
	}
	if err := pk.Tree.Delete(pk.KeyFor(row, rid)); err != nil {
		t.Fatal(err)
	}
	if err := tab.CheckInvariants(); err == nil {
		t.Error("missing index entry should fail invariants")
	}

	tab, _ = atomFixture(t, 512, 3)
	if pk := tab.Index("pk"); pk.Built() {
		t.Fatal("a one-page table's pk has a tree")
	}
	_, row = rowWithAid(t, tab, 1)
	if _, err := tab.Heap.Insert(types.EncodeRow(nil, row)); err != nil {
		t.Fatal(err)
	}
	if err := tab.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "holds key") {
		t.Errorf("a rootless unique key held twice should fail invariants: %v", err)
	}
}

// updateRow is one row through UpdateRowsDeferredTxn without a
// transaction, rolled back on failure: a single-row UPDATE statement.
func updateRow(tab *Table, rid storage.RID, oldRow, newRow []types.Value) (storage.RID, error) {
	u := &UndoLog{}
	rids := []storage.RID{rid}
	if err := tab.UpdateRowsDeferredTxn(nil, rids, [][]types.Value{oldRow}, [][]types.Value{newRow}, u); err != nil {
		return storage.RID{}, errors.Join(err, u.Rollback())
	}
	return rids[0], nil
}

func rowWithAid(t *testing.T, tab *Table, aid int64) (storage.RID, []types.Value) {
	t.Helper()
	rids, rows := allRowsByAid(t, tab)
	for i, r := range rows {
		if r[0].Int == aid {
			return rids[i], r
		}
	}
	t.Fatalf("no row with Aid %d", aid)
	return storage.RID{}, nil
}

func allRowsByAid(t *testing.T, tab *Table) ([]storage.RID, [][]types.Value) {
	t.Helper()
	type pair struct {
		rid storage.RID
		row []types.Value
	}
	var ps []pair
	err := tab.Heap.Scan(func(rid storage.RID, rec []byte) (bool, error) {
		row, err := types.DecodeRow(rec)
		if err != nil {
			return false, err
		}
		for len(row) < len(tab.Columns) {
			row = append(row, types.Null())
		}
		ps = append(ps, pair{rid, row})
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].row[0].Int < ps[j].row[0].Int })
	rids := make([]storage.RID, len(ps))
	rows := make([][]types.Value, len(ps))
	for i, p := range ps {
		rids[i] = p.rid
		rows[i] = p.row
	}
	return rids, rows
}

func reverse[T any](s []T) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
