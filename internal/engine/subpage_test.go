package engine

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

// A one-page table's heap page starts at a quarter of a page and grows
// in place. These tests crash a database after grows — committed,
// rolled back, before and after a checkpoint, and one an open
// transaction made — and recover its image as a primary and as a
// replica.

// subPageDB opens a database of 1 KiB pages, so 256-byte quarter pages,
// with table g holding two short rows.
func subPageDB(t *testing.T) (*DB, *catalog.Table) {
	t.Helper()
	db := Open(Config{MemoryBytes: 256 << 10, PageSize: 1024, CheckpointBytes: -1})
	mustExec(t, db, "CREATE TABLE g (id INT NOT NULL, val TEXT)")
	mustExec(t, db, "CREATE UNIQUE INDEX g_pk ON g (id)")
	mustExec(t, db, "INSERT INTO g VALUES (1, 'a'), (2, 'b')")
	tab, err := db.Catalog().Table("g")
	if err != nil {
		t.Fatal(err)
	}
	if n := pageOf(t, db, "g"); n != 256 {
		t.Fatalf("g starts on a page of %d bytes, want 256", n)
	}
	return db, tab
}

// pageOf returns the size of table's only heap page, as the disk
// records it.
func pageOf(t *testing.T, db *DB, table string) int {
	t.Helper()
	tab, err := db.Catalog().Table(table)
	if err != nil {
		t.Fatal(err)
	}
	pages := tab.Heap.Pages()
	if len(pages) != 1 {
		t.Fatalf("%s has %d heap pages, want 1", table, len(pages))
	}
	return db.Disk().SizeOf(pages[0])
}

// wide is a value that does not fit a quarter page beside two short
// rows, and fits a half page beside three.
var wide = types.NewString(strings.Repeat("w", 240))

// recoverBoth crashes db, recovers the image as a primary and a copy of
// it as a replica, and holds the two to the same rows and the same size
// of g's page, which it returns with the primary.
func recoverBoth(t *testing.T, db *DB) (*DB, int) {
	t.Helper()
	img := db.Crash()
	base, end := img.Log.DurableBounds()
	logBytes, _, err := img.Log.ReadDurable(base, int(end-base))
	if err != nil {
		t.Fatal(err)
	}
	twin := &CrashImage{
		Disk: storage.RestoreDisk(img.Disk.Snapshot()),
		Log:  wal.RestoreLog(wal.Config{}, base, logBytes),
		Cfg:  img.Cfg,
	}
	primary, rep, err := Recover(img)
	if err != nil {
		t.Fatalf("recover: %v (report %+v)", err, rep)
	}
	replica, _, err := RecoverReplica(twin)
	if err != nil {
		t.Fatalf("recover as a replica: %v", err)
	}
	if p, r := rowsByID(t, primary, "g"), rowsByID(t, replica, "g"); !reflect.DeepEqual(p, r) {
		t.Fatalf("g recovered as a primary %v, as a replica %v", p, r)
	}
	size := pageOf(t, primary, "g")
	if r := pageOf(t, replica, "g"); r != size {
		t.Fatalf("g's page recovered at %d bytes as a primary, %d as a replica", size, r)
	}
	return primary, size
}

// grows counts the durable grow records of the log.
func grows(db *DB) int {
	n := 0
	for _, r := range db.WAL().DurableRecords() {
		if r.Kind == wal.KHeapGrow {
			n++
		}
	}
	return n
}

// TestRecoverCommittedGrow: a committed insert that grew g's page, then
// a crash — recovery gives the page its size and the rows back.
func TestRecoverCommittedGrow(t *testing.T) {
	db, _ := subPageDB(t)
	mustExec(t, db, "INSERT INTO g VALUES (3, ?)", wide)
	if n := pageOf(t, db, "g"); n != 512 {
		t.Fatalf("g's page is %d bytes after a wide row, want 512", n)
	}
	want := rowsByID(t, db, "g")
	if grows(db) != 1 {
		t.Fatalf("%d grow records logged, want 1", grows(db))
	}
	db2, size := recoverBoth(t, db)
	if size != 512 {
		t.Fatalf("g's page recovered at %d bytes, want 512", size)
	}
	if got := rowsByID(t, db2, "g"); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	mustExec(t, db2, "INSERT INTO g VALUES (4, 'after')")
}

// TestRecoverRolledBackGrow: a transaction's insert grows g's page and
// the transaction rolls back; the page stays grown, and a committed
// insert then takes the room the grow made. Recovery as a primary and
// as a replica opens with the same rows — with a checkpoint between the
// rollback and the committed insert, and without one.
func TestRecoverRolledBackGrow(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		db, _ := subPageDB(t)
		s := db.Session()
		for _, q := range []string{"BEGIN", "INSERT INTO g VALUES (3, '" + wide.Str + "')", "ROLLBACK"} {
			if _, err := s.Exec(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
		s.Close()
		if n := pageOf(t, db, "g"); n != 512 {
			t.Fatalf("g's page is %d bytes after the rolled-back insert, want 512", n)
		}
		if checkpoint {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		mustExec(t, db, "INSERT INTO g VALUES (4, ?)", wide)
		if n := pageOf(t, db, "g"); n != 512 {
			t.Fatalf("the committed insert left g's page at %d bytes, want it to fit 512", n)
		}
		want := rowsByID(t, db, "g")
		if len(want) != 3 {
			t.Fatalf("g holds %v, want rows 1, 2 and 4", want)
		}
		db2, size := recoverBoth(t, db)
		if size != 512 {
			t.Fatalf("checkpoint %v: g's page recovered at %d bytes, want 512", checkpoint, size)
		}
		if got := rowsByID(t, db2, "g"); !reflect.DeepEqual(got, want) {
			t.Fatalf("checkpoint %v: recovered %v, want %v", checkpoint, got, want)
		}
	}
}

// TestRecoverLoserGrow: an open transaction's update widens row 1,
// which grows g's page; another session's committed insert then takes
// room only the grow made, and the crash leaves the transaction open.
// Recovery skips the loser's update but redoes its grow, so the
// committed row has its room. (A loser that inserts instead fails
// recovery on the committed insert's slot, grown page or not: the
// loser's slot is not on the recovered page.)
func TestRecoverLoserGrow(t *testing.T) {
	db, _ := subPageDB(t)
	loser := db.Session()
	for _, q := range []string{"BEGIN", "UPDATE g SET val = '" + wide.Str + "' WHERE id = 1"} {
		if _, err := loser.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if n := pageOf(t, db, "g"); n != 512 {
		t.Fatalf("g's page is %d bytes after the update, want 512", n)
	}
	narrower := strings.Repeat("n", 230)
	mustExec(t, db, "INSERT INTO g VALUES (4, ?)", types.NewString(narrower))
	if n := pageOf(t, db, "g"); n != 512 {
		t.Fatalf("the committed insert left g's page at %d bytes, want it to fit 512", n)
	}
	want := map[int64]string{1: "a", 2: "b", 4: narrower}
	db2, size := recoverBoth(t, db)
	if size != 512 {
		t.Fatalf("g's page recovered at %d bytes, want 512", size)
	}
	if got := rowsByID(t, db2, "g"); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

// TestBackfillGrowsSubPage: an ADD COLUMN's backfill widens every row
// of a quarter page filled to within a record of full; the rewritten
// rows need more than the page has, so the backfill grows the page in
// place rather than leaving rows in their old shape, and recovery
// redoes the grow it logged.
func TestBackfillGrowsSubPage(t *testing.T) {
	db, tab := subPageDB(t)
	// Rows 1..63 encode alike (a one-byte id varint, a one-byte value),
	// so the next insert fits while the page has room for one more.
	need := len(types.EncodeRow(nil, []types.Value{types.NewInt(3), types.NewString("c")})) + storage.SlotCost
	id := 3
	for ; ; id++ {
		_, free, ok := tab.Heap.OnePage()
		if !ok || free-(1024-256) < need {
			break
		}
		mustExec(t, db, "INSERT INTO g VALUES (?, 'c')", types.NewInt(int64(id)))
	}
	if n := pageOf(t, db, "g"); n != 256 {
		t.Fatalf("g's page is %d bytes after filling, want 256", n)
	}
	_, free, _ := tab.Heap.OnePage()
	if rows := id - 1; free-(1024-256) >= rows {
		t.Fatalf("%d bytes free beside %d rows: a one-byte column fits without a grow", free-(1024-256), rows)
	}
	mustExec(t, db, "ALTER TABLE g ADD COLUMN extra INT")
	waitMigrated(t, db)
	seen := false
	for _, p := range db.BackfillStatus() {
		if strings.EqualFold(p.Table, "g") {
			seen = true
			if p.Residual != 0 || p.Rewritten != int64(id-1) {
				t.Fatalf("backfill of g: %+v, want all %d rows rewritten and none residual", p, id-1)
			}
		}
	}
	if !seen {
		t.Fatal("no backfill progress recorded for g")
	}
	if n := pageOf(t, db, "g"); n != 512 {
		t.Fatalf("g's page is %d bytes after the backfill, want 512", n)
	}
	if grows(db) != 1 {
		t.Fatalf("%d grow records logged, want 1", grows(db))
	}
	want := rowsByID(t, db, "g")
	db2, size := recoverBoth(t, db)
	if size != 512 {
		t.Fatalf("g's page recovered at %d bytes, want 512", size)
	}
	if got := rowsByID(t, db2, "g"); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}
