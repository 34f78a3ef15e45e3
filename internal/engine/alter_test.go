package engine

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/types"
)

// waitMigrated blocks until the table's backfill reports done.
func waitMigrated(t *testing.T, db *DB) {
	t.Helper()
	if err := db.WaitBackfill(5 * time.Second); err != nil {
		t.Fatalf("backfill: %v (status %+v)", err, db.BackfillStatus())
	}
}

func TestOnlineAlterAddColumn(t *testing.T) {
	db := Open(Config{})
	mustExec(t, db, "CREATE TABLE acc (id INTEGER NOT NULL, name VARCHAR(20))")
	mustExec(t, db, "INSERT INTO acc VALUES (1, 'a'), (2, 'b')")
	mustExec(t, db, "ALTER TABLE acc ADD COLUMN beds INTEGER")
	// Old rows read NULL for the new column; new rows carry values.
	mustExec(t, db, "INSERT INTO acc VALUES (3, 'c', 135)")
	rows := mustQuery(t, db, "SELECT id, beds FROM acc ORDER BY id")
	if len(rows.Data) != 3 {
		t.Fatalf("rows: %+v", rows.Data)
	}
	if rows.Data[0][1].Kind != types.KindNull || rows.Data[2][1].Int != 135 {
		t.Errorf("beds column: %+v", rows.Data)
	}
	// SELECT * includes the new column.
	star := mustQuery(t, db, "SELECT * FROM acc WHERE id = 3")
	if len(star.Columns) != 3 || !strings.EqualFold(star.Columns[2], "beds") {
		t.Errorf("star columns: %v", star.Columns)
	}
	waitMigrated(t, db)
}

func TestOnlineAlterDropColumn(t *testing.T) {
	db := Open(Config{})
	mustExec(t, db, "CREATE TABLE acc (id INTEGER NOT NULL, name VARCHAR(20), beds INTEGER)")
	mustExec(t, db, "INSERT INTO acc VALUES (1, 'a', 10)")
	mustExec(t, db, "ALTER TABLE acc DROP COLUMN beds")
	star := mustQuery(t, db, "SELECT * FROM acc")
	if len(star.Columns) != 2 {
		t.Fatalf("star after drop: %v", star.Columns)
	}
	if _, err := db.Query("SELECT beds FROM acc"); err == nil {
		t.Fatal("dropped column still resolvable")
	}
	// The name can be reused: the new column is a fresh physical slot,
	// old rows read NULL (their retained bytes belong to the dead slot).
	mustExec(t, db, "ALTER TABLE acc ADD COLUMN beds INTEGER")
	mustExec(t, db, "INSERT INTO acc VALUES (2, 'b', 42)")
	rows := mustQuery(t, db, "SELECT id, beds FROM acc ORDER BY id")
	if rows.Data[0][1].Kind != types.KindNull || rows.Data[1][1].Int != 42 {
		t.Errorf("reused name: %+v", rows.Data)
	}
	waitMigrated(t, db)
}

func TestOnlineAlterDropColumnRejectsIndexed(t *testing.T) {
	db := Open(Config{})
	mustExec(t, db, "CREATE TABLE acc (id INTEGER NOT NULL, name VARCHAR(20))")
	mustExec(t, db, "CREATE INDEX byname ON acc (name)")
	if _, err := db.Exec("ALTER TABLE acc DROP COLUMN name"); err == nil {
		t.Fatal("dropping an indexed column must fail")
	}
}

func TestOnlineAlterWidenColumn(t *testing.T) {
	db := Open(Config{})
	mustExec(t, db, "CREATE TABLE m (id INTEGER NOT NULL, amount INTEGER)")
	mustExec(t, db, "CREATE INDEX byamt ON m (amount)")
	mustExec(t, db, "INSERT INTO m VALUES (1, 10), (2, 20)")
	mustExec(t, db, "ALTER TABLE m ALTER COLUMN amount TYPE FLOAT")
	mustExec(t, db, "INSERT INTO m VALUES (3, 10.5)")
	// Index probes must keep finding pre-widen INT rows: the ordered
	// key encoding is shared between INT and FLOAT.
	rows := mustQuery(t, db, "SELECT id FROM m WHERE amount = 10")
	if len(rows.Data) != 1 || rows.Data[0][0].Int != 1 {
		t.Errorf("int probe after widen: %+v", rows.Data)
	}
	rows = mustQuery(t, db, "SELECT id FROM m WHERE amount = 10.5")
	if len(rows.Data) != 1 || rows.Data[0][0].Int != 3 {
		t.Errorf("float probe: %+v", rows.Data)
	}
	if _, err := db.Exec("ALTER TABLE m ALTER COLUMN id TYPE VARCHAR(5)"); err == nil {
		t.Fatal("narrowing/incompatible retype must fail")
	}
	waitMigrated(t, db)
	// After backfill the stored INTs are coerced to FLOAT.
	rows = mustQuery(t, db, "SELECT amount FROM m WHERE id = 1")
	if rows.Data[0][0].Kind != types.KindFloat || rows.Data[0][0].Float != 10 {
		t.Errorf("backfilled value: %+v", rows.Data[0][0])
	}
}

// TestAlterSnapshotAnomaly is the core online-evolution guarantee: a
// snapshot that began before an ALTER keeps reading under the schema
// version pinned at its begin, concurrently with post-ALTER traffic.
func TestAlterSnapshotAnomaly(t *testing.T) {
	db := Open(Config{})
	mustExec(t, db, "CREATE TABLE acc (id INTEGER NOT NULL, name VARCHAR(20), beds INTEGER)")
	mustExec(t, db, "INSERT INTO acc VALUES (1, 'a', 10)")

	old := db.Session()
	defer old.Close()
	if _, err := old.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	// Pin the snapshot by observing something through it.
	pre, err := old.Query("SELECT * FROM acc")
	if err != nil {
		t.Fatal(err)
	}
	if len(pre.Columns) != 3 {
		t.Fatalf("pre-ALTER columns: %v", pre.Columns)
	}

	// The ALTERs run while the transaction is open — the fenced path
	// would reject this; the online path must not.
	mustExec(t, db, "ALTER TABLE acc ADD COLUMN phone VARCHAR(12)")
	mustExec(t, db, "ALTER TABLE acc DROP COLUMN beds")
	mustExec(t, db, "INSERT INTO acc VALUES (2, 'b', 'x')")

	// New reader: 3 visible columns (id, name, phone), beds gone.
	star := mustQuery(t, db, "SELECT * FROM acc WHERE id = 2")
	if len(star.Columns) != 3 || !strings.EqualFold(star.Columns[2], "phone") {
		t.Errorf("new schema star: %v", star.Columns)
	}

	// Old snapshot: still exactly (id, name, beds) — the added column
	// invisible, the dropped column alive with its value, and row 2
	// (committed after the snapshot) invisible too.
	got, err := old.Query("SELECT * FROM acc")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Columns) != 3 || !strings.EqualFold(got.Columns[2], "beds") {
		t.Fatalf("old snapshot star: %v", got.Columns)
	}
	if len(got.Data) != 1 || got.Data[0][2].Int != 10 {
		t.Fatalf("old snapshot rows: %+v", got.Data)
	}
	if _, err := old.Query("SELECT phone FROM acc"); err == nil {
		t.Error("old snapshot resolved a column added after its begin")
	}
	if _, err := old.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	waitMigrated(t, db)
}

// TestAlterBackfillRewritesColdRows proves the background worker, not
// just foreground DML, upgrades stale encodings: after WaitBackfill
// every heap record has the full arity.
func TestAlterBackfillRewritesColdRows(t *testing.T) {
	db := Open(Config{})
	mustExec(t, db, "CREATE TABLE acc (id INTEGER NOT NULL, name VARCHAR(20))")
	for i := 0; i < 200; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO acc VALUES (%d, 'n%d')", i, i))
	}
	mustExec(t, db, "ALTER TABLE acc ADD COLUMN beds INTEGER")
	waitMigrated(t, db)

	tbl, err := db.Catalog().Table("acc")
	if err != nil {
		t.Fatal(err)
	}
	want := len(tbl.Columns)
	stale := 0
	tbl.Mu.RLock()
	err = tbl.Heap.Scan(func(rid storage.RID, rec []byte) (bool, error) {
		arity, _ := binary.Uvarint(rec)
		if int(arity) != want {
			stale++
		}
		return true, nil
	})
	tbl.Mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if stale != 0 {
		t.Errorf("%d rows still stale after backfill", stale)
	}
	var prog bool
	for _, p := range db.BackfillStatus() {
		if strings.EqualFold(p.Table, "acc") {
			prog = true
			if !p.Done || p.Rewritten == 0 {
				t.Errorf("progress: %+v", p)
			}
		}
	}
	if !prog {
		t.Error("no backfill progress recorded for acc")
	}
}

// TestAlterLazyUpgradeOnWrite: a foreground UPDATE touching a stale row
// rewrites it to the newest schema and the counter records it.
func TestAlterLazyUpgradeOnWrite(t *testing.T) {
	db := Open(Config{})
	mustExec(t, db, "CREATE TABLE acc (id INTEGER NOT NULL, name VARCHAR(20))")
	mustExec(t, db, "INSERT INTO acc VALUES (1, 'a')")

	// Keep the backfiller off the row until the foreground write we want
	// to observe has happened. A pinned snapshot alone does not: padding
	// a row to a new arity is safe under any snapshot, so the backfiller
	// does it at once, and used to win the race for the row in a few runs
	// per thousand. What it does leave alone is a row with a live version
	// chain — so give the row one: a write the held snapshot cannot see.
	hold := db.Session()
	defer hold.Close()
	if _, err := hold.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := hold.Query("SELECT * FROM acc"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "UPDATE acc SET name = 'a2' WHERE id = 1")

	mustExec(t, db, "ALTER TABLE acc ADD COLUMN beds INTEGER")
	mustExec(t, db, "UPDATE acc SET name = 'b' WHERE id = 1")

	tbl, err := db.Catalog().Table("acc")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.LazyUpgrades.Load(); got != 1 {
		t.Errorf("LazyUpgrades = %d, want 1", got)
	}
	rows := mustQuery(t, db, "SELECT name, beds FROM acc WHERE id = 1")
	if rows.Data[0][0].Str != "b" || rows.Data[0][1].Kind != types.KindNull {
		t.Errorf("row after lazy upgrade: %+v", rows.Data)
	}
	if _, err := hold.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	waitMigrated(t, db)
}

// TestAlterConcurrentTraffic hammers a table with readers and writers
// while ALTERs land — no statement may fail, and the final schema must
// win.
func TestAlterConcurrentTraffic(t *testing.T) {
	db := Open(Config{})
	mustExec(t, db, "CREATE TABLE acc (id INTEGER NOT NULL, name VARCHAR(20))")
	mustExec(t, db, "CREATE UNIQUE INDEX pk ON acc (id)")
	for i := 0; i < 50; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO acc VALUES (%d, 'n%d')", i, i))
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%2 == 0 {
					if _, err := db.Query("SELECT name FROM acc WHERE id = ?", types.NewInt(int64(i%50))); err != nil {
						errc <- err
						return
					}
				} else {
					if _, err := db.Exec("UPDATE acc SET name = ? WHERE id = ?",
						types.NewString(fmt.Sprintf("w%d-%d", w, i)), types.NewInt(int64(i%50))); err != nil {
						errc <- err
						return
					}
				}
			}
		}(w)
	}
	for i := 0; i < 4; i++ {
		mustExec(t, db, fmt.Sprintf("ALTER TABLE acc ADD COLUMN extra%d INTEGER", i))
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("concurrent statement failed during online ALTER: %v", err)
	default:
	}
	star := mustQuery(t, db, "SELECT * FROM acc WHERE id = 1")
	if len(star.Columns) != 6 {
		t.Errorf("final schema: %v", star.Columns)
	}
	waitMigrated(t, db)
}

// TestStructuralDDLStaysFenced: CREATE INDEX and DROP TABLE keep the
// exclusive fence and still reject open transactions — the documented
// exception to online evolution.
func TestStructuralDDLStaysFenced(t *testing.T) {
	db := Open(Config{})
	mustExec(t, db, "CREATE TABLE acc (id INTEGER NOT NULL, name VARCHAR(20))")
	s := db.Session()
	defer s.Close()
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("SELECT * FROM acc"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE INDEX pk ON acc (id)"); err == nil {
		t.Error("CREATE INDEX with an open transaction must stay rejected")
	}
	if _, err := db.Exec("ALTER TABLE acc ADD COLUMN beds INTEGER"); err != nil {
		t.Errorf("online ALTER with an open transaction: %v", err)
	}
	if _, err := s.Exec("ALTER TABLE acc ADD COLUMN x INTEGER"); err == nil {
		t.Error("ALTER inside an open transaction must stay rejected")
	}
	if _, err := s.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
}
