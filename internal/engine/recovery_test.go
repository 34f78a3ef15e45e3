package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

// rowsByID returns id -> val for a two-column (id INT, val TEXT) table.
func rowsByID(t *testing.T, db *DB, table string) map[int64]string {
	t.Helper()
	rows, err := db.Query(fmt.Sprintf("SELECT id, val FROM %s", table))
	if err != nil {
		t.Fatalf("query %s: %v", table, err)
	}
	out := make(map[int64]string, len(rows.Data))
	for _, r := range rows.Data {
		out[r[0].Int] = r[1].Str
	}
	return out
}

func TestRecoverCommittedVisible(t *testing.T) {
	db := Open(Config{MemoryBytes: 256 << 10, PageSize: 1024, CheckpointBytes: -1})
	mustExec(t, db, "CREATE TABLE accounts (id INT NOT NULL, val TEXT)")
	mustExec(t, db, "CREATE UNIQUE INDEX accounts_pk ON accounts (id)")
	want := map[int64]string{}
	for i := 0; i < 60; i++ {
		mustExec(t, db, "INSERT INTO accounts VALUES (?, ?)",
			types.NewInt(int64(i)), types.NewString(fmt.Sprintf("v%03d", i)))
		want[int64(i)] = fmt.Sprintf("v%03d", i)
	}
	mustExec(t, db, "UPDATE accounts SET val = 'patched' WHERE id < 10")
	for i := 0; i < 10; i++ {
		want[int64(i)] = "patched"
	}
	mustExec(t, db, "DELETE FROM accounts WHERE id >= 50")
	for i := 50; i < 60; i++ {
		delete(want, int64(i))
	}

	db2, rep, err := Recover(db.Crash())
	if err != nil {
		t.Fatalf("recover: %v (report %+v)", err, rep)
	}
	if got := rowsByID(t, db2, "accounts"); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered rows mismatch:\n got %v\nwant %v", got, want)
	}
	// The index survived and answers point queries.
	rows, err := db2.Query("SELECT val FROM accounts WHERE id = 7")
	if err != nil || len(rows.Data) != 1 {
		t.Fatalf("index lookup after recovery: rows=%v err=%v", rows, err)
	}
	if s := db2.Stats(); s.Recoveries != 1 || s.RecoveryReplayed == 0 {
		t.Fatalf("stats: %+v", s)
	}
	if rep.Losers != 0 {
		t.Fatalf("unexpected losers in clean crash: %+v", rep)
	}
	// The recovered database accepts new statements.
	mustExec(t, db2, "INSERT INTO accounts VALUES (100, 'after')")
}

func TestRecoverDiscardsUncommittedTail(t *testing.T) {
	db := Open(Config{MemoryBytes: 256 << 10, PageSize: 1024, CheckpointBytes: -1})
	mustExec(t, db, "CREATE TABLE t (id INT, val TEXT)")
	// Crash on the 40th WAL/disk operation: mid-workload, inside some
	// statement's append sequence.
	plan := wal.InstallCrashPlan(40, db.Disk(), db.WAL())
	want := map[int64]string{}
	var failed int64 = -1
	for i := 0; i < 30; i++ {
		_, err := db.Exec("INSERT INTO t VALUES (?, ?)", types.NewInt(int64(i)), types.NewString("x"))
		if err != nil {
			failed = int64(i)
			break
		}
		want[int64(i)] = "x"
	}
	if !plan.Fired() || failed < 0 {
		t.Fatalf("crash plan never fired (failed=%d)", failed)
	}
	db2, rep, err := Recover(db.Crash())
	if err != nil {
		t.Fatalf("recover: %v (report %+v)", err, rep)
	}
	got := rowsByID(t, db2, "t")
	// Every acknowledged insert is visible; the failed one must be
	// all-or-nothing (its commit may or may not have reached the log
	// before the crash).
	withFailed := make(map[int64]string, len(want)+1)
	for k, v := range want {
		withFailed[k] = v
	}
	withFailed[failed] = "x"
	if !reflect.DeepEqual(got, want) && !reflect.DeepEqual(got, withFailed) {
		t.Fatalf("recovered rows violate atomicity:\n got %v\nacked %v", got, want)
	}
}

func TestRecoverCrashDuringIndexBackfill(t *testing.T) {
	db := Open(Config{MemoryBytes: 256 << 10, PageSize: 1024, CheckpointBytes: -1})
	mustExec(t, db, "CREATE TABLE t (id INT, val TEXT)")
	for i := 0; i < 80; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (?, ?)", types.NewInt(int64(i)), types.NewString("x"))
	}
	// Count how many WAL/disk ops the CREATE INDEX costs, then re-run
	// with the crash planted in the middle of the backfill.
	probe := wal.InstallCrashPlan(wal.NeverCrash, db.Disk(), db.WAL())
	mustExec(t, db, "CREATE INDEX t_id ON t (id)")
	mid := probe.Ops() / 2
	if mid < 2 {
		t.Fatalf("backfill too cheap to split: %d ops", probe.Ops())
	}
	mustExec(t, db, "DROP INDEX t_id ON t")

	db2 := Open(Config{MemoryBytes: 256 << 10, PageSize: 1024, CheckpointBytes: -1})
	mustExec(t, db2, "CREATE TABLE t (id INT, val TEXT)")
	want := map[int64]string{}
	for i := 0; i < 80; i++ {
		mustExec(t, db2, "INSERT INTO t VALUES (?, ?)", types.NewInt(int64(i)), types.NewString("x"))
		want[int64(i)] = "x"
	}
	plan := wal.InstallCrashPlan(mid, db2.Disk(), db2.WAL())
	if _, err := db2.Exec("CREATE INDEX t_id ON t (id)"); err == nil {
		t.Fatal("CREATE INDEX survived planted crash")
	}
	if !plan.Fired() {
		t.Fatal("crash plan never fired")
	}
	db3, rep, err := Recover(db2.Crash())
	if err != nil {
		t.Fatalf("recover: %v (report %+v)", err, rep)
	}
	if got := rowsByID(t, db3, "t"); !reflect.DeepEqual(got, want) {
		t.Fatalf("table rows damaged by aborted index build:\n got %v", got)
	}
	tab, err := db3.Catalog().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Indexes) != 0 {
		t.Fatalf("uncommitted index resurrected: %v", tab.Indexes)
	}
}

func TestCheckpointTruncatesAndBoundsReplay(t *testing.T) {
	db := Open(Config{MemoryBytes: 256 << 10, PageSize: 1024, CheckpointBytes: 8 << 10})
	mustExec(t, db, "CREATE TABLE t (id INT, val TEXT)")
	want := map[int64]string{}
	for i := 0; i < 400; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (?, ?)", types.NewInt(int64(i)), types.NewString("yyyyyyyyyyyyyyyy"))
		want[int64(i)] = "yyyyyyyyyyyyyyyy"
	}
	s := db.Stats()
	if s.WAL.Checkpoints == 0 {
		t.Fatalf("no automatic checkpoints: %+v", s.WAL)
	}
	if s.WAL.TruncatedBytes == 0 {
		t.Fatal("checkpoints never truncated the log")
	}
	total := s.WAL.Records
	db2, rep, err := Recover(db.Crash())
	if err != nil {
		t.Fatalf("recover: %v (report %+v)", err, rep)
	}
	if rep.CheckpointLSN == 0 {
		t.Fatal("recovery found no checkpoint")
	}
	if int64(rep.DurableRecords) >= total {
		t.Fatalf("truncation did not bound recovery: %d records durable of %d appended",
			rep.DurableRecords, total)
	}
	if got := rowsByID(t, db2, "t"); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered rows mismatch (%d rows, want %d)", len(got), len(want))
	}
}

func TestRecoverTwiceIsIdempotent(t *testing.T) {
	db := Open(Config{MemoryBytes: 256 << 10, PageSize: 1024, CheckpointBytes: 4 << 10})
	mustExec(t, db, "CREATE TABLE t (id INT, val TEXT)")
	mustExec(t, db, "CREATE UNIQUE INDEX t_pk ON t (id)")
	for i := 0; i < 150; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (?, ?)", types.NewInt(int64(i)), types.NewString("z"))
	}
	mustExec(t, db, "DELETE FROM t WHERE id >= 100")

	db2, rep1, err := Recover(db.Crash())
	if err != nil {
		t.Fatalf("first recover: %v", err)
	}
	first := rowsByID(t, db2, "t")

	// Crash again without running a single statement: the durable state
	// is untouched (recovery flushes nothing), so a second recovery must
	// reproduce it exactly.
	db3, rep2, err := Recover(db2.Crash())
	if err != nil {
		t.Fatalf("second recover: %v", err)
	}
	second := rowsByID(t, db3, "t")
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("recovery not idempotent:\nfirst  %v\nsecond %v", first, second)
	}
	if rep1.Replayed != rep2.Replayed || rep1.DurableRecords != rep2.DurableRecords {
		t.Fatalf("second recovery saw different work: %+v vs %+v", rep1, rep2)
	}
	if s := db3.Stats(); s.Recoveries != 2 {
		t.Fatalf("recovery lineage lost: %+v", s)
	}
}

func TestRecoverDDLHistory(t *testing.T) {
	db := Open(Config{MemoryBytes: 256 << 10, PageSize: 1024, CheckpointBytes: -1})
	mustExec(t, db, "CREATE TABLE keep (id INT, val TEXT)")
	mustExec(t, db, "CREATE TABLE doomed (id INT, val TEXT)")
	for i := 0; i < 20; i++ {
		mustExec(t, db, "INSERT INTO keep VALUES (?, 'k')", types.NewInt(int64(i)))
		mustExec(t, db, "INSERT INTO doomed VALUES (?, 'd')", types.NewInt(int64(i)))
	}
	mustExec(t, db, "CREATE INDEX keep_id ON keep (id)")
	mustExec(t, db, "ALTER TABLE keep ADD COLUMN note TEXT")
	mustExec(t, db, "DROP TABLE doomed")

	db2, rep, err := Recover(db.Crash())
	if err != nil {
		t.Fatalf("recover: %v (report %+v)", err, rep)
	}
	if db2.Catalog().HasTable("doomed") {
		t.Fatal("dropped table resurrected")
	}
	tab, err := db2.Catalog().Table("keep")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Columns) != 3 {
		t.Fatalf("ALTER lost: columns = %v", tab.Columns)
	}
	if len(tab.Indexes) != 1 || tab.Indexes[0].Name != "keep_id" {
		t.Fatalf("index lost: %v", tab.Indexes)
	}
	rows, err := db2.Query("SELECT note FROM keep WHERE id = 3")
	if err != nil || len(rows.Data) != 1 || !rows.Data[0][0].IsNull() {
		t.Fatalf("added column not NULL-padded: %v err=%v", rows, err)
	}
}

func TestGroupCommitReducesSyncs(t *testing.T) {
	// Statements on the same table serialize on its write lock, so group
	// commit only overlaps across tables — one per tenant, as in the
	// paper's workloads.
	run := func(noGroup bool) (syncs, commits int64) {
		db := Open(Config{
			MemoryBytes: 1 << 20, PageSize: 1024,
			SyncLatency: 500 * time.Microsecond, NoGroupCommit: noGroup,
			CheckpointBytes: -1,
		})
		const workers, per = 8, 12
		for w := 0; w < workers; w++ {
			mustExec(t, db, fmt.Sprintf("CREATE TABLE tenant%d (id INT, val TEXT)", w))
		}
		db.ResetStats()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					_, err := db.Exec(fmt.Sprintf("INSERT INTO tenant%d VALUES (?, 'g')", w),
						types.NewInt(int64(i)))
					if err != nil {
						t.Errorf("insert: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		s := db.Stats()
		return s.WAL.Syncs, s.WAL.Commits
	}
	gSyncs, gCommits := run(false)
	nSyncs, nCommits := run(true)
	if gCommits != nCommits {
		t.Fatalf("unequal commit counts: %d vs %d", gCommits, nCommits)
	}
	if nSyncs < nCommits {
		t.Fatalf("baseline somehow batched: %d syncs for %d commits", nSyncs, nCommits)
	}
	if gSyncs >= nSyncs {
		t.Fatalf("group commit saved nothing: %d syncs vs baseline %d", gSyncs, nSyncs)
	}
}

// indexPages copies the pages of every index of db, by table and index.
func indexPages(t *testing.T, db *DB) map[string]map[storage.PageID][]byte {
	out := map[string]map[storage.PageID][]byte{}
	for _, name := range db.Catalog().TableNames() {
		tab, err := db.Catalog().Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range tab.Indexes {
			ids, err := ix.Tree.Pages()
			if err != nil {
				t.Fatal(err)
			}
			pages := map[storage.PageID][]byte{}
			for _, id := range ids {
				buf, err := db.pool.Fetch(id, storage.CatIndex)
				if err != nil {
					t.Fatal(err)
				}
				pages[id] = bytes.Clone(buf)
				db.pool.Unpin(id, false)
			}
			out[name+"."+ix.Name] = pages
		}
	}
	return out
}

// TestPrimaryAndReplicaRecoveryAgree recovers one crash image twice, as
// a primary and as a replica. With no open transaction in the log the
// two replays are the same replay, so they must rebuild the same
// catalog — tables, columns, heap page lists, index roots — and the
// same rows, and every index, of either leaf kind, byte for byte as the
// primary held it before the crash. Each index of a has a page that
// stores a prefix, so the comparison covers the prefixes splits set;
// the indexes of c and d were built when a transaction gave their heap
// its second page — c's committed, d's rolled back after the build,
// past the last checkpoint, which the test takes itself — so it covers
// the build's replay too.
func TestPrimaryAndReplicaRecoveryAgree(t *testing.T) {
	db := Open(Config{MemoryBytes: 256 << 10, PageSize: 1024, CheckpointBytes: 4 << 10})
	mustExec(t, db, "CREATE TABLE a (id INT NOT NULL, val TEXT)")
	mustExec(t, db, "CREATE TABLE b (id INT NOT NULL, val TEXT)")
	mustExec(t, db, "CREATE UNIQUE INDEX a_pk ON a (id)")
	// c and d each cross one heap page inside a transaction, which builds
	// their indexes; c's commits, d's rolls back after the build.
	for _, tab := range []string{"c", "d"} {
		mustExec(t, db, "CREATE TABLE "+tab+" (id INT NOT NULL, k INT, val TEXT)")
		mustExec(t, db, "CREATE UNIQUE INDEX "+tab+"_pk ON "+tab+" (id)")
		mustExec(t, db, "CREATE INDEX "+tab+"_k ON "+tab+" (k)")
	}
	crossInTxn := func(tab, end string) {
		s := db.Session()
		defer s.Close()
		tb, err := db.Catalog().Table(tab)
		if err != nil {
			t.Fatal(err)
		}
		qs := []string{"BEGIN", "INSERT INTO " + tab + " VALUES (1, 1, 'x'), (2, 2, 'y')", "UPDATE " + tab + " SET k = 7 WHERE id = 1"}
		for _, q := range qs {
			if _, err := s.Exec(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
		for i := 3; tb.Heap.NumPages() < 2; i++ {
			if _, err := s.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%d, %d, '%s')", tab, i, i%4, strings.Repeat("w", 100))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Exec(end); err != nil {
			t.Fatal(err)
		}
		if !tb.Indexes[0].Built() {
			t.Fatalf("%s: not built on %d heap pages", tab, tb.Heap.NumPages())
		}
	}
	for i := 0; i < 240; i++ {
		id := types.NewInt(int64(i))
		mustExec(t, db, "INSERT INTO a (id, val) VALUES (?, ?)", id, types.NewString(fmt.Sprintf("a%03d", i)))
		mustExec(t, db, "INSERT INTO b VALUES (?, 'b')", id)
		switch i {
		case 40:
			mustExec(t, db, "CREATE INDEX b_id ON b (id)")
		case 60:
			mustExec(t, db, "CREATE INDEX a_val ON a (val)")
		case 80:
			mustExec(t, db, "ALTER TABLE a ADD COLUMN note TEXT")
		case 120:
			mustExec(t, db, "DROP INDEX b_id ON b")
		case 100:
			crossInTxn("c", "COMMIT")
		case 160:
			mustExec(t, db, "DROP TABLE b")
			mustExec(t, db, "CREATE TABLE b (id INT NOT NULL, val TEXT)")
		case 200:
			s := db.Session()
			for _, q := range []string{"BEGIN", "UPDATE a SET val = 'x' WHERE id < 20", "DELETE FROM a WHERE id >= 190", "COMMIT"} {
				if _, err := s.Exec(q); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}
			s.Close()
		}
	}
	// The checkpoint recovery restores is this one: every DDL record
	// above lies before it and d's build after it, however much log the
	// statements above wrote and wherever that put the automatic ones.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.cfg.CheckpointBytes = 0 // no automatic checkpoint past it
	crossInTxn("d", "ROLLBACK")
	mustExec(t, db, "INSERT INTO d VALUES (5, 5, 'after')")

	live := indexPages(t, db)
	if len(live) != 6 {
		t.Fatalf("want a unique and a non-unique index on a, c and d, have %d", len(live))
	}
	for _, name := range []string{"a.a_pk", "a.a_val"} {
		pages := live[name]
		prefixed := 0
		for _, page := range pages {
			if btree.PrefixLen(page) > 0 {
				prefixed++
			}
		}
		if prefixed == 0 {
			t.Fatalf("none of the %d pages of %s stores a prefix", len(pages), name)
		}
	}
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
	if rep.Losers != 0 || rep.CheckpointLSN == 0 {
		t.Fatalf("want a checkpointed image without losers: %+v", rep)
	}
	// The image must hold DDL its checkpoint snapshot already reflects,
	// or the two replays never meet the checkpoint rule.
	// And a build past it, or the two replays never attach a root.
	var early, builds int
	for _, r := range primary.WAL().DurableRecords() {
		if r.Kind != wal.KCatalog {
			continue
		}
		if r.LSN <= rep.CheckpointLSN {
			early++
		} else if ch, err := catalog.DecodeDDLChange(r.Data); err == nil && ch.Op == catalog.OpBuildIndex {
			builds++
		}
	}
	if early == 0 || builds == 0 {
		t.Fatalf("%d catalog records at or before the restored checkpoint, %d builds past it", early, builds)
	}
	t.Logf("report %+v; %d catalog records at or before the checkpoint, %d builds past it", rep, early, builds)
	replica, _, err := RecoverReplica(twin)
	if err != nil {
		t.Fatalf("recover replica: %v", err)
	}

	if p, r := primary.Catalog().Snapshot(), replica.Catalog().Snapshot(); !reflect.DeepEqual(p, r) {
		t.Fatalf("catalogs differ:\nprimary %+v\nreplica %+v", p, r)
	}
	for _, name := range primary.Catalog().TableNames() {
		rows := func(db *DB) map[storage.RID][]types.Value {
			tab, err := db.Catalog().Table(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := tab.SnapshotRows()
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		if p, r := rows(primary), rows(replica); !reflect.DeepEqual(p, r) {
			t.Fatalf("%s: %d rows recovered as a primary, %d as a replica, or their contents differ", name, len(p), len(r))
		}
	}
	for name, db := range map[string]*DB{"primary": primary, "replica": replica} {
		if !reflect.DeepEqual(indexPages(t, db), live) {
			t.Errorf("the index pages recovered as a %s are not the pages the primary held", name)
		}
	}
}
