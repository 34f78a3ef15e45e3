package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/types"
)

// physicalRows snapshots every physical table of db by name.
func physicalRows(t *testing.T, db *engine.DB) map[string]map[storage.RID][]types.Value {
	t.Helper()
	cat := db.Catalog()
	out := map[string]map[storage.RID][]types.Value{}
	for _, name := range cat.TableNames() {
		tab, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if out[name], err = tab.SnapshotRows(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestLogicalWriteIsAtomic holds a logical write that fails part-way
// through its physical statements to the all-or-nothing of the plain
// database: outside a transaction, an INSERT whose extension row fails
// its cast must not leave the base row behind, nor an UPDATE failing in
// phase (b) the writes of the fragments before it. Every layout runs the
// statements autocommit on a sessionless Mapper and on a session Mapper.
func TestLogicalWriteIsAtomic(t *testing.T) {
	schema := paperSchema()
	failing := []string{
		"INSERT INTO Account (Aid, Name, Beds) VALUES (9, 'x', 'abc')",
		"UPDATE Account SET Name = 'y', Beds = 'abc' WHERE Aid = 1",
	}
	for _, session := range []bool{false, true} {
		mappers := allLayouts(t, schema)
		mappers["basic"] = basicFor(t, schema, paperTenants())
		for name, m := range mappers {
			if session {
				m = NewSessionMapper(m.DB, m.Layout)
			}
			// Basic holds no extension: Beds is unknown to its tenant 17.
			if _, err := m.Exec(17, "INSERT INTO Account (Aid, Name, Beds) VALUES (1, 'a', 5)"); err != nil && name != "basic" {
				t.Fatalf("%s: set-up insert: %v", name, err)
			}
			for _, q := range failing {
				before := physicalRows(t, m.DB)
				if _, err := m.Exec(17, q); err == nil {
					t.Errorf("%s (session %v): %s succeeded", name, session, q)
				}
				if after := physicalRows(t, m.DB); !reflect.DeepEqual(before, after) {
					t.Errorf("%s (session %v): %s changed the physical rows:\nbefore %v\nafter  %v", name, session, q, before, after)
				}
			}
			if session && m.Session.InTxn() {
				t.Errorf("%s: a failed autocommit write left a transaction open", name)
			}
		}
	}
}

// TestMistypedWriteRefused holds every layout to the plain database on a
// value the logical column's type refuses: an INSERT or UPDATE of it
// fails, and the tenant's rows stay readable as they were.
func TestMistypedWriteRefused(t *testing.T) {
	schema := paperSchema()
	dbs := map[string]logicalDB{"reference": newPlainTenants(t, schema, paperTenants())}
	for name, m := range allLayouts(t, schema) {
		dbs[name] = m
	}
	for name, db := range dbs {
		if _, err := db.Exec(17, "INSERT INTO Account (Aid, Name, Beds) VALUES (1, 'a', 5)"); err != nil {
			t.Fatalf("%s: set-up insert: %v", name, err)
		}
		for _, q := range []string{
			"INSERT INTO Account (Aid, Name, Beds) VALUES (9, 'x', 'abc')",
			"UPDATE Account SET Beds = 'zz' WHERE Aid = 1",
			"UPDATE Account SET Name = 'y', Beds = 'zz' WHERE Aid = 1",
		} {
			if _, err := db.Exec(17, q); err == nil {
				t.Errorf("%s: %s succeeded", name, q)
			}
		}
		rows, err := db.Query(17, "SELECT Aid, Name, Beds FROM Account WHERE Aid >= 1")
		if err != nil {
			t.Errorf("%s: read after refused writes: %v", name, err)
			continue
		}
		want := [][]types.Value{{types.NewInt(1), types.NewString("a"), types.NewInt(5)}}
		if !reflect.DeepEqual(rows.Data, want) {
			t.Errorf("%s: rows %v, want %v", name, rows.Data, want)
		}
	}
}

// TestConcurrentAtomicUpdates: autocommit UPDATEs of one logical row
// from several goroutines all succeed on every layout, and none is lost,
// where the statement reads in phase (a) and writes two fragments in
// phase (b). A write-write conflict between two such statements'
// transactions is theirs to retry, never the caller's error.
func TestConcurrentAtomicUpdates(t *testing.T) {
	const writers, each = 4, 25
	for name, m := range allLayouts(t, paperSchema()) {
		if _, err := m.Exec(17, "INSERT INTO Account (Aid, Name, Beds) VALUES (1, 'a', 5)"); err != nil {
			t.Fatalf("%s: set-up insert: %v", name, err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					q := fmt.Sprintf("UPDATE Account SET Name = 'w%d', Beds = Beds + 1 WHERE Aid = 1", w)
					if _, err := m.Exec(17, q); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("%s: concurrent update: %v", name, err)
		}
		rows, err := m.Query(17, "SELECT Beds FROM Account WHERE Aid = 1")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := int64(5 + writers*each); len(rows.Data) != 1 || rows.Data[0][0].Int != want {
			t.Errorf("%s: Beds %v after %d increments, want %d", name, rows.Data, writers*each, want)
		}
	}
}

// TestDDLWaitsForAtomicWrites: structural DDL — Private placing a new
// tenant's tables, a plain CREATE TABLE — runs while another tenant's
// multi-fragment INSERTs and two-phase UPDATEs run autocommit: the DDL
// waits for each write's transaction instead of refusing it, and no
// write fails.
func TestDDLWaitsForAtomicWrites(t *testing.T) {
	mappers := allLayouts(t, paperSchema())
	for _, name := range []string{"extension", "vertical", "chunkfold", "pivot"} {
		m := mappers[name]
		private, err := NewPrivateLayout(paperSchema())
		if err != nil {
			t.Fatal(err)
		}
		if err := private.Create(m.DB, nil); err != nil {
			t.Fatal(err)
		}
		var stop atomic.Bool
		writerErr := make(chan error, 1)
		go func() {
			defer close(writerErr)
			for i := 0; !stop.Load(); i++ {
				q := fmt.Sprintf("INSERT INTO Account (Aid, Name, Beds) VALUES (%d, 'n', %d)", i, i)
				if i%2 == 1 {
					q = fmt.Sprintf("UPDATE Account SET Name = 'u', Beds = %d WHERE Aid = %d", i, i-1)
				}
				if _, err := m.Exec(17, q); err != nil {
					writerErr <- err
					return
				}
			}
		}()
		for i := 0; i < 50; i++ {
			if err := private.AddTenant(m.DB, &Tenant{ID: int64(1000 + i)}); err != nil {
				t.Errorf("%s: AddTenant %d: %v", name, 1000+i, err)
				break
			}
			if _, err := m.DB.Exec(fmt.Sprintf("CREATE TABLE probe_%d (x INTEGER)", i)); err != nil {
				t.Errorf("%s: CREATE TABLE: %v", name, err)
				break
			}
		}
		stop.Store(true)
		if err := <-writerErr; err != nil {
			t.Errorf("%s: writer: %v", name, err)
		}
	}
}
