package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/mvcc"
	"repro/internal/sql"
	"repro/internal/types"
)

// The fragment layouts in which a statement of TestDirectClassification
// goes direct, by where goldenSchema's columns land (tenant 17 has both
// extensions, 35 none, 42 the automotive one):
//
//   - the key sits with the other base columns in a conventional table
//     (Extension, both Chunk Foldings) or in the one Universal row;
//   - the chunk layouts and Vertical give the indexed key a chunk of its
//     own, so nothing that names Aid next to another column fuses there;
//   - Pivot gives every column a fragment of its own, and every nullable
//     one is sparse, so only a statement on the key alone fuses there;
//   - Basic and Private place a table in one fragment, so every statement
//     fuses there, or fails at rewrite: Basic's tenants have no extension
//     columns, and neither layout has Row ids to run two phases on.
const (
	baseTogether = "extension chunkfold chunkfold-allfolded universal"
	everyFrag    = baseTogether + " chunk chunk-flat chunk-trashcan vertical"
)

// TestDirectClassification pins the fusion rule: which statement goes
// direct in which layout. A rule that widened — fused a statement whose
// columns span fragments — would show here before it lost an update.
func TestDirectClassification(t *testing.T) {
	cases := []struct {
		tenant int64
		sql    string
		direct string // layouts that fuse it; every other one runs two phases
		fails  string // of basic and private, those where the rewrite fails
	}{
		// SET and WHERE in the base columns.
		{17, "UPDATE Account SET Name = 'x' WHERE Aid = 1", baseTogether, ""},
		{17, "UPDATE Account SET Name = 'x', Active = FALSE WHERE Opened IS NULL AND Name LIKE 'a%'", everyFrag, ""},
		// Alias-qualified references, and a qualifier that is not the table's.
		{17, "UPDATE Account a SET Name = a.Name WHERE a.Aid = 1", baseTogether, ""},
		{17, "UPDATE Account a SET Name = 'x' WHERE b.Aid = 1", "", "basic private"},
		// IN-subquery in WHERE: the subquery is rewritten, the statement still fuses.
		{17, "UPDATE Account SET Name = 'x' WHERE Aid IN (SELECT Aid FROM Contact WHERE Email LIKE '%x')", baseTogether, ""},
		// Extension columns only. 42's Dealers and Certified share a folded
		// chunk (Certified a boolean in an integer slot: read and write
		// casts); the chunk layouts split them.
		{42, "UPDATE Account SET Certified = TRUE WHERE Dealers > 3", baseTogether, "basic"},
		{42, "UPDATE Account SET Certified = Certified WHERE Certified = FALSE", everyFrag, "basic"},
		{17, "UPDATE Account SET Beds = Beds + 1 WHERE Hospital = 'State'", baseTogether, "basic"},
		// WHERE in one fragment, SET in another.
		{17, "UPDATE Account SET Beds = 7 WHERE Aid = 1", "universal", "basic"},
		{42, "UPDATE Account SET Dealers = 0 WHERE Name = 'Big'", "universal chunk chunk-flat chunk-trashcan vertical", "basic"},
		// A SET expression reads another fragment's column.
		{17, "UPDATE Account SET Name = Hospital WHERE Name = 'x'", "universal", "basic"},
		// SET targets in two fragments.
		{17, "UPDATE Account SET Name = 'x', Hospital = 'y'", "universal", "basic"},
		// No WHERE: every fragment has a row for every logical row.
		{17, "UPDATE Account SET Beds = 0", everyFrag, "basic"},
		{17, "UPDATE Account SET Dealers = ?", everyFrag, "basic"},
		// The key alone: Pivot's key fragment is not sparse, so it fuses;
		// a nullable column's is, and an UPDATE of it would miss the rows
		// whose cell is absent.
		{17, "UPDATE Account SET Aid = Aid WHERE Aid = 1", everyFrag + " pivot", ""},
		{17, "UPDATE Account SET Beds = 7 WHERE Beds IS NULL", everyFrag, "basic"},
		// DELETE: direct only when the placement is one fragment.
		{35, "DELETE FROM Account WHERE Aid = 2", baseTogether, ""},
		{35, "DELETE FROM Account", baseTogether, ""},
		{17, "DELETE FROM Account WHERE Aid = 2", "universal", ""},
		{42, "DELETE FROM Account a WHERE a.Name = 'Big'", "universal", ""},
		{17, "DELETE FROM Contact WHERE Aid IN (SELECT Aid FROM Account WHERE Beds > 100)", baseTogether, ""},
	}
	layouts := goldenLayouts(t)
	for _, c := range cases {
		st, err := sql.Parse(c.sql)
		if err != nil {
			t.Fatalf("%q: %v", c.sql, err)
		}
		fuses := map[string]bool{"basic": true, "private": true}
		for _, name := range strings.Fields(c.direct) {
			fuses[name] = true
		}
		for name, m := range layouts {
			rw, err := m.Layout.Rewrite(c.tenant, st)
			if fails := strings.Contains(c.fails, name); fails || err != nil {
				if !fails || err == nil {
					t.Errorf("%s, tenant %d, %q: rewrite error %v, want one: %v", name, c.tenant, c.sql, err, fails)
				}
				continue
			}
			switch {
			case rw.Query != nil || rw.Inserted != 0:
				t.Errorf("%s, %q: rewritten as a query or an insert", name, c.sql)
			case fuses[name]:
				if len(rw.Direct) != 1 || !rw.DirectIsCount || rw.RowQuery != nil || rw.PhaseB != nil {
					t.Errorf("%s, tenant %d, %q: want one direct statement, got %+v", name, c.tenant, c.sql, rw)
				}
			default:
				if rw.Direct != nil || rw.DirectIsCount || rw.RowQuery == nil || rw.PhaseB == nil {
					t.Errorf("%s, tenant %d, %q: want two phases, got direct %v", name, c.tenant, c.sql, rw.Direct)
				}
			}
		}
	}
}

// TestDirectText spells out three fused statements: meta-data equalities
// first, then the marker, then the user's predicate over physical columns;
// values cast on the way in, read back through the cast on the way out.
func TestDirectText(t *testing.T) {
	layouts := layoutsFor(t, goldenSchema(), goldenTenants())
	for _, c := range []struct {
		layout string
		tenant int64
		sql    string
		want   string
	}{
		{"chunkfold", 17, "UPDATE Account a SET Name = 'x' WHERE a.Aid = ?",
			"UPDATE Account SET Name = 'x' WHERE Tenant = 17 AND Aid = ?"},
		{"chunkfold", 42, "UPDATE Account SET Certified = TRUE WHERE Certified = FALSE OR Dealers > 3",
			"UPDATE ChunkData SET Int2 = CAST(TRUE AS INTEGER) WHERE Tenant = 42 AND Table = 0 AND Chunk = 0 AND (CAST(Int2 AS BOOLEAN) = FALSE OR Int1 > 3)"},
		{"chunk-trashcan", 17, "UPDATE Account SET Beds = Beds + 1",
			"UPDATE ChunkData SET Int2 = Int2 + 1 WHERE Tenant = 17 AND Table = 0 AND Chunk = 0 AND Del = 0"},
	} {
		got, err := layouts[c.layout].RewriteSQL(c.tenant, c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != c.want {
			t.Errorf("%s, %q:\ngot  %q\nwant %q", c.layout, c.sql, got, c.want)
		}
	}
}

// TestPhaseBNoRows: a phase (a) that finds nothing yields no writes, in
// every layout that runs two phases.
func TestPhaseBNoRows(t *testing.T) {
	for name, m := range layoutsFor(t, goldenSchema(), goldenTenants()) {
		for _, q := range []string{
			"UPDATE Account SET Name = 'x', Beds = Beds + 1 WHERE Aid = 1",
			"DELETE FROM Account WHERE Aid = 1",
		} {
			st, err := sql.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			rw, err := m.Layout.Rewrite(17, st)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rw.PhaseB == nil {
				continue // private, universal: direct
			}
			if got := rw.PhaseB(nil); got != nil {
				t.Errorf("%s, %q: PhaseB(nil) = %v", name, q, got)
			}
			if got := rw.PhaseB([][]types.Value{}); got != nil {
				t.Errorf("%s, %q: PhaseB of no rows = %v", name, q, got)
			}
		}
	}
}

// wideTrashcan is a Trashcan chunk layout whose one chunk table takes
// every column of goldenSchema's base tables: tenants 17 and 35 hold
// Contact, and 35 its Account, in a single fragment.
func wideTrashcan(t *testing.T) (*Mapper, *FragmentLayout) {
	t.Helper()
	i, s, d := types.ColumnType{Kind: types.KindInt}, types.ColumnType{Kind: types.KindString}, types.ColumnType{Kind: types.KindDate}
	l, err := NewChunkLayout(goldenSchema(), ChunkOptions{
		Trashcan: true,
		Defs:     []*ChunkTableDef{{Name: "Wide", Cols: []types.ColumnType{i, i, s, d}, ValueIndex: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(engine.Config{})
	if err := l.Create(db, copyTenants(goldenTenants())); err != nil {
		t.Fatal(err)
	}
	return NewMapper(db, l), l
}

func mustExec(t *testing.T, m *Mapper, tenant int64, q string, want int64) {
	t.Helper()
	res, err := m.Exec(tenant, q)
	if err != nil {
		t.Fatalf("%s: Exec(%d, %q): %v", m.Layout.Name(), tenant, q, err)
	}
	if res.RowsAffected != want {
		t.Errorf("%s: Exec(%d, %q) affected %d rows, want %d", m.Layout.Name(), tenant, q, res.RowsAffected, want)
	}
}

// TestDirectTrashcan: fused statements see exactly the live rows. A
// fused DELETE marks instead of removing; a fused UPDATE or DELETE skips
// marked rows, also in a fragment an on-line extension added after the
// rows were trashcanned; RestoreRows brings a row back whole.
func TestDirectTrashcan(t *testing.T) {
	m, l := wideTrashcan(t)
	mustExec(t, m, 35, "INSERT INTO Account (Aid, Name) VALUES (1, 'a'), (2, 'b'), (3, 'c')", 3)

	// One fragment: DELETE fuses, and marks.
	if got, _ := m.RewriteSQL(35, "DELETE FROM Account WHERE Aid = 2"); len(got) != 1 || !strings.HasPrefix(got[0], "UPDATE Wide SET Del = 1 WHERE") {
		t.Fatalf("trashcan delete rewrote to %q", got)
	}
	mustExec(t, m, 35, "DELETE FROM Account WHERE Aid = 2", 1)
	mustExec(t, m, 35, "DELETE FROM Account WHERE Aid = 2", 0) // already in the trashcan
	mustExec(t, m, 35, "UPDATE Account SET Name = 'u'", 2)
	mustExec(t, m, 35, "UPDATE Account SET Name = 'v' WHERE Aid >= 2", 1)
	phys, err := m.DB.Query("SELECT Del FROM Wide WHERE Tenant = 35 AND Table = 0")
	if err != nil || len(phys.Data) != 3 {
		t.Fatalf("a trashcan delete must keep the physical row: %v, %v", phys, err)
	}

	// The extension's fragment is back-filled with the markers: the fused
	// UPDATE on it alone must not count row 2.
	if err := l.ExtendTenant(m.DB, 35, "AutomotiveAccount"); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.RewriteSQL(35, "UPDATE Account SET Dealers = 9"); len(got) != 1 || !strings.Contains(got[0], "Chunk = 1 AND Del = 0") {
		t.Fatalf("extension-only update rewrote to %q", got)
	}
	mustExec(t, m, 35, "UPDATE Account SET Dealers = 9", 2)
	mustExec(t, m, 35, "UPDATE Account SET Certified = TRUE WHERE Dealers = 9", 2)

	// Restored, row 2 is whole again: old base values, NULL extension.
	if err := l.RestoreRows(m.DB, 35, "Account", []types.Value{types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	got := queryAll(t, m, 35, "SELECT Aid, Name, Dealers, Certified FROM Account")
	want := []string{
		"INTEGER:1|VARCHAR:u|INTEGER:9|BOOLEAN:TRUE",
		"INTEGER:2|VARCHAR:b|NULL:NULL|NULL:NULL",
		"INTEGER:3|VARCHAR:v|INTEGER:9|BOOLEAN:TRUE",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("after restore:\ngot  %v\nwant %v", got, want)
	}
	mustExec(t, m, 35, "UPDATE Account SET Dealers = 1", 3)

	// Several fragments now: DELETE runs two phases and marks every
	// fragment, and the fused statements on either fragment agree.
	mustExec(t, m, 35, "DELETE FROM Account WHERE Dealers = 1 AND Aid > 2", 1)
	mustExec(t, m, 35, "UPDATE Account SET Dealers = 2", 2)
	mustExec(t, m, 35, "UPDATE Account SET Name = 'w'", 2)
}

// TestDirectFirstUpdaterWins: two sessions fuse an UPDATE of the same
// row. The second to write gets ErrWriteConflict — the engine's DML path
// is the one every direct statement takes — and under contention no
// increment is lost.
func TestDirectFirstUpdaterWins(t *testing.T) {
	l, err := NewChunkFoldingLayout(goldenSchema(), FoldingOptions{ConventionalExtensions: []string{"HealthcareAccount"}})
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(engine.Config{})
	if err := l.Create(db, copyTenants(goldenTenants())); err != nil {
		t.Fatal(err)
	}
	cache := NewRewriteCache(db, l, 0)
	session := func() *Mapper {
		m := NewSessionMapper(db, l)
		m.Cache = cache
		return m
	}
	exec := func(m *Mapper, q string) (engine.Result, error) { return m.Exec(17, q) }
	a, b := session(), session()
	mustExec(t, a, 17, "INSERT INTO Account (Aid, Name, Beds, Dealers) VALUES (1, 'n', 0, 0)", 1)

	// base fragment, conventional extension fragment, folded chunk.
	for _, q := range []string{
		"UPDATE Account SET Name = 'x' WHERE Aid = 1",
		"UPDATE Account SET Beds = Beds + 1 WHERE Beds >= 0",
		"UPDATE Account SET Dealers = Dealers + 1",
	} {
		if got, _ := a.RewriteSQL(17, q); len(got) != 1 || !strings.HasPrefix(got[0], "UPDATE") {
			t.Fatalf("%q is not fused: %q", q, got)
		}
		for _, m := range []*Mapper{a, b} {
			if _, err := exec(m, "BEGIN"); err != nil {
				t.Fatal(err)
			}
		}
		if res, err := exec(a, q); err != nil || res.RowsAffected != 1 {
			t.Fatalf("first updater, %q: %v, %v", q, res, err)
		}
		if _, err := exec(b, q); !errors.Is(err, mvcc.ErrWriteConflict) {
			t.Fatalf("second updater, %q: err = %v, want ErrWriteConflict", q, err)
		}
		if _, err := exec(a, "COMMIT"); err != nil {
			t.Fatal(err)
		}
		if _, err := exec(b, "ROLLBACK"); err != nil {
			t.Fatal(err)
		}
	}

	const workers, rounds = 4, 40
	var wg sync.WaitGroup
	won := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := session()
			for i := 0; i < rounds; i++ {
				if _, err := exec(m, "BEGIN"); err != nil {
					t.Error(err)
					return
				}
				_, err := exec(m, "UPDATE Account SET Dealers = Dealers + 1 WHERE Dealers >= 0")
				end := "COMMIT"
				if err != nil {
					if !errors.Is(err, mvcc.ErrWriteConflict) {
						t.Errorf("worker %d: %v", w, err)
					}
					end = "ROLLBACK"
				}
				if _, err := exec(m, end); err != nil {
					t.Errorf("worker %d: %s: %v", w, end, err)
					return
				}
				if end == "COMMIT" {
					won[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 1 // the serial round above
	for _, n := range won {
		total += n
	}
	rows, err := a.Query(17, "SELECT Dealers, Beds, Name FROM Account WHERE Aid = 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Data[0][0].Int; got != int64(total) {
		t.Errorf("Dealers = %d after %d committed increments", got, total)
	}
	if rows.Data[0][1].Int != 1 || rows.Data[0][2].Str != "x" {
		t.Errorf("other fragments: %v", rows.Data[0])
	}
	if st := cache.Stats(); st.DirectDML == 0 || st.TwoPhaseDML != 0 {
		t.Errorf("cache counted %d direct, %d two-phase executions", st.DirectDML, st.TwoPhaseDML)
	}
}

// TestDMLShapeCounters: the cache counts every UPDATE and DELETE it
// resolves — fill, template hit or raw-text hit — by the shape it runs
// in, and nothing else.
func TestDMLShapeCounters(t *testing.T) {
	m := layoutsFor(t, goldenSchema(), goldenTenants())["chunkfold"]
	m.Cache = NewRewriteCache(m.DB, m.Layout, 0)
	mustExec(t, m, 17, "INSERT INTO Account (Aid, Name, Beds) VALUES (1, 'a', 1), (2, 'b', 2)", 2)
	for _, q := range []string{
		"UPDATE Account SET Name = 'x' WHERE Aid = 1", // fill
		"UPDATE Account SET Name = 'y' WHERE Aid = 1", // template hit
		"UPDATE Account SET Name = 'y' WHERE Aid = 1", // raw-text hit
		"UPDATE Account SET Beds = 3 WHERE Aid = 1",   // two phases
		"UPDATE Account SET Beds = 3 WHERE Aid = 1",
	} {
		mustExec(t, m, 17, q, 1)
	}
	queryAll(t, m, 17, "SELECT Name FROM Account")
	mustExec(t, m, 17, "DELETE FROM Account WHERE Aid = 2", 1) // three fragments: two phases
	mustExec(t, m, 35, "DELETE FROM Account WHERE Aid = 2", 0) // one fragment: direct
	if st := m.Cache.Stats(); st.DirectDML != 4 || st.TwoPhaseDML != 3 {
		t.Errorf("counted %d direct and %d two-phase executions, want 4 and 3", st.DirectDML, st.TwoPhaseDML)
	}
}

// TestPhaseBPlansAreShared: phase (b)'s statements, built per execution
// from phase (a)'s rows, reach the engine lifted, so a repeated two-phase
// UPDATE or DELETE of another row plans nothing: its phase-(b) shapes hit
// the plan cache as its phase (a) does.
func TestPhaseBPlansAreShared(t *testing.T) {
	m := layoutsFor(t, goldenSchema(), goldenTenants())["chunkfold"]
	mustExec(t, m, 17, "INSERT INTO Account (Aid, Name, Beds) VALUES (1, 'a', 1), (2, 'b', 2), (3, 'c', 3), (4, 'd', 4)", 4)
	for _, q := range []string{
		"UPDATE Account SET Name = 'x%d', Beds = %d WHERE Aid = %d",
		"DELETE FROM Account WHERE Aid = %[3]d",
	} {
		for i, aid := range []int{1, 2} {
			if q[0] == 'D' {
				aid += 2
			}
			before := m.DB.Stats()
			mustExec(t, m, 17, fmt.Sprintf(q, aid, 10*aid, aid), 1)
			if after := m.DB.Stats(); i > 0 && after.PlanCacheMisses != before.PlanCacheMisses {
				t.Errorf("%q, second row: %d plan-cache misses", q, after.PlanCacheMisses-before.PlanCacheMisses)
			}
		}
	}
	if st := m.Cache.Stats(); st.TwoPhaseDML != 4 {
		t.Fatalf("the statements did not run in two phases: %+v", st)
	}
	got := queryAll(t, m, 17, "SELECT Aid, Name, Beds FROM Account")
	if want := "[INTEGER:1|VARCHAR:x1|INTEGER:10 INTEGER:2|VARCHAR:x2|INTEGER:20]"; fmt.Sprint(got) != want {
		t.Fatalf("after the writes: %v, want %s", got, want)
	}
}
