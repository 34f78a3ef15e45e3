package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/types"
)

// moveFixture: an extension-layout source serving the paper tenants
// through a LayoutMux, and a private-layout destination provisioned on
// the same database (private's physical names are per-tenant, so the
// two layouts coexist).
func moveFixture(t *testing.T) (*engine.DB, *LayoutMux, *PrivateLayout, *Mapper) {
	t.Helper()
	schema := paperSchema()
	src, err := NewExtensionLayout(schema)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewPrivateLayout(schema)
	if err != nil {
		t.Fatal(err)
	}
	db, mux, m := moveFixtureFor(t, src, dst, paperTenants())
	return db, mux, dst, m
}

// moveFixtureFor serves tenants from src through a LayoutMux and
// provisions dst, empty, on the same database; the two layouts'
// physical table names must not collide.
func moveFixtureFor(t *testing.T, src, dst Layout, tenants []*Tenant) (*engine.DB, *LayoutMux, *Mapper) {
	t.Helper()
	db := engine.Open(engine.Config{})
	mux := NewLayoutMux(src)
	if err := mux.Create(db, tenants); err != nil {
		t.Fatal(err)
	}
	if err := dst.Create(db, nil); err != nil {
		t.Fatal(err)
	}
	return db, mux, NewMapper(db, mux)
}

// TestMoveTenantBasic: a quiet tenant moves between layouts; data
// lands at the destination, routing flips, and post-move statements
// execute against the destination while other tenants stay put. Run
// over layout pairs of every kind — conventional, generic, pivoted,
// folded — with the cutover comparing source and destination as
// multisets (Verify).
func TestMoveTenantBasic(t *testing.T) {
	schema := paperSchema()
	pairs := []struct {
		name     string
		from, to func() (Layout, error)
	}{
		{"extension->private",
			func() (Layout, error) { return NewExtensionLayout(schema) },
			func() (Layout, error) { return NewPrivateLayout(schema) }},
		{"private->chunk",
			func() (Layout, error) { return NewPrivateLayout(schema) },
			func() (Layout, error) { return NewChunkLayout(schema, ChunkOptions{}) }},
		{"chunk->private",
			func() (Layout, error) { return NewChunkLayout(schema, ChunkOptions{}) },
			func() (Layout, error) { return NewPrivateLayout(schema) }},
		{"pivot->chunkfold",
			func() (Layout, error) { return NewPivotLayout(schema, true) },
			func() (Layout, error) {
				return NewChunkFoldingLayout(schema, FoldingOptions{ConventionalExtensions: []string{"HealthcareAccount"}})
			}},
		{"extension->universal",
			func() (Layout, error) { return NewExtensionLayout(schema) },
			func() (Layout, error) { return NewUniversalLayout(schema, 16) }},
		{"vertical->pivot",
			func() (Layout, error) { return NewVerticalLayout(schema, nil) },
			func() (Layout, error) { return NewPivotLayout(schema, false) }},
	}
	for _, pair := range pairs {
		t.Run(pair.name, func(t *testing.T) {
			src, err := pair.from()
			if err != nil {
				t.Fatal(err)
			}
			dst, err := pair.to()
			if err != nil {
				t.Fatal(err)
			}
			db, mux, m := moveFixtureFor(t, src, dst, paperTenants())
			testMoveTenantBasic(t, db, mux, dst, m)
		})
	}
}

func testMoveTenantBasic(t *testing.T, db *engine.DB, mux *LayoutMux, dst Layout, m *Mapper) {
	for i := 1; i <= 20; i++ {
		if _, err := m.Exec(35, fmt.Sprintf("INSERT INTO Account (Aid, Name) VALUES (%d, 'acct%d')", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	// A NULL-bearing row (pivot layouts store no cell for it).
	if _, err := m.Exec(35, "INSERT INTO Account (Aid, Name) VALUES (30, NULL)"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exec(17, "INSERT INTO Account (Aid, Name, Hospital, Beds) VALUES (1, 'hc', 'St Mary', 12), (2, NULL, 'X', NULL)"); err != nil {
		t.Fatal(err)
	}

	mv := &Mover{DB: db, Mux: mux, Verify: true}
	for _, tenant := range []int64{35, 17} {
		rep, err := mv.Move(tenant, dst)
		if err != nil {
			t.Fatalf("Move(%d): %v (report %+v)", tenant, err, rep)
		}
		if mux.Route(tenant) != dst {
			t.Fatalf("route of %d not flipped: %s", tenant, mux.Route(tenant).Name())
		}
		if rep.Rounds < 1 || rep.RowsCopied < 2 {
			t.Fatalf("report: %+v", rep)
		}
	}
	if mux.Route(42) != mux.def {
		t.Fatalf("tenant 42 rerouted: %s", mux.Route(42).Name())
	}

	// Served from the destination now.
	rows, err := m.Query(35, "SELECT Name FROM Account WHERE Aid = 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0].Str != "acct7" {
		t.Fatalf("post-move read: %+v", rows.Data)
	}
	// A post-move write goes to the destination's tables, not the
	// source's (so the destination's row sequence must have moved past
	// the copied rows): the source layout must NOT see it.
	if _, err := m.Exec(35, "INSERT INTO Account (Aid, Name) VALUES (21, 'after')"); err != nil {
		t.Fatal(err)
	}
	stale, err := sql.Parse("SELECT Aid FROM Account WHERE Aid = 21")
	if err != nil {
		t.Fatal(err)
	}
	rw, err := mux.def.Rewrite(35, stale)
	if err != nil {
		t.Fatal(err)
	}
	old, err := db.QueryStmt(rw.Query, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(old.Data) != 0 {
		t.Fatalf("write leaked to source layout: %+v", old.Data)
	}
	rows, err = m.Query(35, "SELECT COUNT(*) FROM Account")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].Int != 22 {
		t.Fatalf("tenant 35 has %v rows at the destination, want 22", rows.Data[0][0])
	}
	// Extension columns and NULLs came across.
	got := queryAll(t, m, 17, "SELECT Aid, Name, Hospital, Beds FROM Account")
	want := []string{"INTEGER:1|VARCHAR:hc|VARCHAR:St Mary|INTEGER:12", "INTEGER:2|NULL:NULL|VARCHAR:X|NULL:NULL"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("tenant 17 after move: %v", got)
	}
}

// TestMovePreservesTypes: dates, floats and booleans keep their kinds
// from a layout that stores everything as strings into one that stores
// them as integer and float cells.
func TestMovePreservesTypes(t *testing.T) {
	schema := &Schema{
		Tables: []*Table{{
			Name: "Event", Key: "Id",
			Columns: []Column{
				{Name: "Id", Type: types.IntType, NotNull: true, Indexed: true},
				{Name: "Day", Type: types.DateType},
				{Name: "Score", Type: types.FloatType},
				{Name: "Ok", Type: types.BoolType},
			},
		}},
	}
	src, _ := NewUniversalLayout(schema, 8)
	dst, _ := NewPivotLayout(schema, true)
	db, mux, m := moveFixtureFor(t, src, dst, []*Tenant{{ID: 1}})
	if _, err := m.Exec(1, "INSERT INTO Event VALUES (1, DATE '2008-06-09', 2.5, TRUE)"); err != nil {
		t.Fatal(err)
	}
	if _, err := (&Mover{DB: db, Mux: mux, Verify: true}).Move(1, dst); err != nil {
		t.Fatal(err)
	}
	rows, err := m.Query(1, "SELECT Day, Score, Ok FROM Event WHERE Id = 1")
	if err != nil {
		t.Fatal(err)
	}
	r := rows.Data[0]
	if r[0].Kind != types.KindDate || r[1].Kind != types.KindFloat || r[2].Kind != types.KindBool {
		t.Errorf("types after move: %v %v %v", r[0].Kind, r[1].Kind, r[2].Kind)
	}
}

// TestMoveVerifyCatchesDivergence: the cutover check compares source
// and destination as multisets and names the table that differs.
func TestMoveVerifyCatchesDivergence(t *testing.T) {
	db, mux, dst, m := moveFixture(t)
	loadPaperData(t, m)
	mv := &Mover{DB: db, Mux: mux, Verify: true}
	if _, err := mv.Move(17, dst); err != nil {
		t.Fatal(err)
	}
	tn, err := layoutTenant(dst, 17)
	if err != nil {
		t.Fatal(err)
	}
	if err := mv.verifyTable(mux.def, dst, tn, "Account"); err != nil {
		t.Fatalf("identical copies reported as diverged: %v", err)
	}
	// Tenant 17 is served by dst now; this write does not reach the source.
	if _, err := m.Exec(17, "UPDATE Account SET Beds = 1 WHERE Aid = 2"); err != nil {
		t.Fatal(err)
	}
	if err := mv.verifyTable(mux.def, dst, tn, "Account"); err == nil {
		t.Error("verify should detect the diverged row")
	} else if !strings.Contains(err.Error(), "Account") {
		t.Errorf("error should name the table: %v", err)
	}
}

// TestMoveTenantUnderTraffic is the tentpole test: the tenant keeps
// reading and writing through the whole move. Every acknowledged insert
// must be present at the destination afterwards — the convergence
// rounds plus the gated final delta may not lose a write — and no
// statement may fail.
func TestMoveTenantUnderTraffic(t *testing.T) {
	db, mux, dst, m := moveFixture(t)
	const seed = 400
	for i := 0; i < seed; i++ {
		if _, err := m.Exec(35, fmt.Sprintf("INSERT INTO Account (Aid, Name) VALUES (%d, 'seed%d')", i, i)); err != nil {
			t.Fatal(err)
		}
	}

	const writers = 3
	var (
		stop     atomic.Bool
		acked    atomic.Int64
		wg       sync.WaitGroup
		failures = make(chan error, 64)
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				aid := 1000 + w*100000 + i
				_, err := m.Exec(35, fmt.Sprintf("INSERT INTO Account (Aid, Name) VALUES (%d, 'w%d')", aid, w))
				if err != nil {
					select {
					case failures <- err:
					default:
					}
					return
				}
				acked.Add(1)
				if i%3 == 0 {
					if _, err := m.Query(35, fmt.Sprintf("SELECT Name FROM Account WHERE Aid = %d", aid)); err != nil {
						select {
						case failures <- err:
						default:
						}
						return
					}
				}
			}
		}(w)
	}

	// Small batches slow the copy down so the writers genuinely overlap
	// the convergence rounds.
	time.Sleep(2 * time.Millisecond)
	mv := &Mover{DB: db, Mux: mux, MaxRounds: 6, BatchRows: 4}
	rep, err := mv.Move(35, dst)
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatalf("Move: %v (report %+v)", err, rep)
	}
	close(failures)
	for ferr := range failures {
		t.Fatalf("foreground statement failed during move: %v", ferr)
	}

	rows, err := m.Query(35, "SELECT Aid FROM Account")
	if err != nil {
		t.Fatal(err)
	}
	want := seed + int(acked.Load())
	if len(rows.Data) != want {
		t.Fatalf("lost writes across move: %d rows at destination, %d acknowledged", len(rows.Data), want)
	}
	if mux.Route(35) != Layout(dst) {
		t.Fatalf("route not flipped")
	}
	t.Logf("move report: %+v (acked writes during move: %d)", rep, acked.Load())
}

// TestMoveRejects: moving a tenant onto its current layout is an error,
// not a silent no-op, and so is a destination that knows the tenant
// with other extensions.
func TestMoveRejects(t *testing.T) {
	db, mux, dst, _ := moveFixture(t)
	mv := &Mover{DB: db, Mux: mux}
	if _, err := mv.Move(35, mux.def); err == nil {
		t.Fatal("expected error moving tenant onto its own layout")
	}
	if err := dst.AddTenant(db, &Tenant{ID: 35, Extensions: []string{"AutomotiveAccount"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := mv.Move(35, dst); err == nil {
		t.Fatal("expected error: extension sets differ between layouts")
	}
	if _, err := mv.Move(99, dst); err == nil {
		t.Fatal("expected error moving an unknown tenant")
	}
}

// TestMoveCacheScoping: the move invalidates only the moved tenant's
// cached rewrites; a bystander tenant's entries stay warm across the
// whole move.
func TestMoveCacheScoping(t *testing.T) {
	db, mux, dst, m := moveFixture(t)
	q := "SELECT Name FROM Account WHERE Aid = 1"
	if _, err := m.Query(17, q); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(17, q); err != nil {
		t.Fatal(err)
	}
	before := m.Cache.Stats()

	mv := &Mover{DB: db, Mux: mux}
	if _, err := mv.Move(35, dst); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(17, q); err != nil {
		t.Fatal(err)
	}
	after := m.Cache.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("bystander tenant cold-started by move: before %+v after %+v", before, after)
	}
}
