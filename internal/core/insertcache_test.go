package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sql"
)

// rowsByKey maps each of a tenant's logical rows of table, by its key, to
// the logical row id its anchor fragment stores.
func rowsByKey(t *testing.T, m *Mapper, tenant int64, table string) map[int64]int64 {
	t.Helper()
	l := m.Layout.(*FragmentLayout)
	lt := l.st.schema.Table(table)
	p, err := l.st.placement(tenant, lt)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := p.slot(lt.Key)
	sel := &sql.SelectStmt{
		Items: []sql.SelectItem{{Expr: colRef("", "Row")}, {Expr: key.col.read("")}},
		From:  []sql.TableRef{&sql.NamedTable{Name: p.anchor.table}},
		Where: sql.And(append(p.anchor.where("", tenant), p.anchor.live(""))...),
	}
	rows, err := m.DB.QueryStmt(sel, "")
	if err != nil {
		t.Fatal(err)
	}
	out := map[int64]int64{}
	for _, r := range rows.Data {
		if _, dup := out[r[1].Int]; dup {
			t.Fatalf("key %d stored twice", r[1].Int)
		}
		out[r[1].Int] = r[0].Int
	}
	return out
}

// TestCachedInsertRowIDsConcurrent: eight sessions insert into one
// (tenant, table) through one cached INSERT shape. Each statement's rows
// get consecutive logical row ids in row order, no two statements' ranges
// overlap, the shape is rewritten once, and every row reconstructs.
func TestCachedInsertRowIDsConcurrent(t *testing.T) {
	const sessions, stmts, width = 8, 12, 3
	for _, name := range []string{"chunkfold", "pivot", "extension"} {
		t.Run(name, func(t *testing.T) {
			l, err := LayoutByName(name, paperSchema())
			if err != nil {
				t.Fatal(err)
			}
			db := engine.Open(engine.Config{})
			if err := l.Create(db, paperTenants()); err != nil {
				t.Fatal(err)
			}
			before := SharedRewriteCache(l).Stats()
			aid := func(s, k, i int) int64 { return int64(1000*s + 10*k + i) }
			var wg sync.WaitGroup
			errs := make(chan error, sessions)
			for s := 0; s < sessions; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					m := NewSessionMapper(db, l)
					defer m.Session.Close()
					for k := 0; k < stmts; k++ {
						var vals []string
						for i := 0; i < width; i++ {
							vals = append(vals, fmt.Sprintf("(%d, 'n%d', 'h%d', %d)", aid(s, k, i), s, k, i))
						}
						if _, err := m.Exec(17, "INSERT INTO Account (Aid, Name, Hospital, Beds) VALUES "+strings.Join(vals, ", ")); err != nil {
							errs <- err
							return
						}
					}
				}(s)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			st := SharedRewriteCache(l).Stats()
			if st.Misses != before.Misses+1 || st.Hits+st.TemplateHits != before.Hits+before.TemplateHits+sessions*stmts-1 {
				t.Fatalf("one shape: before %+v after %+v", before, st)
			}

			m := NewMapper(db, l)
			ids := rowsByKey(t, m, 17, "Account")
			var firsts []int64
			for s := 0; s < sessions; s++ {
				for k := 0; k < stmts; k++ {
					first, ok := ids[aid(s, k, 0)]
					for i := 0; i < width && ok; i++ {
						if id, found := ids[aid(s, k, i)]; !found || id != first+int64(i) {
							t.Fatalf("session %d statement %d: row %d has id %d (stored %v), want %d", s, k, i, id, found, first+int64(i))
						}
					}
					if !ok {
						t.Fatalf("session %d statement %d: no row stored", s, k)
					}
					firsts = append(firsts, first)
				}
			}
			sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
			for i := 1; i < len(firsts); i++ {
				if firsts[i] < firsts[i-1]+width {
					t.Fatalf("id ranges overlap: %d and %d", firsts[i-1], firsts[i])
				}
			}
			got := queryAll(t, m, 17, "SELECT Aid, Name, Hospital, Beds FROM Account")
			if len(got) != sessions*stmts*width {
				t.Fatalf("%d rows reconstruct, want %d", len(got), sessions*stmts*width)
			}
			for s := 0; s < sessions; s++ {
				row := fmt.Sprintf("INTEGER:%d|VARCHAR:n%d|VARCHAR:h%d|INTEGER:%d", aid(s, stmts-1, width-1), s, stmts-1, width-1)
				if i := sort.SearchStrings(got, row); i == len(got) || got[i] != row {
					t.Fatalf("row %s does not reconstruct: %v", row, got)
				}
			}
		})
	}
}

// TestFailedInsertKeepsItsRowIDs: an INSERT that fails on a unique
// violation — on the execution that filled its shape, or on a hit — has
// used up the ids it reserved; the next INSERT of the shape gets others.
func TestFailedInsertKeepsItsRowIDs(t *testing.T) {
	l, err := NewExtensionLayout(paperSchema())
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(engine.Config{})
	if err := l.Create(db, paperTenants()); err != nil {
		t.Fatal(err)
	}
	m := NewMapper(db, l)
	exec := func(q string) error {
		_, err := m.Exec(35, q)
		return err
	}
	// Another shape takes Aid 5 (id 0); the shape below fails on it at its
	// fill (id 1), succeeds (id 2), fails on a hit (id 3) and succeeds (id 4).
	if err := exec("INSERT INTO Account (Name, Aid) VALUES ('first', 5)"); err != nil {
		t.Fatal(err)
	}
	shape := "INSERT INTO Account (Aid, Name) VALUES (%d, 'x')"
	for _, step := range []struct {
		aid  int
		fail bool
	}{{5, true}, {6, false}, {6, true}, {7, false}} {
		err := exec(fmt.Sprintf(shape, step.aid))
		if (err != nil) != step.fail {
			t.Fatalf("Aid %d: error %v, want failure %v", step.aid, err, step.fail)
		}
	}
	if s := m.Cache.Stats(); s.Misses != 2 || s.Hits != 3 {
		t.Fatalf("two shapes, three hits: %+v", s)
	}
	ids := rowsByKey(t, m, 35, "Account")
	if want := map[int64]int64{5: 0, 6: 2, 7: 4}; fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("row ids %v, want %v", ids, want)
	}
}

// TestMoveUnderCachedInserts: a session keeps inserting through one
// cached INSERT shape while a Mover moves its tenant. Its statements are
// shape hits (no rewrite to mark the table dirty), so what carries the
// writes past each convergence round is the generation every swap bumps;
// after the cutover the destination holds every acknowledged row exactly
// once. The move's first copy into the destination waits on a latch the
// test holds until two INSERTs were acknowledged mid-move, so the move
// overlaps the writer however the two are scheduled, and the second of
// those INSERTs is a shape hit: no swap can fall between them but the
// one before the stalled copy.
func TestMoveUnderCachedInserts(t *testing.T) {
	db, mux, dst, m := moveFixture(t)
	const seed = 400
	for i := 0; i < seed; i++ {
		if _, err := m.Exec(35, fmt.Sprintf("INSERT INTO Account (Aid, Name) VALUES (%d, 'seed')", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Registered ahead, the tenant's tables exist at the destination.
	if err := dst.AddTenant(db, &Tenant{ID: 35}); err != nil {
		t.Fatal(err)
	}
	stall, err := db.Catalog().Table("Account_t35")
	if err != nil {
		t.Fatal(err)
	}
	var (
		stop    atomic.Bool
		acked   []int64
		overlap atomic.Int64 // acknowledged while the tenant was mid-move
		werr    error
		done    = make(chan struct{})
		started = make(chan struct{}) // the writer has one INSERT acknowledged
	)
	go func() {
		defer close(done)
		for aid := int64(100000); !stop.Load() && (len(acked) < 4000 || overlap.Load() < 2); aid++ {
			if _, werr = m.Exec(35, fmt.Sprintf("INSERT INTO Account (Aid, Name) VALUES (%d, 'live')", aid)); werr != nil {
				return
			}
			if acked = append(acked, aid); len(acked) == 1 {
				close(started)
			}
			mux.mu.RLock()
			if mux.moving[35] != nil {
				overlap.Add(1)
			}
			mux.mu.RUnlock()
		}
	}()
	select { // move while the writer runs, not before it starts
	case <-started:
	case <-done:
	}
	before := m.Cache.Stats()
	var rep *MoveReport
	moved := make(chan struct{})
	stall.Mu.RLock()
	go func() {
		defer close(moved)
		rep, err = (&Mover{DB: db, Mux: mux, MaxRounds: 6, BatchRows: 4}).Move(35, dst)
	}()
wait:
	for overlap.Load() < 2 {
		select {
		case <-done: // the writer failed
			break wait
		case <-moved: // the move did not stall: reported below
			break wait
		case <-time.After(50 * time.Microsecond):
		}
	}
	stall.Mu.RUnlock()
	<-moved
	stop.Store(true)
	<-done
	if err != nil || werr != nil {
		t.Fatalf("Move: %v (report %+v); writer: %v", err, rep, werr)
	}
	if overlap.Load() < 2 {
		t.Fatalf("%d INSERTs overlapped the move, want 2", overlap.Load())
	}
	if s := m.Cache.Stats(); s.Hits <= before.Hits || s.Misses-before.Misses > int64(2*rep.Rounds+4) {
		t.Fatalf("the writer's INSERTs were not shape hits: before %+v after %+v (report %+v)", before, s, rep)
	}
	if mux.Route(35) != Layout(dst) {
		t.Fatal("route not flipped")
	}
	rows, err := m.Query(35, "SELECT Aid FROM Account")
	if err != nil {
		t.Fatal(err)
	}
	count := map[int64]int{}
	for _, r := range rows.Data {
		count[r[0].Int]++
	}
	for aid := int64(0); aid < seed; aid++ {
		acked = append(acked, aid)
	}
	for _, aid := range acked {
		if count[aid] != 1 {
			t.Fatalf("Aid %d is at the destination %d times, want once (report %+v)", aid, count[aid], rep)
		}
	}
	if len(rows.Data) != len(acked) {
		t.Fatalf("%d rows at the destination, %d acknowledged", len(rows.Data), len(acked))
	}
	t.Logf("move report: %+v; %d INSERTs acknowledged, %d mid-move", rep, len(acked)-seed, overlap.Load())
}
