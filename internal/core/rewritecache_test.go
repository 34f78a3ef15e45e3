package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/types"
)

// uncached runs one logical statement with nothing remembered — parse,
// Layout.Rewrite, execute, every time. It is the reference the Mapper's
// cached path is compared against.
func uncached(m *Mapper, tenant int64, q string) (engine.Result, *engine.Rows, error) {
	st, err := sql.Parse(q)
	if err != nil {
		return engine.Result{}, nil, err
	}
	rw, err := m.Layout.Rewrite(tenant, st)
	if err != nil {
		return engine.Result{}, nil, err
	}
	if rw.Query != nil {
		rows, err := m.queryStmt(rw.Query, "")
		return engine.Result{}, rows, err
	}
	cr := &cachedRewrite{rw: rw}
	for _, ps := range rw.statements() {
		cr.stmts = append(cr.stmts, physStmt{st: ps}) // literal, the engine renders the key
	}
	res, err := m.execRewritten(cr, nil, nil)
	return res, nil, err
}

// TestRewriteCacheEquivalence drives an identical statement sequence
// through the Mapper and through the uncached reference on every layout,
// over identical fresh databases, and demands identical results at
// every step — the cache must be invisible except for speed.
func TestRewriteCacheEquivalence(t *testing.T) {
	schema := paperSchema()
	plains := allLayouts(t, schema)
	for name, cached := range allLayouts(t, schema) {
		plain := plains[name]
		loadPaperData(t, plain)
		loadPaperData(t, cached)

		queries := []struct {
			tenant int64
			q      string
		}{
			{17, "SELECT Aid, Name, Hospital, Beds FROM Account WHERE Aid = 1"},
			{17, "SELECT Aid, Name, Hospital, Beds FROM Account WHERE Aid = 2"},
			{17, "SELECT COUNT(*) FROM Account WHERE Beds > 100"},
			{35, "SELECT Aid, Name FROM Account"},
			{42, "SELECT Name FROM Account WHERE Dealers = 65"},
			{42, "SELECT Name FROM Account WHERE Dealers = 9999"},
		}
		for _, qq := range queries {
			got := queryAll(t, cached, qq.tenant, qq.q)
			_, rows, err := uncached(plain, qq.tenant, qq.q)
			if err != nil {
				t.Fatalf("%s: uncached %q: %v", name, qq.q, err)
			}
			want := sortedRows(rows)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: %q diverged:\ncached  %v\nuncached %v", name, qq.q, got, want)
			}
			// Run the cached query again so the second pass exercises the
			// raw-text hit path, not just the fill path.
			again := queryAll(t, cached, qq.tenant, qq.q)
			if fmt.Sprint(again) != fmt.Sprint(want) {
				t.Errorf("%s: %q diverged on cache hit:\ncached  %v\nuncached %v", name, qq.q, again, want)
			}
		}

		execs := []struct {
			tenant int64
			q      string
		}{
			{17, "UPDATE Account SET Beds = 200 WHERE Aid = 1"},
			{17, "UPDATE Account SET Beds = 300 WHERE Aid = 1"}, // same template, new literal
			{42, "UPDATE Account SET Dealers = Dealers + 1 WHERE Aid = 1"},
			{35, "DELETE FROM Account WHERE Aid = 99"}, // no-op delete
			{17, "UPDATE Account SET Name = 'AcmeX' WHERE Beds = 300"},
		}
		for _, e := range execs {
			rc, err := cached.Exec(e.tenant, e.q)
			if err != nil {
				t.Fatalf("%s: cached Exec(%q): %v", name, e.q, err)
			}
			rp, _, err := uncached(plain, e.tenant, e.q)
			if err != nil {
				t.Fatalf("%s: uncached Exec(%q): %v", name, e.q, err)
			}
			if rc.RowsAffected != rp.RowsAffected {
				t.Errorf("%s: %q affected %d cached vs %d uncached", name, e.q, rc.RowsAffected, rp.RowsAffected)
			}
		}
		verify := "SELECT Aid, Name, Hospital, Beds FROM Account"
		_, rows, err := uncached(plain, 17, verify)
		if err != nil {
			t.Fatalf("%s: uncached %q: %v", name, verify, err)
		}
		if got, want := queryAll(t, cached, 17, verify), sortedRows(rows); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: post-DML state diverged:\ncached  %v\nuncached %v", name, got, want)
		}
	}
}

// TestRewriteCacheHitAccounting verifies the shape math: N statements
// differing in their literals alone cost one parse and one rewrite, then
// none, and one entry; the hit rate reflects it. A shape the guard refuses
// (a folded negative literal) parses every text, repeats included, and
// shares its template's one entry and rewrite.
func TestRewriteCacheHitAccounting(t *testing.T) {
	schema := paperSchema()
	l, err := NewExtensionLayout(schema)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(engine.Config{})
	if err := l.Create(db, paperTenants()); err != nil {
		t.Fatal(err)
	}
	m := NewMapper(db, l)

	// 8 distinct literal values, one shape: 1 miss + 7 hits, 1 entry.
	for i := 0; i < 8; i++ {
		q := fmt.Sprintf("SELECT Name FROM Account WHERE Aid = %d", i)
		if _, err := m.Query(35, q); err != nil {
			t.Fatalf("Query: %v", err)
		}
	}
	s := m.Cache.Stats()
	if s.Misses != 1 || s.TemplateHits != 0 || s.Hits != 7 || s.Entries != 1 {
		t.Fatalf("after distinct literals: %+v", s)
	}
	// Repeats of the same raw texts: hits as well.
	for i := 0; i < 8; i++ {
		q := fmt.Sprintf("SELECT Name FROM Account WHERE Aid = %d", i)
		if _, err := m.Query(35, q); err != nil {
			t.Fatalf("Query: %v", err)
		}
	}
	s = m.Cache.Stats()
	if s.Hits != 15 || s.Entries != 1 {
		t.Fatalf("after repeats: %+v", s)
	}
	if hr := s.HitRate(); hr < 0.9 {
		t.Fatalf("hit rate %.2f < 0.9: %+v", hr, s)
	}
	// -n folds into one literal the text does not hold: every text parses
	// (1 miss, then template hits, repeats too) and the template is the
	// one entry it adds.
	for _, n := range []int{1, 2, 3, 1, 2} {
		if _, err := m.Query(35, fmt.Sprintf("SELECT Name FROM Account WHERE Aid = -%d", n)); err != nil {
			t.Fatalf("Query: %v", err)
		}
	}
	if s2 := m.Cache.Stats(); s2.Misses != s.Misses+1 || s2.TemplateHits != 4 || s2.Hits != s.Hits || s2.Entries != s.Entries+1 {
		t.Fatalf("refused shape: before %+v after %+v", s, s2)
	}
	// Another tenant does not share entries (tenant is in the key).
	if _, err := m.Query(17, "SELECT Name FROM Account WHERE Aid = 0"); err != nil {
		t.Fatalf("Query: %v", err)
	}
	if s2 := m.Cache.Stats(); s2.Misses != 3 {
		t.Fatalf("cross-tenant lookup should miss: %+v", s2)
	}
	// n INSERTs of one shape: 1 miss, n-1 hits, 1 entry, and neither a
	// direct nor a two-phase DML count; a DELETE by key is one direct
	// statement.
	s = m.Cache.Stats()
	const n = 6
	for i := 0; i < n; i++ {
		if _, err := m.Exec(35, fmt.Sprintf("INSERT INTO Account (Aid, Name) VALUES (%d, 'x%d')", 100+i, i)); err != nil {
			t.Fatalf("Exec: %v", err)
		}
	}
	s3 := m.Cache.Stats()
	if s3.Misses != s.Misses+1 || s3.Hits != s.Hits+n-1 || s3.Entries != s.Entries+1 || s3.DirectDML != s.DirectDML || s3.TwoPhaseDML != s.TwoPhaseDML || s3.Uncacheable != 0 {
		t.Fatalf("INSERTs of one shape: before %+v after %+v", s, s3)
	}
	if _, err := m.Exec(35, "DELETE FROM Account WHERE Aid = 100"); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if s4 := m.Cache.Stats(); s4.DirectDML != s3.DirectDML+1 {
		t.Fatalf("a direct DELETE: before %+v after %+v", s3, s4)
	}
	// Uncacheable is DDL and transaction control alone.
	m.Exec(35, "CREATE TABLE Other (a INT)") // the layout refuses it
	m.Exec(35, "BEGIN")                      // no session to run it on
	if s5 := m.Cache.Stats(); s5.Uncacheable != 2 {
		t.Fatalf("DDL and BEGIN should be uncacheable: %+v", s5)
	}
}

// TestRewriteCacheDDLKeepsWarm: physical DDL — an engine-level online
// ALTER, an unrelated CREATE TABLE — must NOT cold-start the rewrite
// cache. Layout rewrites depend only on the logical schema and tenant
// metadata, so bumping the catalog version is the plan cache's problem,
// not the rewrite cache's. This is the regression the old
// version-in-the-key scheme failed: one tenant's ALTER evicted every
// tenant's rewrites.
func TestRewriteCacheDDLKeepsWarm(t *testing.T) {
	schema := paperSchema()
	l, err := NewExtensionLayout(schema)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(engine.Config{})
	if err := l.Create(db, paperTenants()); err != nil {
		t.Fatal(err)
	}
	m := NewMapper(db, l)

	q := "SELECT Name FROM Account WHERE Aid = 1"
	for _, tenant := range []int64{35, 42} {
		if _, err := m.Query(tenant, q); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Query(tenant, q); err != nil {
			t.Fatal(err)
		}
	}
	before := m.Cache.Stats()
	if before.Hits != 2 || before.Misses != 2 {
		t.Fatalf("warmup: %+v", before)
	}
	// Physical DDL bumps the catalog version; the rewrite cache must not
	// care. (The engine plan cache re-derives on its own.)
	if _, err := db.Exec("CREATE TABLE Unrelated (A INT)"); err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []int64{35, 42} {
		if _, err := m.Query(tenant, q); err != nil {
			t.Fatal(err)
		}
	}
	after := m.Cache.Stats()
	if after.Hits != before.Hits+2 || after.Misses != before.Misses {
		t.Fatalf("post-DDL lookups should stay warm: before %+v after %+v", before, after)
	}
	if after.HitRate() < 0.66 {
		t.Fatalf("hit rate regressed across DDL: %+v", after)
	}
}

// TestRewriteCacheInvalidateTenant: extending a tenant on-line bumps
// its generation, which cold-starts exactly that tenant.
func TestRewriteCacheInvalidateTenant(t *testing.T) {
	schema := paperSchema()
	l, err := NewExtensionLayout(schema)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(engine.Config{})
	if err := l.Create(db, paperTenants()); err != nil {
		t.Fatal(err)
	}
	m := NewMapper(db, l)

	q := "SELECT Name FROM Account WHERE Aid = 1"
	for _, tenant := range []int64{35, 42} {
		if _, err := m.Query(tenant, q); err != nil {
			t.Fatal(err)
		}
	}
	before := m.Cache.Stats()
	if err := l.ExtendTenant(db, 35, "AutomotiveAccount"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(35, q); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(42, q); err != nil {
		t.Fatal(err)
	}
	after := m.Cache.Stats()
	if after.Misses != before.Misses+1 || after.Hits != before.Hits+1 || after.Invalidated == before.Invalidated {
		t.Fatalf("only tenant 35 should refill: before %+v after %+v", before, after)
	}
}

// TestRewriteCacheEviction: the LRU cap holds and evicted entries
// re-fill correctly.
func TestRewriteCacheEviction(t *testing.T) {
	schema := paperSchema()
	l, err := NewExtensionLayout(schema)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(engine.Config{})
	if err := l.Create(db, paperTenants()); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMapper(db, l).Exec(35, "INSERT INTO Account (Aid, Name) VALUES (1, 'a'), (2, 'b'), (3, 'c')"); err != nil {
		t.Fatal(err)
	}
	m := NewMapper(db, l)
	m.Cache = NewRewriteCache(db, l, 8)

	for round := 0; round < 3; round++ {
		for i := 0; i < 32; i++ {
			// Distinct shapes (an IN list of i+1 values), defeating
			// sharing on purpose.
			in, want := "1", 1 // the rows are Aid 1, 2 and 3
			for v := 2 + round; v <= i+1+round; v++ {
				in += fmt.Sprintf(", %d", v)
				if v <= 3 {
					want++
				}
			}
			q := fmt.Sprintf("SELECT Name FROM Account WHERE Aid IN (%s)", in)
			rows, err := m.Query(35, q)
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			if len(rows.Data) != want {
				t.Fatalf("round %d, %q: %d rows, want %d", round, q, len(rows.Data), want)
			}
		}
	}
	if s := m.Cache.Stats(); s.Entries != 8 || s.Misses != 3*32 {
		t.Fatalf("cap exceeded or an evicted shape still hit: %+v", s)
	}
}

// TestRewriteCacheConcurrentTenants is the race test: many goroutines
// as different tenants sharing statement text, through one cache, with
// concurrent DML mixed in. Run under -race this proves the fill/alias/
// eviction paths and the shared template ASTs are data-race free.
func TestRewriteCacheConcurrentTenants(t *testing.T) {
	schema := paperSchema()
	l, err := NewExtensionLayout(schema)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(engine.Config{})
	if err := l.Create(db, paperTenants()); err != nil {
		t.Fatal(err)
	}
	cache := NewRewriteCache(db, l, 64)

	seed := NewMapper(db, l)
	for _, tn := range []int64{17, 35, 42} {
		if _, err := seed.Exec(tn, "INSERT INTO Account (Aid, Name) VALUES (1, 'a'), (2, 'b')"); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 12
	const iters = 60
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	tenants := []int64{17, 35, 42}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := NewMapper(db, l)
			m.Cache = cache
			tn := tenants[w%len(tenants)]
			for i := 0; i < iters; i++ {
				// Shared templates across workers and tenants.
				q := fmt.Sprintf("SELECT Name FROM Account WHERE Aid = %d", i%4)
				if _, err := m.Query(tn, q); err != nil {
					errs <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				u := fmt.Sprintf("UPDATE Account SET Name = 'n%d' WHERE Aid = %d", i, i%4)
				if _, err := m.Exec(tn, u); err != nil {
					errs <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s := cache.Stats()
	if s.Hits+s.TemplateHits == 0 {
		t.Fatalf("no sharing happened: %+v", s)
	}
}

// TestRewriteCacheUserParams: statements that already carry `?` params
// cache under their raw text and bind the caller's values.
func TestRewriteCacheUserParams(t *testing.T) {
	schema := paperSchema()
	l, err := NewExtensionLayout(schema)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(engine.Config{})
	if err := l.Create(db, paperTenants()); err != nil {
		t.Fatal(err)
	}
	m := NewMapper(db, l)
	if _, err := m.Exec(35, "INSERT INTO Account (Aid, Name) VALUES (1, 'Ball'), (2, 'Cube')"); err != nil {
		t.Fatal(err)
	}
	before := m.Cache.Stats()

	q := "SELECT Name FROM Account WHERE Aid = ?"
	for want, arg := range map[string]int64{"Ball": 1, "Cube": 2} {
		for i := 0; i < 2; i++ { // second pass = cache hit
			rows, err := m.Query(35, q, types.NewInt(arg))
			if err != nil {
				t.Fatal(err)
			}
			if len(rows.Data) != 1 || rows.Data[0][0].Str != want {
				t.Fatalf("arg %d pass %d: %v", arg, i, rows.Data)
			}
		}
	}
	s := m.Cache.Stats()
	if s.Misses != before.Misses+1 || s.Hits != before.Hits+3 {
		t.Fatalf("param statement accounting: before %+v after %+v", before, s)
	}
	// An INSERT with `?`s takes the exact-text probe: one entry for its
	// text, each execution under its own values and row ids.
	ins := "INSERT INTO Account (Aid, Name) VALUES (?, ?)"
	for i := int64(3); i <= 5; i++ {
		if _, err := m.Exec(35, ins, types.NewInt(i), types.NewString(fmt.Sprint("p", i))); err != nil {
			t.Fatal(err)
		}
	}
	if s2 := m.Cache.Stats(); s2.Misses != s.Misses+1 || s2.Hits != s.Hits+2 || s2.Entries != s.Entries+1 {
		t.Fatalf("param INSERT accounting: before %+v after %+v", s, s2)
	}
	if got := queryAll(t, m, 35, "SELECT Aid, Name FROM Account"); len(got) != 5 || !strings.Contains(fmt.Sprint(got), "INTEGER:5|VARCHAR:p5") {
		t.Fatalf("after param INSERTs: %v", got)
	}
}

// TestExtendTenantStalesCachedRewrites: session Mappers share their
// layout's cache as a server's connections do. Tenant 35's statements
// are cached while its placement has one fragment — SELECT * answers
// two columns, the DELETE is one direct statement — then the tenant
// enables an extension and another session runs the same texts. The
// transcript must equal the reference's (plainTenants): a pre-extension
// rewrite served afterwards deletes from the base fragment alone, and the
// orphans it leaves are counted by the next UPDATE of an extension
// column, and a stale SELECT * answers two columns.
func TestExtendTenantStalesCachedRewrites(t *testing.T) {
	const (
		star = "SELECT * FROM Account"
		upd  = "UPDATE Account SET Name = 'Orb' WHERE Aid = 1"
		del  = "DELETE FROM Account WHERE Aid > 2"
	)
	// transcript runs the steps through m, two of its sessions where it is
	// a Mapper.
	transcript := func(m logicalDB) []string {
		t.Helper()
		a, b := m, m
		if mm, ok := m.(*Mapper); ok {
			sa, sb := NewSessionMapper(mm.DB, mm.Layout), NewSessionMapper(mm.DB, mm.Layout)
			defer sa.Session.Close()
			defer sb.Session.Close()
			a, b = sa, sb
		}
		var out []string
		exec := func(m logicalDB, q string) {
			t.Helper()
			res, err := m.Exec(35, q)
			if err != nil {
				t.Fatalf("%s: %q: %v", nameOf(m), q, err)
			}
			out = append(out, fmt.Sprintf("%s -> %d", q, res.RowsAffected))
		}
		round := func(m logicalDB) {
			t.Helper()
			out = append(out, fmt.Sprint(queryAll(t, m, 35, star)))
			exec(m, upd)
			exec(m, del)
			out = append(out, fmt.Sprint(queryAll(t, m, 35, star)))
		}
		exec(a, "INSERT INTO Account (Aid, Name) VALUES (1, 'Ball'), (2, 'Cube'), (3, 'Dice')")
		round(a)
		round(a) // the second pass runs on raw-text hits
		if err := extend(m, 35, "HealthcareAccount"); err != nil {
			t.Fatalf("%s: ExtendTenant: %v", nameOf(m), err)
		}
		exec(b, "INSERT INTO Account (Aid, Name, Hospital, Beds) VALUES (3, 'Egg', 'State', 9), (4, 'Fig', 'City', 7)")
		round(b)
		exec(b, "UPDATE Account SET Beds = 1")
		out = append(out, fmt.Sprint(queryAll(t, b, 35, star)))
		return out
	}
	layouts := allLayouts(t, paperSchema())
	want := transcript(newPlainTenants(t, paperSchema(), paperTenants()))
	for _, name := range []string{"private", "extension", "chunkfold", "chunkfold-allfolded"} {
		got := transcript(layouts[name])
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s step %d:\n got  %s\n want %s", name, i, got[i], want[i])
			}
		}
		// The neighbour's entries were not touched: tenant 42's repeat is a hit.
		m := layouts[name]
		queryAll(t, m, 42, star)
		before := m.Cache.Stats()
		if err := m.Layout.(*FragmentLayout).ExtendTenant(m.DB, 35, "AutomotiveAccount"); err != nil {
			t.Fatal(err)
		}
		queryAll(t, m, 42, star)
		if after := m.Cache.Stats(); after.Hits != before.Hits+1 || after.Invalidated != before.Invalidated {
			t.Errorf("%s: extending tenant 35 cost tenant 42 its entry: before %+v after %+v", name, before, after)
		}
	}
}

// TestExtendTenantUnderCachedLoad is the race variant: one goroutine
// extends tenant 35 twice while four sessions run cached statements —
// two as tenant 35 and one as its neighbour 42 through the layout's
// shared cache, and one as 42 through a cache of its own, whose counters
// are therefore the neighbour's alone: every one of its lookups after
// the warm-up must be a hit.
func TestExtendTenantUnderCachedLoad(t *testing.T) {
	for _, name := range []string{"private", "extension", "chunkfold", "chunkfold-allfolded"} {
		m := allLayouts(t, paperSchema())[name]
		loadPaperData(t, m)
		texts := []string{
			"SELECT * FROM Account",
			"UPDATE Account SET Name = 'Orb' WHERE Aid = 1",
			"SELECT Name FROM Account WHERE Aid = ?",
			"DELETE FROM Account WHERE Aid > 5",
		}
		run := func(m *Mapper, tenant int64) error {
			for _, q := range texts {
				if _, _, err := m.Do(tenant, q, types.NewInt(1)); err != nil {
					return fmt.Errorf("tenant %d %q: %w", tenant, q, err)
				}
			}
			return nil
		}
		own := NewSessionMapper(m.DB, m.Layout)
		own.Cache = NewRewriteCache(m.DB, m.Layout, 0)
		runners := []struct {
			m      *Mapper
			tenant int64
		}{
			{NewSessionMapper(m.DB, m.Layout), 35},
			{NewSessionMapper(m.DB, m.Layout), 35},
			{NewSessionMapper(m.DB, m.Layout), 42},
			{own, 42},
		}
		for _, r := range runners {
			if err := run(r.m, r.tenant); err != nil {
				t.Fatal(err)
			}
		}
		warm := own.Cache.Stats()

		const iters = 40
		errs := make(chan error, len(runners)+1)
		var wg sync.WaitGroup
		for _, r := range runners {
			wg.Add(1)
			go func(m *Mapper, tenant int64) {
				defer wg.Done()
				defer m.Session.Close()
				for i := 0; i < iters; i++ {
					if err := run(m, tenant); err != nil {
						errs <- err
						return
					}
				}
			}(r.m, r.tenant)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, ext := range []string{"HealthcareAccount", "AutomotiveAccount"} {
				if err := m.Layout.(*FragmentLayout).ExtendTenant(m.DB, 35, ext); err != nil {
					errs <- err
				}
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("%s: %v", name, err)
		}
		end := own.Cache.Stats()
		if end.Misses != warm.Misses || end.TemplateHits != warm.TemplateHits || end.Invalidated != 0 ||
			end.Hits != warm.Hits+int64(iters*len(texts)) {
			t.Errorf("%s: neighbour's entries did not stay hits: warm %+v end %+v", name, warm, end)
		}
		// Tenant 35 ends on both extensions: the shared cache answers as a
		// fresh rewrite does, five columns wide.
		_, rows, err := uncached(m, 35, texts[0])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := queryAll(t, m, 35, texts[0]), sortedRows(rows); fmt.Sprint(got) != fmt.Sprint(want) || len(rows.Columns) != 5 {
			t.Errorf("%s: tenant 35 after both extensions: %v, fresh rewrite %v", name, got, want)
		}
	}
}

// TestRewriteCacheManyTablesShape drives the cache at crm_tables_cold's
// shape — 150 tenants on an instance of ten tables each, 1 500 tables,
// the CRM deck's statement templates with their values inlined — through a
// cache smaller than the (tenant, shape) pairs the deck draws: raw texts
// add no entries, so every lookup is a shape hit or a miss that (re)fills
// one; the population stays within capacity while it churns, and the raw
// texts of one shape share one cached rewrite, not a copy each. The layout
// holds one placement per table, whatever the tenant count.
func TestRewriteCacheManyTablesShape(t *testing.T) {
	const tenants, tablesPer, rows = 150, 10, 32
	schema := &Schema{}
	for i := 0; i < tenants*tablesPer; i++ {
		schema.Tables = append(schema.Tables, &Table{Name: fmt.Sprintf("T%d", i), Key: "Id", Columns: []Column{
			{Name: "Id", Type: types.IntType, NotNull: true, Indexed: true},
			{Name: "Attr00", Type: types.VarcharType(20)},
			{Name: "Attr01", Type: types.IntType},
		}})
	}
	l, err := NewBasicLayout(schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= tenants; i++ {
		if err := l.AddTenant(nil, &Tenant{ID: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := placements(l); n != tenants*tablesPer {
		t.Fatalf("%d tenants of %d tables hold %d placements", tenants, tenants*tablesPer, n)
	}
	const capacity = 4096
	c := NewRewriteCache(nil, l, capacity)
	deck := []func(r *rand.Rand, table string) string{
		func(r *rand.Rand, table string) string {
			return fmt.Sprintf("SELECT * FROM %s WHERE Id = %d", table, 1+r.Intn(rows))
		},
		func(r *rand.Rand, table string) string {
			return fmt.Sprintf("UPDATE %s SET Attr00 = 'w%d' WHERE Id = %d", table, r.Intn(1e6), 1+r.Intn(rows))
		},
		func(r *rand.Rand, table string) string {
			return fmt.Sprintf("UPDATE %s SET Attr01 = Attr01 + 1 WHERE Id = %d", table, 1+r.Intn(rows))
		},
		func(r *rand.Rand, table string) string {
			return fmt.Sprintf("SELECT COUNT(*), SUM(Attr01) FROM %s WHERE Attr01 > %d", table, r.Intn(500))
		},
		func(r *rand.Rand, table string) string {
			return fmt.Sprintf("SELECT Attr00, COUNT(*) FROM %s GROUP BY Attr00", table)
		},
	}
	r := rand.New(rand.NewSource(2008))
	shapes := map[string]bool{} // tenant/table/template drawn
	const lookups = 30000
	for i := 0; i < lookups; i++ {
		tenant := r.Intn(tenants)
		table := fmt.Sprintf("T%d", tenant*tablesPer+r.Intn(tablesPer))
		d := r.Intn(len(deck))
		shapes[fmt.Sprintf("%d/%s/%d", tenant, table, d)] = true
		if _, _, _, err := c.lookup(int64(tenant+1), deck[d](r, table)); err != nil {
			t.Fatal(err)
		}
		if n := c.Stats().Entries; n > capacity {
			t.Fatalf("after %d lookups: %d entries, capacity %d", i+1, n, capacity)
		}
	}
	s := c.Stats()
	n := int64(len(shapes))
	if n <= capacity || s.Entries != capacity || s.Misses <= n || s.TemplateHits != 0 || s.Hits == 0 || s.Hits+s.Misses != lookups {
		t.Fatalf("%d shapes drawn in %d lookups through %d entries: the deck should churn the cache, and every lookup hit or fill a shape: %+v", n, lookups, capacity, s)
	}

	// In the full, churning cache: sixteen raw texts of one shape.
	var shared *cachedRewrite
	for id := 1; id <= 16; id++ {
		cr, bind, _, err := c.lookup(7, fmt.Sprintf("SELECT * FROM T60 WHERE Id = %d", id))
		if err != nil {
			t.Fatal(err)
		}
		if len(bind) != 1 || len(bind[0]) != 2 || bind[0][1].Int != int64(id) {
			t.Fatalf("Id = %d binds %v", id, bind)
		}
		if shared == nil {
			shared = cr
		}
		if cr != shared {
			t.Fatalf("Id = %d got a rewrite of its own; raw texts of one template must share one", id)
		}
	}
}

// raceEnabled is set by race_test.go: the race detector makes sync.Pool
// drop items at random, so allocation counts only hold without it.
var raceEnabled bool

// TestShapeBindsLiteralsByPosition: a shape hit binds each parameter the
// literal at the position the filling text's parse lifted it from, never
// one of the same value. Texts whose shape repeats a value at the fill —
// and one whose projection literal stays inline, and one that holds the
// shape key's marker byte — run through every layout and through the
// reference, and every answer and the final state must agree.
func TestShapeBindsLiteralsByPosition(t *testing.T) {
	steps := []string{
		"INSERT INTO Account (Aid, Name, Hospital, Beds) VALUES (1, 'a', 'h', 5), (2, 'b', 'h', 6), (3, 'c', 'h', 5), (5, 'e', 'h', 2), (6, 'f', 'h', 5)",
		"SELECT 5, Name FROM Account WHERE Aid = 5",
		"SELECT 5, Name FROM Account WHERE Aid = 6",
		"SELECT 6, Name FROM Account WHERE Aid = 5",
		"SELECT Aid, Name FROM Account WHERE Aid = 5 OR Beds = 5",
		"SELECT Aid, Name FROM Account WHERE Aid = 6 OR Beds = 5",
		"SELECT Aid, Name FROM Account WHERE Aid = 2 OR Beds = 2",
		"SELECT Aid, Name FROM Account WHERE Aid = 2 OR Beds = 6",
		"UPDATE Account SET Beds = 6 WHERE Aid = 6",
		"UPDATE Account SET Beds = 7 WHERE Aid = 3",
		"UPDATE Account SET Name = 'a\x00b' WHERE Aid = 1",
		"SELECT Aid FROM Account WHERE Name = 'a\x00b'",
		"SELECT Aid, Name, Beds FROM Account",
	}
	transcript := func(m logicalDB) []string {
		var out []string
		for _, q := range steps {
			if strings.HasPrefix(q, "SELECT") {
				out = append(out, fmt.Sprint(queryAll(t, m, 17, q)))
				continue
			}
			res, err := m.Exec(17, q)
			if err != nil {
				t.Fatalf("%s: %q: %v", nameOf(m), q, err)
			}
			out = append(out, fmt.Sprint(res.RowsAffected))
		}
		return out
	}
	want := transcript(newPlainTenants(t, paperSchema(), paperTenants()))
	for name, m := range allLayouts(t, paperSchema()) {
		got := transcript(m)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: %q answered %s, the reference %s", name, steps[i], got[i], want[i])
			}
		}
	}
}

// TestShapeHitsDoNoParseWork: once one text of a template is cached, a
// thousand more with other literals cost no parse and no entry, and a
// shape hit allocates at most one vector more than an exact-text hit of
// the template with `?`, whose caller binds its own.
func TestShapeHitsDoNoParseWork(t *testing.T) {
	l, err := NewExtensionLayout(paperSchema())
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(engine.Config{})
	if err := l.Create(db, paperTenants()); err != nil {
		t.Fatal(err)
	}
	m := NewMapper(db, l)
	m.Cache = NewRewriteCache(db, l, 0)
	loadPaperData(t, m)
	// No row has these keys: both kinds of hit execute alike.
	const exact = "SELECT Name FROM Account WHERE Aid = ?"
	params := []types.Value{types.NewInt(5000)}
	texts := make([]string, 1000)
	for i := range texts {
		texts[i] = fmt.Sprintf("SELECT Name FROM Account WHERE Aid = %d", 1000+i)
	}
	query := func(q string, params ...types.Value) {
		if _, err := m.Query(35, q, params...); err != nil {
			t.Fatal(err)
		}
	}
	query(exact, params...)
	query("SELECT Name FROM Account WHERE Aid = 0")
	before := m.Cache.Stats()
	for _, q := range texts {
		query(q)
	}
	after := m.Cache.Stats()
	if after.Misses != before.Misses || after.TemplateHits != before.TemplateHits ||
		after.Hits != before.Hits+int64(len(texts)) || after.Entries != before.Entries {
		t.Fatalf("%d shape hits: before %+v after %+v", len(texts), before, after)
	}
	if raceEnabled {
		return
	}
	exactAllocs := testing.AllocsPerRun(200, func() { query(exact, params...) })
	i := 0
	shapeAllocs := testing.AllocsPerRun(200, func() { query(texts[i%len(texts)]); i++ })
	t.Logf("allocs: exact-text hit %v, shape hit %v", exactAllocs, shapeAllocs)
	if shapeAllocs > exactAllocs+1 {
		t.Errorf("a shape hit allocates %v, an exact-text hit %v", shapeAllocs, exactAllocs)
	}
}
