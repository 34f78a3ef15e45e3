package core

import (
	"fmt"
	"math/rand"
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
	res, err := m.execRewritten(&cachedRewrite{rw: rw}, nil)
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

// TestRewriteCacheHitAccounting verifies the canonicalization math: N
// statements sharing a template cost one rewrite, repeats cost nothing,
// and the hit rate reflects it.
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

	// 8 distinct literal values, same template: 1 miss + 7 template hits.
	for i := 0; i < 8; i++ {
		q := fmt.Sprintf("SELECT Name FROM Account WHERE Aid = %d", i)
		if _, err := m.Query(35, q); err != nil {
			t.Fatalf("Query: %v", err)
		}
	}
	s := m.Cache.Stats()
	if s.Misses != 1 || s.TemplateHits != 7 || s.Hits != 0 {
		t.Fatalf("after distinct literals: %+v", s)
	}
	// Repeats of the same raw texts: pure raw hits.
	for i := 0; i < 8; i++ {
		q := fmt.Sprintf("SELECT Name FROM Account WHERE Aid = %d", i)
		if _, err := m.Query(35, q); err != nil {
			t.Fatalf("Query: %v", err)
		}
	}
	s = m.Cache.Stats()
	if s.Hits != 8 {
		t.Fatalf("after repeats: %+v", s)
	}
	if hr := s.HitRate(); hr < 0.9 {
		t.Fatalf("hit rate %.2f < 0.9: %+v", hr, s)
	}
	// Another tenant does not share entries (tenant is in the key).
	if _, err := m.Query(17, "SELECT Name FROM Account WHERE Aid = 0"); err != nil {
		t.Fatalf("Query: %v", err)
	}
	if s2 := m.Cache.Stats(); s2.Misses != 2 {
		t.Fatalf("cross-tenant lookup should miss: %+v", s2)
	}
	// INSERT stays uncacheable.
	if _, err := m.Exec(35, "INSERT INTO Account (Aid, Name) VALUES (7, 'x')"); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if s3 := m.Cache.Stats(); s3.Uncacheable != 1 {
		t.Fatalf("INSERT should be uncacheable: %+v", s3)
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
	m := NewMapper(db, l)
	m.Cache = NewRewriteCache(db, l, 8)

	for round := 0; round < 3; round++ {
		for i := 0; i < 32; i++ {
			// Distinct templates (structure varies), defeating
			// canonical sharing on purpose.
			q := fmt.Sprintf("SELECT Name FROM Account WHERE Aid = %d AND Aid < %d + %d", i, i, i)
			if _, err := m.Query(35, q); err != nil {
				t.Fatalf("Query: %v", err)
			}
		}
	}
	if s := m.Cache.Stats(); s.Entries > 8 {
		t.Fatalf("cap exceeded: %+v", s)
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
	if s.Misses != 1 || s.Hits != 3 {
		t.Fatalf("param statement accounting: %+v", s)
	}
}

// extender is what the layouts that can enable an extension on-line
// have in common.
type extender interface {
	ExtendTenant(db *engine.DB, tenantID int64, extName string) error
}

// TestExtendTenantStalesCachedRewrites: session Mappers share their
// layout's cache as a server's connections do. Tenant 35's statements
// are cached while its placement has one fragment — SELECT * answers
// two columns, the DELETE is one direct statement — then the tenant
// enables an extension and another session runs the same texts. The
// transcript must equal Private's: a pre-extension rewrite served
// afterwards deletes from the base fragment alone, and the orphans it
// leaves are counted by the next UPDATE of an extension column.
func TestExtendTenantStalesCachedRewrites(t *testing.T) {
	const (
		star = "SELECT * FROM Account"
		upd  = "UPDATE Account SET Name = 'Orb' WHERE Aid = 1"
		del  = "DELETE FROM Account WHERE Aid > 2"
	)
	transcript := func(m *Mapper) []string {
		t.Helper()
		a := NewSessionMapper(m.DB, m.Layout)
		b := NewSessionMapper(m.DB, m.Layout)
		defer a.Session.Close()
		defer b.Session.Close()
		var out []string
		exec := func(m *Mapper, q string) {
			t.Helper()
			res, err := m.Exec(35, q)
			if err != nil {
				t.Fatalf("%s: %q: %v", m.Layout.Name(), q, err)
			}
			out = append(out, fmt.Sprintf("%s -> %d", q, res.RowsAffected))
		}
		round := func(m *Mapper) {
			t.Helper()
			out = append(out, fmt.Sprint(queryAll(t, m, 35, star)))
			exec(m, upd)
			exec(m, del)
			out = append(out, fmt.Sprint(queryAll(t, m, 35, star)))
		}
		exec(a, "INSERT INTO Account (Aid, Name) VALUES (1, 'Ball'), (2, 'Cube'), (3, 'Dice')")
		round(a)
		round(a) // the second pass runs on raw-text hits
		if err := m.Layout.(extender).ExtendTenant(m.DB, 35, "HealthcareAccount"); err != nil {
			t.Fatalf("%s: ExtendTenant: %v", m.Layout.Name(), err)
		}
		exec(b, "INSERT INTO Account (Aid, Name, Hospital, Beds) VALUES (3, 'Egg', 'State', 9), (4, 'Fig', 'City', 7)")
		round(b)
		exec(b, "UPDATE Account SET Beds = 1")
		out = append(out, fmt.Sprint(queryAll(t, b, 35, star)))
		return out
	}
	layouts := allLayouts(t, paperSchema())
	want := transcript(layouts["private"])
	for _, name := range []string{"extension", "chunkfold", "chunkfold-allfolded"} {
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
		if err := m.Layout.(extender).ExtendTenant(m.DB, 35, "AutomotiveAccount"); err != nil {
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
	for _, name := range []string{"extension", "chunkfold", "chunkfold-allfolded"} {
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
				if err := m.Layout.(extender).ExtendTenant(m.DB, 35, ext); err != nil {
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
// the CRM deck's statement templates with their values inlined — which
// has more templates than the default capacity and far more raw texts:
// the population stays within capacity while it churns, and the raw
// texts of one template alias one cached rewrite, not a copy each.
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
	c := SharedRewriteCache(l)
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
	for i := 0; i < 30000; i++ {
		tenant := r.Intn(tenants)
		table := fmt.Sprintf("T%d", tenant*tablesPer+r.Intn(tablesPer))
		if _, _, _, err := c.lookup(int64(tenant+1), deck[r.Intn(len(deck))](r, table), nil); err != nil {
			t.Fatal(err)
		}
		if n := c.Stats().Entries; n > DefaultRewriteCacheCap {
			t.Fatalf("after %d lookups: %d entries, capacity %d", i+1, n, DefaultRewriteCacheCap)
		}
	}
	s := c.Stats()
	if s.Entries != DefaultRewriteCacheCap || s.TemplateHits == 0 || s.Hits == 0 {
		t.Fatalf("the deck should fill the cache and reuse templates and raw texts: %+v", s)
	}

	// In the full, churning cache: sixteen raw texts of one template.
	var shared *cachedRewrite
	for id := 1; id <= 16; id++ {
		cr, bind, _, err := c.lookup(7, fmt.Sprintf("SELECT * FROM T60 WHERE Id = %d", id), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(bind) != 1 || bind[0].Int != int64(id) {
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
