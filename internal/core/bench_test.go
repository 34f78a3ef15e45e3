package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/chunkexp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/testbed"
	"repro/internal/types"
)

// BenchmarkRewrite times the layout rewrite alone (the statement is
// parsed once, outside the loop): §6.2 Q2 at scale 30 over Chunk6 (what
// a rewrite-cache miss on chunk_q2_join's statement costs), an INSERT
// over Chunk Folding with extensions (what its shape's first sighting
// costs) and an UPDATE's phase (b) there, which is built anew on every
// execution. The _pivot cases are the same three statements over Pivot,
// Chunk at width one, and report the physical statements one rewrite
// yields beside ns/op and allocs/op.
func BenchmarkRewrite(b *testing.B) {
	phys := func(b *testing.B, n int) { b.ReportMetric(float64(n), "phys-stmts/op") }
	b.Run("q2_chunk6", func(b *testing.B) {
		l, err := core.NewChunkLayout(chunkexp.Schema(), core.ChunkOptions{Defs: chunkexp.ChunkDefs(6)})
		if err != nil {
			b.Fatal(err)
		}
		if err := l.AddTenant(nil, &core.Tenant{ID: 1}); err != nil {
			b.Fatal(err)
		}
		st := mustParse(b, chunkexp.Q2(30))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.Rewrite(1, st); err != nil {
				b.Fatal(err)
			}
		}
	})

	folding := func(b *testing.B) core.Layout {
		l, err := core.NewChunkFoldingLayout(testbed.MultiInstanceSchema(1, true), core.FoldingOptions{})
		if err != nil {
			b.Fatal(err)
		}
		tn := &core.Tenant{ID: 1, Extensions: []string{"HealthcareAccount"}}
		if err := l.Create(engine.Open(engine.Config{}), []*core.Tenant{tn}); err != nil {
			b.Fatal(err)
		}
		return l
	}
	b.Run("insert_chunkfold", func(b *testing.B) {
		l := folding(b)
		st := mustParse(b, "INSERT INTO Account (Id, Name, Industry, Attr00, Attr01, Hospital, Beds) VALUES (1, 'Acme', 'health', 'a', 7, 'St. Mary', 135)")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.Rewrite(1, st); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("update_phaseb_chunkfold", func(b *testing.B) {
		l := folding(b)
		rw, err := l.Rewrite(1, mustParse(b, "UPDATE Account SET Name = 'x', Beds = Beds + 1 WHERE Id = 1"))
		if err != nil {
			b.Fatal(err)
		}
		rows := [][]types.Value{{types.NewInt(0), types.NewString("x"), types.NewInt(136)}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(rw.PhaseB(rows)) != 2 {
				b.Fatal("phase (b) should write the base table and one chunk")
			}
		}
	})

	b.Run("q_pivot", func(b *testing.B) {
		l, err := core.NewPivotLayout(chunkexp.Schema())
		if err != nil {
			b.Fatal(err)
		}
		if err := l.AddTenant(nil, &core.Tenant{ID: 1}); err != nil {
			b.Fatal(err)
		}
		st := mustParse(b, chunkexp.Q2(30))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rw, err := l.Rewrite(1, st); err != nil || rw.Query == nil {
				b.Fatal(err)
			}
		}
		phys(b, 1)
	})
	pivot := func(b *testing.B) core.Layout {
		l, err := core.NewPivotLayout(testbed.MultiInstanceSchema(1, true))
		if err != nil {
			b.Fatal(err)
		}
		tn := &core.Tenant{ID: 1, Extensions: []string{"HealthcareAccount"}}
		if err := l.Create(engine.Open(engine.Config{}), []*core.Tenant{tn}); err != nil {
			b.Fatal(err)
		}
		return l
	}
	b.Run("insert_pivot", func(b *testing.B) {
		l := pivot(b)
		st := mustParse(b, "INSERT INTO Account (Id, Name, Industry, Attr00, Attr01, Hospital, Beds) VALUES (1, 'Acme', 'health', 'a', 7, 'St. Mary', 135)")
		var n int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rw, err := l.Rewrite(1, st)
			if err != nil {
				b.Fatal(err)
			}
			n = len(rw.Direct)
		}
		phys(b, n)
	})
	b.Run("update_phaseb_pivot", func(b *testing.B) {
		l := pivot(b)
		rw, err := l.Rewrite(1, mustParse(b, "UPDATE Account SET Name = 'x', Beds = Beds + 1 WHERE Id = 1"))
		if err != nil {
			b.Fatal(err)
		}
		rows := [][]types.Value{{types.NewInt(0), types.NewString("x"), types.NewInt(136)}}
		var n int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n = len(rw.PhaseB(rows))
		}
		phys(b, n)
	})
}

// BenchmarkFoldingUpdate times a whole logical UPDATE — a session
// Mapper, warm, on Chunk Folding with the health-care
// extension folded — in the three shapes crm_wire_writes' deck and its
// neighbours take: one row by key, base column (one direct statement);
// one row by key, extension column (the key is in the base table, the
// column in a chunk: two phases); sixteen rows by an indexed base column
// (direct). Beside ns/op and allocs/op it reports the physical
// statements the engine ran per logical one.
func BenchmarkFoldingUpdate(b *testing.B) {
	const rows = 256
	bed := func(b *testing.B) *core.Mapper {
		l, err := core.NewChunkFoldingLayout(testbed.MultiInstanceSchema(1, true), core.FoldingOptions{})
		if err != nil {
			b.Fatal(err)
		}
		db := engine.Open(engine.Config{})
		if err := l.Create(db, []*core.Tenant{{ID: 1, Extensions: []string{"HealthcareAccount"}}}); err != nil {
			b.Fatal(err)
		}
		m := core.NewSessionMapper(db, l)
		for id := 0; id < rows; id++ {
			if _, err := m.Exec(1, "INSERT INTO Account (Id, Name, Industry, Attr01, Hospital, Beds) VALUES (?, ?, ?, 0, 'St. Mary', 0)",
				types.NewInt(int64(id)), types.NewString(fmt.Sprintf("acct-%d", id)), types.NewString(fmt.Sprintf("ind-%d", id%(rows/16)))); err != nil {
				b.Fatal(err)
			}
		}
		return m
	}
	for _, c := range []struct {
		name, query string
		affected    int64
	}{
		{"base_by_key", "UPDATE Account SET Attr01 = Attr01 + 1 WHERE Id = %d", 1},
		{"extension_by_key", "UPDATE Account SET Beds = Beds + 1 WHERE Id = %d", 1},
		{"base_16_rows_by_index", "UPDATE Account SET Name = 'upd' WHERE Industry = 'ind-%d'", 16},
	} {
		b.Run(c.name, func(b *testing.B) {
			m := bed(b)
			run := func(i int) {
				// Values inlined, as application SQL arrives: the cache keys
				// the rewrite on the template.
				res, err := m.Exec(1, fmt.Sprintf(c.query, i%(rows/16)))
				if err != nil {
					b.Fatal(err)
				}
				if res.RowsAffected != c.affected {
					b.Fatalf("%d rows affected, want %d", res.RowsAffected, c.affected)
				}
			}
			run(0) // fill the rewrite and plan caches
			before := m.DB.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(i)
			}
			b.StopTimer()
			after := m.DB.Stats()
			phys := after.PlanCacheHits + after.PlanCacheMisses - before.PlanCacheHits - before.PlanCacheMisses
			b.ReportMetric(float64(phys)/float64(b.N), "phys-stmts/op")
		})
	}
}

func mustParse(b *testing.B, q string) sql.Statement {
	b.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkTenantsSharePlans runs the CRM deck's cached statements —
// Figure 6's select and update classes in their deck shares, values
// inlined, tenants drawn uniformly — through a session Mapper on Basic
// at 1, 32, 1 024 and 10 000 tenants, one logical statement per op. The
// caches are warmed by one deck; the measured statements are cards dealt
// after it whose literals are values no statement before them held
// (fresh), so no raw text repeats. Beside ns/op and allocs/op it reports
// the engine plan-cache misses per op — a compiled statement is shared by
// every tenant whose placement has its shape, so they stay near zero
// however many tenants there are — the statements the rewrite cache
// parsed per op (TemplateHits + Misses), and its entries at the end: a
// (tenant, shape) each, so past DefaultRewriteCacheCap of them the
// tenants' shapes evict one another and parse again.
func BenchmarkTenantsSharePlans(b *testing.B) {
	for _, tenants := range []int{1, 32, 1024, 10000} {
		b.Run(fmt.Sprintf("tenants_%d", tenants), func(b *testing.B) {
			bed, err := testbed.Setup(testbed.Config{Tenants: tenants, RowsPerTable: 2})
			if err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(2008))
			classes := []testbed.ActionClass{testbed.SelectLight, testbed.SelectHeavy, testbed.UpdateLight, testbed.UpdateHeavy}
			cards := []int{500, 150, 176, 75}
			type stmt struct {
				tenant int64
				q      string
			}
			deal := func(class testbed.ActionClass) (out []stmt) {
				a := bed.Workload.NextAction(r, class, nil)
				for _, q := range append(a.Queries, a.Execs...) {
					out = append(out, stmt{a.Tenant, q})
				}
				return out
			}
			var deck []stmt
			for c, n := range cards {
				for i := 0; i < n; i++ {
					deck = append(deck, deal(classes[c])...)
				}
			}
			r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			m := core.NewSessionMapper(bed.DB, bed.Layout)
			defer m.Session.Close()
			run := func(s stmt) {
				if _, _, err := m.Do(s.tenant, s.q); err != nil {
					b.Fatal(err)
				}
			}
			for _, s := range deck {
				run(s) // fill the rewrite and plan caches
			}
			var measured []stmt
			var sh sql.Shape
			for v := 0; len(measured) < b.N; {
				class := 0
				for k := r.Intn(901); k >= cards[class]; class++ {
					k -= cards[class]
				}
				for _, s := range deal(classes[class]) {
					v++
					measured = append(measured, stmt{s.tenant, fresh(&sh, s.q, v)})
				}
			}
			before, rc := m.DB.Stats(), m.Cache.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(measured[i])
			}
			b.StopTimer()
			after := m.Cache.Stats()
			b.ReportMetric(float64(m.DB.Stats().PlanCacheMisses-before.PlanCacheMisses)/float64(b.N), "plan-misses/op")
			b.ReportMetric(float64(after.TemplateHits+after.Misses-rc.TemplateHits-rc.Misses)/float64(b.N), "parses/op")
			b.ReportMetric(float64(after.Entries), "entries")
		})
	}
}

// fresh is q with its literals replaced by values the CRM deck never
// draws: the numbers v+1 000 000 on, the strings 'fv', 'fv+1', ….
func fresh(sh *sql.Shape, q string, v int) string {
	if !sh.Scan(q) {
		panic("no shape: " + q)
	}
	var sb strings.Builder
	for i := 0; i < len(sh.Key); i++ {
		if sh.Key[i] != sql.Marker {
			sb.WriteByte(sh.Key[i])
			continue
		}
		i++
		switch types.Kind(sh.Key[i]) {
		case types.KindString:
			fmt.Fprintf(&sb, "'f%d'", v)
		case types.KindFloat:
			fmt.Fprintf(&sb, "%d.5", v+1000000)
		case types.KindDate:
			fmt.Fprintf(&sb, "DATE '%04d-01-01'", 1000+v%9000)
		default:
			fmt.Fprintf(&sb, "%d", v+1000000)
		}
		v++
	}
	return sb.String()
}

// BenchmarkStatementPaths: one logical statement per op through a
// session Mapper on Basic (32 tenants, 64 rows a table), warm. "same"
// repeats one text; "fresh" sends the template with a literal no op
// before it held — the rewrite cache's shape hit — and reads no row.
// "refused" is a shape the guard refuses (a folded -n): each text parses.
// "insert" and "insert-heavy" are the deck's Insert Light and Insert
// Heavy statements (one row and fifty into Account, each of new keys) on
// a Chunk Folding tenant with an extension: a shape hit that reserves
// row ids and writes the base table and an extension chunk.
func BenchmarkStatementPaths(b *testing.B) {
	benchStatementInserts(b)
	bed, err := testbed.Setup(testbed.Config{Tenants: 32, RowsPerTable: 64})
	if err != nil {
		b.Fatal(err)
	}
	m := core.NewSessionMapper(bed.DB, bed.Layout)
	defer m.Session.Close()
	for _, c := range []struct{ name, format string }{
		{"select", "SELECT * FROM Account WHERE Id = %d"},
		{"update", "UPDATE Account SET Attr01 = Attr01 + 1 WHERE Id = %d"},
		{"refused", "SELECT * FROM Account WHERE Id = -%d"}, // a folded -n: no shape
	} {
		for _, fresh := range []bool{false, true} {
			name := c.name + "/same"
			if fresh {
				name = c.name + "/fresh"
			}
			b.Run(name, func(b *testing.B) {
				texts := make([]string, b.N)
				for i := range texts {
					v := 7
					if fresh {
						v = 1000000 + i + b.N*3
					}
					texts[i] = fmt.Sprintf(c.format, v)
				}
				if _, _, err := m.Do(1, fmt.Sprintf(c.format, 7)); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := m.Do(1, texts[i]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchStatementInserts is BenchmarkStatementPaths' INSERT cases. Each
// run sets up its own bed and draws its own texts, so every run of one
// -benchtime inserts the same rows into the same tables and allocs/op
// holds across -count.
func benchStatementInserts(b *testing.B) {
	for _, c := range []struct {
		name string
		rows int
	}{{"insert/fresh", 1}, {"insert-heavy/fresh", 50}} {
		b.Run(c.name, func(b *testing.B) {
			bed, err := testbed.Setup(testbed.Config{
				Tenants: 32, RowsPerTable: 64, WithExtensions: true,
				NewLayout: func(s *core.Schema) (core.Layout, error) {
					return core.NewChunkFoldingLayout(s, core.FoldingOptions{})
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			tenant := 1
			for ; ; tenant++ { // the first tenant whose Account is its own: extended
				p, err := core.Placement(bed.Layout, int64(tenant), "Account")
				if err != nil {
					b.Fatal(err)
				}
				if strings.Contains(p, "tenant's own") {
					break
				}
			}
			m := core.NewSessionMapper(bed.DB, bed.Layout)
			defer m.Session.Close()
			r := rand.New(rand.NewSource(1))
			texts := make([]string, b.N+1)
			for i := range texts {
				texts[i] = bed.Workload.InsertSQL(r, tenant-1, "Account", c.rows)
			}
			if _, err := m.Exec(int64(tenant), texts[b.N]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Exec(int64(tenant), texts[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
