package core_test

import (
	"fmt"
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
// a rewrite-cache miss on chunk_q2_join's statement costs), and the two
// shapes no cache remembers — an INSERT and an UPDATE's phase (b) over
// Chunk Folding with extensions (crm_wire_writes pays both per
// statement).
func BenchmarkRewrite(b *testing.B) {
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
