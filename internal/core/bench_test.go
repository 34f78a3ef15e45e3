package core_test

import (
	"testing"

	"repro/internal/chunkexp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/testbed"
	"repro/internal/types"
)

// BenchmarkRewrite times the layout rewrite alone (the statement is
// parsed once, outside the loop) on the two shapes the repository
// benchmark runs uncached: §6.2 Q2 at scale 30 over Chunk6
// (chunk_q2_join rewrites on every action), and an INSERT and an
// UPDATE's phase (b) over Chunk Folding with extensions
// (crm_wire_writes: neither goes through the rewrite cache).
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

func mustParse(b *testing.B, q string) sql.Statement {
	b.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		b.Fatal(err)
	}
	return st
}
