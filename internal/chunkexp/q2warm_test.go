package chunkexp

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/types"
)

// Sinks keep the compiler from discarding the measured calls.
var (
	sinkStmt sql.Statement
	sinkKey  string
	sinkRows *engine.Rows
)

// BenchmarkQ2Warm splits what one warm action of the repository
// benchmark's chunk_q2_join workload pays (Q2 at scale 30 over Chunk6,
// 300 parents × 10 children, everything in the pool) into the layers it
// passes through, so a change on this path can name the layer it moved:
// parse the logical text, rewrite it for the tenant, render the
// physical statement as its plan-cache key — what the Mapper's rewrite
// cache pays once per statement shape — then execute the cached plan
// (exec_keyed: a session with the key precomputed, so nothing but the
// plan-cache lookup and the executor runs), and the logical statement
// through core.Mapper as the workload does (mapper_query). A warm
// mapper_query is exec_keyed plus one rewrite-cache hit: the two must
// stay within 5 % of each other (make bench-smoke prints both).
//
// parallel2 is exec_keyed from two sessions at once, as the workload's
// two clients run it; an op is still one query, so on two idle cores it
// reads half of exec_keyed when the sessions share nothing, and more by
// whatever they wait for each other: the root and leaves of the
// meta-data index, the pool's shard mutexes. The -cpu 1 rows cannot see
// that cost; read this one at -cpu 2.
func BenchmarkQ2Warm(b *testing.B) {
	in, err := NewChunk(Config{Parents: 300, ChildrenPerParent: 10}, 6, false)
	if err != nil {
		b.Fatal(err)
	}
	if err := in.Load(); err != nil {
		b.Fatal(err)
	}
	q := Q2(30)
	parse := func() *sql.SelectStmt {
		st, err := sql.Parse(q)
		if err != nil {
			b.Fatal(err)
		}
		return st.(*sql.SelectStmt)
	}
	rewrite := func() *sql.SelectStmt {
		rw, err := in.mapper.Layout.Rewrite(1, parse())
		if err != nil {
			b.Fatal(err)
		}
		return rw.Query
	}
	param := func(i int) types.Value { return types.NewInt(int64(1 + i%300)) }

	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkStmt = parse()
		}
	})
	b.Run("rewrite", func(b *testing.B) {
		sel := parse()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rw, err := in.mapper.Layout.Rewrite(1, sel)
			if err != nil {
				b.Fatal(err)
			}
			sinkStmt = rw.Query
		}
	})
	b.Run("key", func(b *testing.B) {
		phys := rewrite()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkKey = phys.String()
		}
	})
	b.Run("exec_keyed", func(b *testing.B) {
		phys := rewrite()
		key := phys.String()
		s := in.DB.Session()
		defer s.Close()
		if sinkRows, err = s.QueryStmt(phys, key, param(0)); err != nil || len(sinkRows.Data) != 10 {
			b.Fatalf("warm-up: %v, %v", sinkRows, err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sinkRows, err = s.QueryStmt(phys, key, param(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel2", func(b *testing.B) {
		phys := rewrite()
		key := phys.String()
		b.ReportAllocs()
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				s := in.DB.Session()
				defer s.Close()
				for i := g; i < b.N; i += 2 {
					if rows, err := s.QueryStmt(phys, key, param(i)); err != nil || len(rows.Data) != 10 {
						b.Errorf("session %d: %v, %v", g, rows, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
	b.Run("mapper_query", func(b *testing.B) {
		if sinkRows, err = in.Query(q, param(0)); err != nil || len(sinkRows.Data) != 10 {
			b.Fatalf("warm-up: %v, %v", sinkRows, err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sinkRows, err = in.Query(q, param(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestQ2WarmAllocationGate holds the warm executor to what a recycled
// operator tree should cost: the rewritten Q2 over Chunk6 through a
// session with its plan-cache key precomputed allocates its result
// (ten rows, their strings) and little else. Rebuilding the tree per
// execution cost 660 allocations / 443 KB at scale 30 and 1 172 /
// 1.3 MB at scale 60 (22 joins); bytes follow the result, not the join
// count. With joins growing rows in place and 32-byte values, a warm
// execution costs 148 / 27 KB at scale 30 and 269 / 53 KB at scale 60.
// The logical statement
// through the Mapper is held to the same ceilings: warm, it may cost no
// more than its physical one (parsing and rewriting it per call cost
// 866 allocations / 97 KB at scale 30).
func TestQ2WarmAllocationGate(t *testing.T) {
	in, err := NewChunk(Config{Parents: 300, ChildrenPerParent: 10}, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Load(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		scale     int
		allocs    float64
		bytesPerQ uint64
	}{{30, 160, 32 << 10}, {60, 290, 60 << 10}} {
		st, err := sql.Parse(Q2(tc.scale))
		if err != nil {
			t.Fatal(err)
		}
		rw, err := in.mapper.Layout.Rewrite(1, st)
		if err != nil {
			t.Fatal(err)
		}
		key := rw.Query.String()
		s := in.DB.Session()
		q := Q2(tc.scale)
		for _, path := range []struct {
			name  string
			query func(id types.Value) (*engine.Rows, error)
		}{
			{"keyed session", func(id types.Value) (*engine.Rows, error) { return s.QueryStmt(rw.Query, key, id) }},
			{"mapper", func(id types.Value) (*engine.Rows, error) { return in.mapper.Query(1, q, id) }},
		} {
			i := 0
			run := func() {
				i++
				rows, err := path.query(types.NewInt(int64(1 + i%300)))
				if err != nil || len(rows.Data) != 10 {
					t.Fatalf("scale %d, %s: %v, %v", tc.scale, path.name, rows, err)
				}
			}
			run()
			const runs = 200
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(runs, run)
			runtime.ReadMemStats(&after)
			// AllocsPerRun makes one warm-up call of its own.
			perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
			t.Logf("scale %d, %s: %.0f allocations, %d bytes per warm execution", tc.scale, path.name, allocs, perRun)
			if allocs > tc.allocs || perRun > tc.bytesPerQ {
				t.Errorf("scale %d, %s: %.0f allocations and %d bytes per warm execution, want at most %.0f and %d",
					tc.scale, path.name, allocs, perRun, tc.allocs, tc.bytesPerQ)
			}
		}
		s.Close()
	}
}
