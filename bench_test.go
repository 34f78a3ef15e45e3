package repro

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/chunkexp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/testbed"
	"repro/internal/types"
)

// The benchmarks in this file regenerate the paper's tables and
// figures at laptop scale. Each benchmark reports the paper's metric
// as testing.B custom metrics; cmd/mtdbench and cmd/chunkbench print
// the same data as formatted tables at any scale.

// --- Table 1 -----------------------------------------------------------------

// BenchmarkTable1SchemaVariability reports the Table 1 configuration
// (instances and total tables) for each schema variability.
func BenchmarkTable1SchemaVariability(b *testing.B) {
	const tenants = 120
	for _, v := range []float64{0, 0.5, 0.65, 0.8, 1.0} {
		b.Run(fmt.Sprintf("variability=%.2f", v), func(b *testing.B) {
			var inst int
			for i := 0; i < b.N; i++ {
				inst = testbed.VariabilityConfig(v, tenants)
			}
			b.ReportMetric(float64(inst), "instances")
			b.ReportMetric(float64(inst*len(testbed.CRMTables)), "tables")
		})
	}
}

// --- Table 2 / Figure 7 -------------------------------------------------------

// BenchmarkTable2Fig7SchemaVariability runs the §5 experiment at one
// point per schema variability: fixed tenants, data, and sessions;
// variable instance count. Reported metrics are the Table 2 rows:
// throughput (actions/min), 95 % Select Light response time (ms), and
// the data/index buffer hit ratios (%). Run cmd/mtdbench for the full
// formatted table with baseline compliance.
func BenchmarkTable2Fig7SchemaVariability(b *testing.B) {
	const tenants = 60
	for _, v := range []float64{0, 0.5, 1.0} {
		v := v
		b.Run(fmt.Sprintf("variability=%.2f", v), func(b *testing.B) {
			bed, err := testbed.Setup(testbed.Config{
				Tenants:      tenants,
				Instances:    testbed.VariabilityConfig(v, tenants),
				RowsPerTable: 10,
				Sessions:     8,
				Actions:      400,
				Seed:         2008,
				MemoryBytes:  8 << 20,
				ReadLatency:  50 * time.Microsecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var res *testbed.Result
			for i := 0; i < b.N; i++ {
				res, err = bed.Run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Throughput(), "actions/min")
			b.ReportMetric(float64(res.Quantile(testbed.SelectLight, 0.95))/1e6, "selL-p95-ms")
			b.ReportMetric(100*res.Stats.Pool.HitRatio(storage.CatData), "data-hit-%")
			b.ReportMetric(100*res.Stats.Pool.HitRatio(storage.CatIndex), "index-hit-%")
		})
	}
}

// --- Multi-session scaling ----------------------------------------------------

// BenchmarkMultiSessionScaling sweeps the session count over the §4
// CRM workload at a fixed action budget and reports statements/sec
// plus scaling efficiency relative to one session (1.0 = perfect
// linear scaling). The memory budget is deliberately tight and misses
// carry simulated I/O latency, so the run is latency-bound the way the
// paper's disk-backed testbed was: sessions overlap their misses via
// the per-frame I/O latch while the sharded pool keeps the metadata
// path off a global mutex. cmd/mtdbench -scaling prints the same sweep
// as a table and emits BENCH_1.json.
func BenchmarkMultiSessionScaling(b *testing.B) {
	base := 0.0
	for _, sessions := range []int{1, 2, 4, 8, 16} {
		sessions := sessions
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				bed, err := testbed.Setup(testbed.Config{
					Tenants:      120,
					Instances:    1,
					RowsPerTable: 12,
					Sessions:     sessions,
					Actions:      400,
					Seed:         2008,
					MemoryBytes:  2 << 20,
					ReadLatency:  500 * time.Microsecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := bed.Run()
				if err != nil {
					b.Fatal(err)
				}
				last = res.StatementsPerSec()
			}
			b.ReportMetric(last, "stmts/sec")
			if sessions == 1 {
				base = last
			}
			if base > 0 {
				b.ReportMetric(last/base, "speedup")
				b.ReportMetric(last/(base*float64(sessions)), "efficiency")
			}
		})
	}
}

// BenchmarkInsertModeAblation isolates the §5 insert anomaly: DB2's
// two insert methods. Best-fit refills holes left by deletes and keeps
// the relation compact but touches more pages per insert; append is
// faster per insert and leaves the relation sparse. The benchmark
// deletes half the rows, re-inserts, and reports the resulting page
// count.
func BenchmarkInsertModeAblation(b *testing.B) {
	for _, mode := range []storage.InsertMode{storage.InsertBestFit, storage.InsertAppend} {
		name := "best-fit"
		if mode == storage.InsertAppend {
			name = "append"
		}
		mode := mode
		b.Run(name, func(b *testing.B) {
			var pages int
			for i := 0; i < b.N; i++ {
				bed, err := testbed.Setup(testbed.Config{
					Tenants: 2, RowsPerTable: 300, Sessions: 1, Actions: 1,
					Seed: 7, InsertMode: mode, MemoryBytes: 8 << 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				// Punch holes, then insert heavily.
				for t := int64(1); t <= 2; t++ {
					if _, err := bed.Mapper.Exec(t, "DELETE FROM Account WHERE Id <= 250"); err != nil {
						b.Fatal(err)
					}
				}
				for t := 0; t < 2; t++ {
					q := bed.Workload.InsertSQL(benchRand(int64(t)), t, "Account", 250)
					if _, err := bed.Mapper.Exec(int64(t+1), q); err != nil {
						b.Fatal(err)
					}
				}
				tab, err := bed.DB.Catalog().Table("Account")
				if err != nil {
					b.Fatal(err)
				}
				pages = tab.Heap.NumPages()
			}
			b.ReportMetric(float64(pages), "heap-pages")
		})
	}
}

// --- Figures 9, 10, 11 ---------------------------------------------------------

// chunkSweepInstances builds the §6.2 configurations shared by the
// figure benchmarks.
func chunkSweepInstances(b *testing.B, widths []int) []*chunkexp.Instance {
	b.Helper()
	cfg := chunkexp.Config{Parents: 80, ChildrenPerParent: 8, MemoryBytes: 16 << 20}
	conv, err := chunkexp.NewConventional(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := conv.Load(); err != nil {
		b.Fatal(err)
	}
	out := []*chunkexp.Instance{conv}
	for _, w := range widths {
		in, err := chunkexp.NewChunk(cfg, w, false)
		if err != nil {
			b.Fatal(err)
		}
		if err := in.Load(); err != nil {
			b.Fatal(err)
		}
		out = append(out, in)
	}
	return out
}

var fig9Widths = []int{3, 15, 90}
var fig9Scales = []int{3, 30, 90}

// BenchmarkFig9WarmCache times Q2 with a warm cache across chunk widths
// and scale factors (Figure 9's series).
func BenchmarkFig9WarmCache(b *testing.B) {
	for _, in := range chunkSweepInstances(b, fig9Widths) {
		for _, scale := range fig9Scales {
			in, scale := in, scale
			b.Run(fmt.Sprintf("%s/scale=%d", in.Name, scale), func(b *testing.B) {
				q := chunkexp.Q2(scale)
				if _, err := in.Query(q, types.NewInt(2)); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := in.Query(q, types.NewInt(2)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig10LogicalReads reports Q2's logical page reads per
// execution (Figure 10's series).
func BenchmarkFig10LogicalReads(b *testing.B) {
	for _, in := range chunkSweepInstances(b, fig9Widths) {
		for _, scale := range fig9Scales {
			in, scale := in, scale
			b.Run(fmt.Sprintf("%s/scale=%d", in.Name, scale), func(b *testing.B) {
				q := chunkexp.Q2(scale)
				if _, err := in.Query(q, types.NewInt(2)); err != nil {
					b.Fatal(err)
				}
				in.DB.ResetStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := in.Query(q, types.NewInt(2)); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				reads := in.DB.Stats().Pool.TotalLogicalReads()
				b.ReportMetric(float64(reads)/float64(b.N), "logical-reads/op")
			})
		}
	}
}

// BenchmarkFig11ColdCache times Q2 with the buffer pool dropped before
// every execution (Figure 11's series).
func BenchmarkFig11ColdCache(b *testing.B) {
	for _, in := range chunkSweepInstances(b, fig9Widths) {
		for _, scale := range fig9Scales {
			in, scale := in, scale
			b.Run(fmt.Sprintf("%s/scale=%d", in.Name, scale), func(b *testing.B) {
				q := chunkexp.Q2(scale)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if err := in.DB.DropCaches(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := in.Query(q, types.NewInt(2)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Figure 12 -------------------------------------------------------------------

// BenchmarkFig12FoldingVsVertical compares Chunk Folding with vertical
// partitioning under buffer pressure and reports the cold-cache
// improvement percentage (Figure 12).
func BenchmarkFig12FoldingVsVertical(b *testing.B) {
	cfg := chunkexp.Config{Parents: 60, ChildrenPerParent: 8, MemoryBytes: 1 << 20,
		ReadLatency: 40 * time.Microsecond}
	for _, w := range []int{3, 15, 90} {
		w := w
		b.Run(fmt.Sprintf("width=%d", w), func(b *testing.B) {
			folded, err := chunkexp.NewChunk(cfg, w, false)
			if err != nil {
				b.Fatal(err)
			}
			if err := folded.Load(); err != nil {
				b.Fatal(err)
			}
			vert, err := chunkexp.NewVertical(cfg, w)
			if err != nil {
				b.Fatal(err)
			}
			if err := vert.Load(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var imp float64
			for i := 0; i < b.N; i++ {
				mf, err := folded.MeasureQ2(chunkexp.Q2(30), 2, 5)
				if err != nil {
					b.Fatal(err)
				}
				mv, err := vert.MeasureQ2(chunkexp.Q2(30), 2, 5)
				if err != nil {
					b.Fatal(err)
				}
				imp = chunkexp.Improvement(mf, mv)
			}
			b.ReportMetric(imp, "improvement-%")
		})
	}
}

// --- §6.2 Test 1 --------------------------------------------------------------------

// BenchmarkTest1NestedVsFlattened times Q2 under every optimizer ×
// transformation variant of Test 1.
func BenchmarkTest1NestedVsFlattened(b *testing.B) {
	cfg := chunkexp.Config{Parents: 60, ChildrenPerParent: 6, MemoryBytes: 16 << 20}
	for _, v := range chunkexp.Test1Variants() {
		v := v
		b.Run(v.Name, func(b *testing.B) {
			in, err := chunkexp.NewTest1Instance(cfg, v)
			if err != nil {
				b.Fatal(err)
			}
			if err := in.Load(); err != nil {
				b.Fatal(err)
			}
			q := chunkexp.Q2(6)
			if _, err := in.Query(q, types.NewInt(2)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.Query(q, types.NewInt(2)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- "Additional tests": grouping queries -----------------------------------------

// BenchmarkGroupingOverChunks times the roll-up query over chunk widths
// (the paper's observation that grouping queries over the narrowest
// chunks can be an order of magnitude slower than conventional).
func BenchmarkGroupingOverChunks(b *testing.B) {
	for _, in := range chunkSweepInstances(b, []int{3, 90}) {
		in := in
		b.Run(in.Name, func(b *testing.B) {
			q := chunkexp.Q2Grouping(30)
			if _, err := in.Query(q, types.NewInt(2)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.Query(q, types.NewInt(2)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Layout micro-benchmarks --------------------------------------------------------

// BenchmarkLayoutPointQuery compares a single-entity lookup across all
// schema-mapping layouts (the consolidation/performance trade-off of
// §3 made measurable).
func BenchmarkLayoutPointQuery(b *testing.B) {
	schema := &core.Schema{
		Tables: []*core.Table{{
			Name: "Account", Key: "Aid",
			Columns: []core.Column{
				{Name: "Aid", Type: types.IntType, NotNull: true, Indexed: true},
				{Name: "Name", Type: types.VarcharType(50)},
				{Name: "Industry", Type: types.VarcharType(30)},
			},
		}},
		Extensions: []*core.Extension{
			{Name: "HealthcareAccount", Base: "Account", Columns: []core.Column{
				{Name: "Beds", Type: types.IntType},
			}},
		},
	}
	layouts := map[string]func() (core.Layout, error){
		"private":   func() (core.Layout, error) { return core.NewPrivateLayout(schema) },
		"extension": func() (core.Layout, error) { return core.NewExtensionLayout(schema) },
		"universal": func() (core.Layout, error) { return core.NewUniversalLayout(schema, 8) },
		"pivot":     func() (core.Layout, error) { return core.NewPivotLayout(schema, true) },
		"chunk": func() (core.Layout, error) {
			return core.NewChunkLayout(schema, core.ChunkOptions{})
		},
		"chunkfold": func() (core.Layout, error) {
			return core.NewChunkFoldingLayout(schema, core.FoldingOptions{})
		},
	}
	for name, mk := range layouts {
		name, mk := name, mk
		b.Run(name, func(b *testing.B) {
			l, err := mk()
			if err != nil {
				b.Fatal(err)
			}
			db := engine.Open(engine.Config{})
			if err := l.Create(db, []*core.Tenant{{ID: 1, Extensions: []string{"HealthcareAccount"}}}); err != nil {
				b.Fatal(err)
			}
			m := core.NewMapper(db, l)
			for i := 1; i <= 100; i++ {
				q := fmt.Sprintf("INSERT INTO Account (Aid, Name, Industry, Beds) VALUES (%d, 'a%d', 'i%d', %d)", i, i, i%5, i)
				if _, err := m.Exec(1, q); err != nil {
					b.Fatal(err)
				}
			}
			q := "SELECT Name, Beds FROM Account WHERE Aid = ?"
			if _, err := m.Query(1, q, types.NewInt(7)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Query(1, q, types.NewInt(int64(1+i%100))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Batch execution + column pruning ------------------------------------------------

// wideTableFixture builds a 20-column table — 16 VARCHAR attributes
// around 4 INTEGER columns — the universal-table shape whose wide rows
// make narrow projections expensive without column pruning.
func wideTableFixture(b *testing.B, rows int) *catalog.Catalog {
	b.Helper()
	pool := storage.NewBufferPool(storage.NewDisk(0), 64<<20)
	cat := catalog.New(pool, catalog.Config{MemoryBytes: 64 << 20})
	cols := []catalog.Column{
		{Name: "k0", Type: types.IntType, NotNull: true},
		{Name: "k1", Type: types.IntType},
	}
	for i := 0; i < 16; i++ {
		cols = append(cols, catalog.Column{Name: fmt.Sprintf("attr%02d", i), Type: types.StringType})
	}
	cols = append(cols,
		catalog.Column{Name: "k2", Type: types.IntType},
		catalog.Column{Name: "k3", Type: types.IntType},
	)
	tab, err := cat.CreateTable("wide", cols)
	if err != nil {
		b.Fatal(err)
	}
	r := benchRand(2008)
	row := make([]types.Value, len(cols))
	for i := 1; i <= rows; i++ {
		row[0] = types.NewInt(int64(i))
		row[1] = types.NewInt(int64(r.Intn(1000)))
		for j := 0; j < 16; j++ {
			row[2+j] = types.NewString(fmt.Sprintf("attribute-%02d-value-%06d", j, r.Intn(1_000_000)))
		}
		row[18] = types.NewInt(int64(r.Intn(1000)))
		row[19] = types.NewInt(int64(r.Intn(1000)))
		if _, err := tab.InsertRow(row); err != nil {
			b.Fatal(err)
		}
	}
	return cat
}

func planBench(b *testing.B, cat *catalog.Catalog, query string) plan.Node {
	b.Helper()
	st, err := sql.Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	n, err := plan.New(cat, plan.Sophisticated).PlanStatement(st)
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkWideTableNarrowProjection is the headline measurement of the
// batching + pruning work: a 4-of-20-column projection with a filter
// over a wide heap. BENCH_3.json is the frozen PR 3 record of this query
// against the row-at-a-time executor that no longer exists.
func BenchmarkWideTableNarrowProjection(b *testing.B) {
	cat := wideTableFixture(b, 2000)
	const query = "SELECT k0, k1, k2, k3 FROM wide WHERE k1 > 100"
	b.Run("batch", func(b *testing.B) {
		tree, err := exec.Build(planBench(b, cat, query))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := tree.Collect(nil, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) == 0 {
				b.Fatal("no rows")
			}
		}
	})
}

// BenchmarkWideTableAggregate measures a grouping roll-up over the same
// wide heap: aggregation consumes batches without retaining rows.
func BenchmarkWideTableAggregate(b *testing.B) {
	cat := wideTableFixture(b, 2000)
	const query = "SELECT k1, COUNT(*), SUM(k2) FROM wide GROUP BY k1"
	b.Run("batch", func(b *testing.B) {
		tree, err := exec.Build(planBench(b, cat, query))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tree.Collect(nil, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchRand builds a deterministic rand source for benchmark data.
func benchRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed + 99)) }
