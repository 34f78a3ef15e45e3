// Command mtdbench reproduces the paper's §5 "handling many tables"
// experiment: a fixed tenant population with a fixed per-tenant dataset
// and a fixed session count, swept over schema variability — the number
// of CRM schema instances tenants are consolidated into (Table 1). It
// prints the Table 2 metric block (baseline compliance, throughput,
// 95 % response times per action class, buffer-pool hit ratios), which
// also yields the Figure 7 series.
//
// With -scaling it instead sweeps the concurrent session count at
// schema variability 0 and reports statements/sec and scaling
// efficiency per session count, optionally writing the sweep as JSON
// (-json-out BENCH_1.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/testbed"
)

func main() {
	var (
		tenants   = flag.Int("tenants", 120, "number of tenants (paper: 10000)")
		rows      = flag.Int("rows", 12, "rows per tenant per table (stands in for 1.4 MB/tenant)")
		sessions  = flag.Int("sessions", 8, "concurrent client sessions (paper: 40)")
		actions   = flag.Int("actions", 1200, "action cards per configuration")
		memMB     = flag.Int64("mem-mb", 12, "database memory budget in MiB")
		latency   = flag.Duration("latency", 80*time.Microsecond, "simulated I/O latency per buffer-pool miss")
		varList   = flag.String("variability", "0,0.5,0.65,0.8,1.0", "comma-separated schema variabilities")
		seed      = flag.Int64("seed", 2008, "random seed")
		appendIns = flag.Bool("append-insert", false, "use append heap placement instead of best-fit (§5 insert anomaly ablation)")
		confOnly  = flag.Bool("print-config", false, "print Table 1 and exit")
		layoutFl  = flag.String("layout", "basic", "schema-mapping layout: basic, extension, chunk, chunkfold, universal")
		withExts  = flag.Bool("extensions", false, "enable tenant extensions in schema and workload (§7's complete setting; needs a non-basic layout)")
		scaling   = flag.Bool("scaling", false, "run the multi-session scaling sweep instead of the variability sweep")
		recovery  = flag.Bool("recovery", false, "run the WAL/recovery benchmark (commit latency with and without group commit, recovery time vs checkpoint interval)")
		txnBench  = flag.Bool("txn", false, "run the interactive-transaction benchmark (commits/sec and conflict-abort rate vs session count)")
		txnSmoke  = flag.Bool("txn-smoke", false, "with -txn, run the reduced smoke sweep (CI regression canary; writes to the system temp dir unless -json-out is given)")
		alterBn   = flag.Bool("alter", false, "run the online-schema-evolution benchmark: CRM steady state while ALTERing every table and live-moving a tenant")
		alterSmk  = flag.Bool("alter-smoke", false, "with -alter, run the reduced smoke configuration (CI regression canary; writes to the system temp dir unless -json-out is given)")
		replBench = flag.Bool("repl", false, "run the replication benchmark: routed read scaling over 0-3 WAL-shipping replicas, plus catch-up after a large commit backlog")
		replSmoke = flag.Bool("repl-smoke", false, "with -repl, run the reduced smoke configuration (CI canary: lag must converge to 0; writes to the system temp dir unless -json-out is given)")
		netBench  = flag.Bool("net", false, "run the network benchmark: the CRM workload over the wire protocol, swept over concurrent connections")
		netSmoke  = flag.Bool("net-smoke", false, "with -net, run the reduced smoke sweep (CI regression canary; writes to the system temp dir unless -json-out is given)")
		netConns  = flag.String("net-conns", "64,256,1024", "comma-separated connection counts for -net")
		netActs   = flag.Int("net-actions", 6000, "total actions per -net sweep point, split across its connections")
		netPipe   = flag.Bool("net-pipeline", true, "with -net, pipeline each action's statements into one Batch frame (false: one round trip per statement)")
		netSlots  = flag.Int("net-slots", 0, "with -net, the server's fair-admission slot count (0: server default, negative: unlimited)")
		sessList  = flag.String("scaling-sessions", "1,2,4,8,16", "comma-separated session counts for -scaling")
		jsonOut   = flag.String("json-out", "", "with -scaling, also write the sweep as JSON to this file")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *scaling {
		runScaling(*sessList, *tenants, *rows, *actions, *memMB, *latency, *seed, *jsonOut)
		return
	}
	if *recovery {
		out := *jsonOut
		if out == "" {
			out = "BENCH_4.json"
		}
		runRecoveryBench(out)
		return
	}
	if *alterBn {
		out := *jsonOut
		if out == "" {
			if *alterSmk {
				out = filepath.Join(os.TempDir(), "BENCH_7_smoke.json")
			} else {
				out = "BENCH_7.json"
			}
		}
		runAlterBench(out, *alterSmk)
		return
	}
	if *replBench {
		out := *jsonOut
		if out == "" {
			if *replSmoke {
				out = filepath.Join(os.TempDir(), "BENCH_8_smoke.json")
			} else {
				out = "BENCH_8.json"
			}
		}
		runReplBench(out, *replSmoke)
		return
	}
	if *netBench {
		out := *jsonOut
		connsList, actions := *netConns, *netActs
		if *netSmoke {
			connsList, actions = "4,16", 240
			if out == "" {
				out = filepath.Join(os.TempDir(), "BENCH_6_smoke.json")
			}
		} else if out == "" {
			out = "BENCH_6.json"
		}
		runNetBench(out, connsList, actions, *netSmoke, *netPipe, *netSlots)
		return
	}
	if *txnBench {
		out := *jsonOut
		if out == "" {
			if *txnSmoke {
				out = filepath.Join(os.TempDir(), "BENCH_5_smoke.json")
			} else {
				out = "BENCH_5.json"
			}
		}
		runTxnBench(out, *txnSmoke)
		return
	}

	var variabilities []float64
	for _, s := range strings.Split(*varList, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad variability %q: %v\n", s, err)
			os.Exit(1)
		}
		variabilities = append(variabilities, v)
	}

	// Table 1: schema variability and data distribution.
	fmt.Println("Table 1: Schema Variability and Data Distribution")
	fmt.Printf("%-12s %-18s %-22s %s\n", "Variability", "Schema instances", "Tenants per instance", "Total tables")
	for _, v := range variabilities {
		inst := testbed.VariabilityConfig(v, *tenants)
		lo, hi := *tenants/inst, (*tenants+inst-1)/inst
		span := fmt.Sprintf("%d", lo)
		if hi != lo {
			span = fmt.Sprintf("%d-%d", lo, hi)
		}
		fmt.Printf("%-12.2f %-18d %-22s %d\n", v, inst, span, inst*len(testbed.CRMTables))
	}
	fmt.Println()
	if *confOnly {
		return
	}

	mode := storage.InsertBestFit
	if *appendIns {
		mode = storage.InsertAppend
	}
	var newLayout func(*core.Schema) (core.Layout, error)
	switch *layoutFl {
	case "basic":
		newLayout = nil // testbed default
	case "extension":
		newLayout = func(s *core.Schema) (core.Layout, error) { return core.NewExtensionLayout(s) }
	case "chunk":
		newLayout = func(s *core.Schema) (core.Layout, error) {
			return core.NewChunkLayout(s, core.ChunkOptions{Defs: core.UniformChunkDefs(s, 8)})
		}
	case "chunkfold":
		newLayout = func(s *core.Schema) (core.Layout, error) {
			return core.NewChunkFoldingLayout(s, core.FoldingOptions{})
		}
	case "universal":
		newLayout = func(s *core.Schema) (core.Layout, error) { return core.NewUniversalLayout(s, 32) }
	default:
		fmt.Fprintf(os.Stderr, "unknown layout %q\n", *layoutFl)
		os.Exit(1)
	}
	if *withExts && *layoutFl == "basic" {
		fmt.Fprintln(os.Stderr, "-extensions needs a non-basic -layout")
		os.Exit(1)
	}

	type runOut struct {
		v   float64
		res *testbed.Result
	}
	var runs []runOut
	for _, v := range variabilities {
		inst := testbed.VariabilityConfig(v, *tenants)
		fmt.Fprintf(os.Stderr, "setting up variability %.2f (%d instances, %d tables)...\n",
			v, inst, inst*len(testbed.CRMTables))
		bed, err := testbed.Setup(testbed.Config{
			Tenants: *tenants, Instances: inst, RowsPerTable: *rows,
			Sessions: *sessions, Actions: *actions, Seed: *seed,
			MemoryBytes: *memMB << 20, ReadLatency: *latency, InsertMode: mode,
			NewLayout: newLayout, WithExtensions: *withExts,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "setup: %v\n", err)
			os.Exit(1)
		}
		res, err := bed.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "run: %v\n", err)
			os.Exit(1)
		}
		runs = append(runs, runOut{v, res})
	}

	baseline := testbed.BaselineOf(runs[0].res)

	// Table 2: experimental results.
	fmt.Println("Table 2: Experimental Results")
	head := []string{"Metric"}
	for _, r := range runs {
		head = append(head, fmt.Sprintf("%.2f", r.v))
	}
	fmt.Println(strings.Join(pad(head), " "))
	row := func(name string, f func(*testbed.Result) string) {
		cells := []string{name}
		for _, r := range runs {
			cells = append(cells, f(r.res))
		}
		fmt.Println(strings.Join(pad(cells), " "))
	}
	row("Baseline Compliance [%]", func(r *testbed.Result) string {
		return fmt.Sprintf("%.1f", r.Compliance(baseline))
	})
	row("Throughput [1/min]", func(r *testbed.Result) string {
		return fmt.Sprintf("%.1f", r.Throughput())
	})
	for c := testbed.SelectLight; c <= testbed.UpdateHeavy; c++ {
		c := c
		row("95% RT "+c.String()+" [ms]", func(r *testbed.Result) string {
			return fmt.Sprintf("%.2f", float64(r.Quantile(c, 0.95))/float64(time.Millisecond))
		})
	}
	row("Bufferpool Hit Data [%]", func(r *testbed.Result) string {
		return fmt.Sprintf("%.2f", 100*r.Stats.Pool.HitRatio(storage.CatData))
	})
	row("Bufferpool Hit Index [%]", func(r *testbed.Result) string {
		return fmt.Sprintf("%.2f", 100*r.Stats.Pool.HitRatio(storage.CatIndex))
	})
	// The reads behind the hit ratios, and how many of them a statement
	// announced ahead of its first blocking fetch (hints are physical
	// reads, never logical ones, so the ratios above are unaffected).
	row("Physical Reads", func(r *testbed.Result) string {
		return fmt.Sprint(r.Stats.Pool.TotalPhysicalReads())
	})
	row("Prefetch started/joined", func(r *testbed.Result) string {
		return fmt.Sprintf("%d/%d", r.Stats.Pool.Prefetches, r.Stats.Pool.PrefetchJoined)
	})
	row("Prefetch wasted/dropped/peak", func(r *testbed.Result) string {
		p := r.Stats.Pool
		return fmt.Sprintf("%d/%d/%d", p.PrefetchWasted, p.PrefetchDropped, p.PeakInflight)
	})
	// Index scans and DML gathers on a table of one heap page read that
	// page instead of the index.
	row("One-page reads", func(r *testbed.Result) string {
		return fmt.Sprint(r.Stats.Exec.OnePageReads)
	})
	fmt.Println()
	fmt.Println("Figure 7 series: (a) compliance, (b) throughput, (c) hit ratios — columns above.")
}

// runScaling sweeps the concurrent session count over the §4 CRM
// workload at schema variability 0 (one shared schema instance) and
// prints statements/sec, speedup, and efficiency per point. The same
// numbers land in -json-out for machine consumption (BENCH_1.json).
func runScaling(sessList string, tenants, rows, actions int, memMB int64, latency time.Duration, seed int64, jsonOut string) {
	var sessions []int
	for _, s := range strings.Split(sessList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad session count %q\n", s)
			os.Exit(1)
		}
		sessions = append(sessions, n)
	}
	pts, err := testbed.RunScaling(testbed.Config{
		Tenants: tenants, Instances: 1, RowsPerTable: rows,
		Actions: actions, Seed: seed,
		MemoryBytes: memMB << 20, ReadLatency: latency,
	}, sessions)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scaling: %v\n", err)
		os.Exit(1)
	}

	fmt.Println("Multi-Session Scaling (schema variability 0)")
	fmt.Printf("%-10s %-12s %-12s %-12s %-10s %s\n",
		"Sessions", "Stmts", "Stmts/sec", "Actions/min", "Speedup", "Efficiency")
	for _, p := range pts {
		fmt.Printf("%-10d %-12d %-12.1f %-12.1f %-10.2f %.2f\n",
			p.Sessions, p.Statements, p.StatementsPerSec, p.ActionsPerMin, p.Speedup, p.Efficiency)
	}

	if jsonOut != "" {
		out := struct {
			Benchmark string                 `json:"benchmark"`
			Config    map[string]interface{} `json:"config"`
			Points    []testbed.ScalingPoint `json:"points"`
		}{
			Benchmark: "multi_session_scaling",
			Config: map[string]interface{}{
				"tenants":        tenants,
				"rows_per_table": rows,
				"actions":        actions,
				"memory_mb":      memMB,
				"read_latency":   latency.String(),
				"seed":           seed,
			},
			Points: pts,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(jsonOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", jsonOut)
	}
}

func pad(cells []string) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		w := 12
		if i == 0 {
			w = 28
		}
		out[i] = fmt.Sprintf("%-*s", w, c)
	}
	return out
}
