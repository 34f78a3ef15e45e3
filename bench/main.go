// Command bench is the repository's one benchmark: four workloads over
// the CRM testbed and the chunk-table experiment, five end-to-end
// metrics measured with tracing off, and a separate traced run that
// attributes each workload's time to the layers it passes through.
// BENCHMARK.json at the repository root declares it; README.md in this
// directory defines every metric and workload.
//
//	go run ./bench                         all four workloads, measured
//	go run ./bench -trace 1                all four workloads, traced
//	go run ./bench -workload chunk_q2_join -seed 7 -seconds 15 -trace 0
//	go run ./bench -smoke                  ~1 % of the work, every check
//	go run ./bench -compare dirA dirB      benchdiff over two sets of runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// maxClients caps the load generator: server and clients share one
// process on a 2-core sandbox.
const maxClients = 2

// env records where a result came from.
type env struct {
	Commit     string  `json:"git_commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
	// Sleep1msActualUs is what time.Sleep(1ms) really costs here: the
	// price of one simulated page miss on crm_tables_cold.
	Sleep1msActualUs float64 `json:"sleep_1ms_actual_us"`
}

// result is the JSON document one run writes.
type result struct {
	Benchmark string    `json:"benchmark"`
	Workload  string    `json:"workload"`
	Why       string    `json:"why"`
	Env       env       `json:"env"`
	Measured  *measured `json:"measured,omitempty"`
	Traced    *traced   `json:"traced,omitempty"`
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all four)")
		seed     = flag.Int64("seed", 2008, "seed of every generated input")
		seconds  = flag.Float64("seconds", 15, "length of the measured window")
		trace    = flag.Int("trace", 0, "0: measured run, end-to-end metrics; 1: traced run, per-layer metrics")
		clients  = flag.Int("clients", min(maxClients, runtime.NumCPU()), "closed-loop clients of the measured run")
		outDir   = flag.String("out", ".bench_out", "directory the result JSON (and spans) are written to")
		smoke    = flag.Bool("smoke", false, "run ~1 % of the work on every workload, measured and traced, with every check")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare <a> <b> (files or directories)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files or directories"))
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *clients < 1 || *clients > maxClients || *clients > runtime.NumCPU() {
		fatal(fmt.Errorf("%d clients: need 1..%d and no more than nproc (%d)", *clients, maxClients, runtime.NumCPU()))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace is 0 or 1"))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	run := specs
	if *workload != "" {
		sp := specByName(*workload)
		if sp == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		run = []*spec{sp}
	}
	e := env{
		Commit: gitCommit(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Seed: *seed, Seconds: *seconds, Clients: *clients,
		Sleep1msActualUs: us(calibrateSleep(time.Millisecond, 500)),
	}
	cfg := runConfig{seconds: *seconds, setups: setupRuns, traceActions: 2000}
	modes := []int{*trace}
	if *smoke {
		run, cfg, modes = smokeSet(run, *seconds)
	}
	ok, err := runSet(run, e, cfg, modes, *outDir)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

// smokeSet turns a run into its smoke version: shrunken beds, a
// hundredth of the window, one set-up, a 20-action trace, both modes.
func smokeSet(run []*spec, seconds float64) ([]*spec, runConfig, []int) {
	small := make([]*spec, len(run))
	for i, sp := range run {
		small[i] = sp.shrunk()
	}
	return small, runConfig{seconds: seconds / 100, setups: 1, traceActions: 20}, []int{0, 1}
}

// runSet runs every workload in every mode and prints one contract
// line per run; it reports whether all of them were correct.
func runSet(run []*spec, e env, cfg runConfig, modes []int, outDir string) (bool, error) {
	ok := true
	for _, sp := range run {
		for _, mode := range modes {
			line, err := runOne(sp, e, cfg, mode, outDir)
			if err != nil {
				return false, fmt.Errorf("%s: %w", sp.name, err)
			}
			out, err := json.Marshal(line)
			if err != nil {
				return false, err
			}
			fmt.Println(string(out))
			ok = ok && line.Correct
		}
	}
	return ok, nil
}

type runConfig struct {
	seconds      float64
	setups       int
	traceActions int
}

// runOne runs one workload in one mode, prints its metrics by name and
// unit, writes the result document, and returns the contract line.
func runOne(sp *spec, e env, cfg runConfig, mode int, outDir string) (*contractLine, error) {
	res := result{Benchmark: "mtd-bench", Workload: sp.name, Why: sp.why, Env: e}
	var line *contractLine
	suffix := ""
	if mode == 0 {
		fmt.Printf("== %s: measured run, %d clients, %.2f s window, seed %d\n", sp.name, e.Clients, cfg.seconds, e.Seed)
		m, err := runMeasured(sp, e.Seed, cfg.seconds, e.Clients, cfg.setups)
		if err != nil {
			return nil, err
		}
		res.Measured = m
		printMetrics(m.Metrics, endToEndNames)
		fmt.Printf("   %d latency samples, %d attempted, %d failed\n", m.Samples, m.Attempted, m.Failed)
		for _, f := range m.Failures {
			fmt.Printf("   CHECK FAILED: %s\n", f)
		}
		line = &contractLine{Correct: m.Failed == 0 && len(m.Failures) == 0, Attempted: m.Attempted, Failed: m.Failed, Metrics: m.Metrics}
	} else {
		suffix = ".trace"
		fmt.Printf("== %s: traced run, 1 client, %d actions, seed %d\n", sp.name, cfg.traceActions, e.Seed)
		t, err := runTraced(sp, e, cfg.traceActions)
		if err != nil {
			return nil, err
		}
		res.Traced = t
		printMetrics(t.Metrics, layerNames)
		t.printLayerTable(os.Stdout)
		for _, f := range t.Failures {
			fmt.Printf("   CHECK FAILED: %s\n", f)
		}
		line = &contractLine{Correct: t.Failed == 0 && len(t.Failures) == 0, Attempted: t.Attempted, Failed: t.Failed, Metrics: t.Metrics}
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		base := filepath.Join(outDir, fmt.Sprintf("%s.seed%d%s", sp.name, e.Seed, suffix))
		if res.Traced != nil {
			if err := writeJSON(base+".spans.json", res.Traced.spans); err != nil {
				return nil, err
			}
		}
		if err := writeJSON(base+".json", res); err != nil {
			return nil, err
		}
		fmt.Printf("   wrote %s.json\n", base)
	}
	return line, nil
}

func printMetrics(ms map[string]metric, order []string) {
	for _, name := range order {
		if m, ok := ms[name]; ok {
			fmt.Printf("   %-38s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// calibrateSleep returns the mean real cost of time.Sleep(d) over n
// sleeps: the runtime's timer granularity, not d, is what a simulated
// page miss costs.
func calibrateSleep(d time.Duration, n int) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		time.Sleep(d)
	}
	return time.Since(t0) / time.Duration(n)
}

// processCPU is the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gitCommit is the checked-out commit, or "unknown" outside a git
// work tree (the driver's checkout is a plain directory).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// endToEndNames and layerNames fix the print order; BENCHMARK.json
// declares the same names (the smoke test holds the two together).
var endToEndNames = []string{"actions_per_s", "action_p50_ms", "action_p95_ms", "space_amp", "setup_s"}

var layerNames = []string{
	"protocol.codec_us_per_stmt", "protocol.bytes_per_action",
	"server.wire_overhead_us_per_action", "server.exec_wait_us", "server.stmts_per_batch",
	"sql.parse_us_per_stmt",
	"core.rewrite_us_per_stmt", "core.rewrite_hit_rate", "core.phys_stmts_per_logical",
	"plan.plan_us_per_stmt", "plan.cache_hit_rate",
	"exec.us_per_stmt", "exec.rows_scanned_per_row_returned", "exec.reconstruct_ratio",
	"storage.hit_ratio_data", "storage.hit_ratio_index", "storage.phys_reads_per_action",
	"storage.logical_reads_per_action", "storage.evictions",
	"wal.bytes_per_commit", "wal.syncs_per_commit", "wal.mean_batch", "wal.checkpoints",
	"engine.commit_us", "engine.lock_wait_us", "engine.row_waits",
	"runtime.cpu_ms_per_action", "runtime.allocs_per_action", "runtime.alloc_kb_per_action",
	"unattributed_share", "trace_overhead_share",
}
