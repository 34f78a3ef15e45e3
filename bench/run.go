package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/testbed"
	"repro/internal/types"
)

// executor runs actions for one client. run reports the rows the
// action returned or affected, and fails when a statement errors,
// conflicts, or a query returns another row count than the generator
// expects.
type executor interface {
	run(a *action, tr *tracer, parent int32) (rows int, err error)
	close()
}

// wireExec sends each action as one pipelined batch. A connection is
// bound to the tenant it authenticated as, so the client keeps one per
// tenant it owns and uses one at a time.
type wireExec struct {
	conns map[int64]*client.Conn
}

func newWireExec(addr string, list []action) (*wireExec, error) {
	w := &wireExec{conns: make(map[int64]*client.Conn)}
	for i := range list {
		t := list[i].tenant
		if w.conns[t] != nil {
			continue
		}
		c, err := client.Dial(client.Config{Addr: addr, Tenant: t})
		if err != nil {
			w.close()
			return nil, fmt.Errorf("dial tenant %d: %w", t, err)
		}
		w.conns[t] = c
	}
	return w, nil
}

func (w *wireExec) run(a *action, tr *tracer, parent int32) (int, error) {
	c := w.conns[a.tenant]
	id := tr.begin("client.pipeline", parent)
	results, err := c.Pipeline(a.pipe)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	rows := 0
	for i, r := range results {
		if r.Err != nil {
			if a.txn() {
				// The server stopped at the failure; clear the open
				// transaction so the connection stays usable.
				c.Exec("ROLLBACK")
			}
			return rows, fmt.Errorf("%q: %w", a.stmts[i].sql, r.Err)
		}
		n := int(r.RowsAffected)
		if r.Rows != nil {
			n = len(r.Rows.Data)
			if want := a.stmts[i].want; want >= 0 && n != want {
				return rows, fmt.Errorf("%q: %d rows, want %d", a.stmts[i].sql, n, want)
			}
		}
		rows += n
	}
	return rows, nil
}

func (w *wireExec) close() {
	for _, c := range w.conns {
		c.Close()
	}
}

// mapperExec runs actions in process through a core.Mapper.
type mapperExec struct {
	m *core.Mapper
}

func (e *mapperExec) run(a *action, tr *tracer, parent int32) (int, error) {
	if a.addTenant != nil {
		id := tr.begin("layout.addtenant", parent)
		err := e.m.Layout.AddTenant(e.m.DB, a.addTenant)
		tr.end(id)
		return 0, err
	}
	rows := 0
	for i := range a.stmts {
		s := &a.stmts[i]
		if s.query {
			id := tr.begin("mapper.query", parent)
			res, err := e.m.Query(a.tenant, s.sql, s.params...)
			tr.end(id)
			if err != nil {
				return rows, fmt.Errorf("%q: %w", s.sql, err)
			}
			if s.want >= 0 && len(res.Data) != s.want {
				return rows, fmt.Errorf("%q: %d rows, want %d", s.sql, len(res.Data), s.want)
			}
			rows += len(res.Data)
			continue
		}
		id := tr.begin("mapper.exec", parent)
		res, err := e.m.Exec(a.tenant, s.sql, s.params...)
		tr.end(id)
		if err != nil {
			return rows, fmt.Errorf("%q: %w", s.sql, err)
		}
		rows += int(res.RowsAffected)
	}
	return rows, nil
}

func (e *mapperExec) close() {
	if e.m.Session != nil {
		e.m.Session.Close()
	}
}

func (b *bed) executor(list []action) (executor, error) {
	if b.spec.wire {
		return newWireExec(b.addr, list)
	}
	return &mapperExec{m: core.NewMapper(b.db, b.layout)}, nil
}

// snapshot is every counter the benchmark reads, taken at one
// boundary.
type snapshot struct {
	eng engine.Stats
	srv server.Stats
	mem runtime.MemStats
	cpu time.Duration
}

func (b *bed) snapshot() snapshot {
	var s snapshot
	s.eng = b.db.Stats()
	if b.srv != nil {
		s.srv = b.srv.Stats()
	}
	runtime.ReadMemStats(&s.mem)
	s.cpu = processCPU()
	return s
}

// sample is what one client measured.
type sample struct {
	done    int             // actions attempted, warm-up included
	lat     []time.Duration // one per measured action, in list order after the warm-up
	rows    int
	failed  int
	firstEr error
	end     time.Time
}

// loopResult is one closed-loop run over a bed.
type loopResult struct {
	samples         []sample
	elapsed         time.Duration
	before, after   snapshot
	attempted       int
	failed          int
	firstErr        error
	measuredActions int
}

// closedLoop runs each client's list: the first warm actions untimed,
// then — after all clients have warmed up and the heap has been
// collected — timed actions until window has passed or the list ends.
// Each client waits for a reply before it sends its next action.
func (b *bed) closedLoop(lists [][]action, warm []int, window time.Duration) (*loopResult, error) {
	n := len(lists)
	execs := make([]executor, n)
	for c := range lists {
		ex, err := b.executor(lists[c])
		if err != nil {
			for _, e := range execs[:c] {
				e.close()
			}
			return nil, err
		}
		execs[c] = ex
	}
	res := &loopResult{samples: make([]sample, n)}
	var warmed, finished sync.WaitGroup
	start := make(chan time.Time)
	warmed.Add(n)
	finished.Add(n)
	for c := 0; c < n; c++ {
		go func(c int) {
			defer finished.Done()
			list, ex, s := lists[c], execs[c], &res.samples[c]
			s.lat = make([]time.Duration, 0, len(list))
			fail := func(err error) {
				s.failed++
				if s.firstEr == nil {
					s.firstEr = err
				}
			}
			for ; s.done < warm[c] && s.done < len(list); s.done++ {
				if _, err := ex.run(&list[s.done], nil, -1); err != nil {
					fail(err)
				}
			}
			warmed.Done()
			t0 := <-start
			last := t0
			for s.done < len(list) && last.Sub(t0) < window {
				rows, err := ex.run(&list[s.done], nil, -1)
				now := time.Now()
				if err != nil {
					fail(err)
				}
				s.lat = append(s.lat, now.Sub(last))
				s.rows += rows
				s.done++
				last = now
			}
			s.end = last
		}(c)
	}
	warmed.Wait()
	runtime.GC()
	res.before = b.snapshot()
	t0 := time.Now()
	for c := 0; c < n; c++ {
		start <- t0
	}
	finished.Wait()
	res.after = b.snapshot()
	for _, ex := range execs {
		ex.close()
	}
	for c := range res.samples {
		s := &res.samples[c]
		if d := s.end.Sub(t0); d > res.elapsed {
			res.elapsed = d
		}
		res.attempted += s.done
		res.measuredActions += len(s.lat)
		res.failed += s.failed
		if res.firstErr == nil {
			res.firstErr = s.firstEr
		}
	}
	return res, nil
}

// checker accumulates the end-of-run correctness checks.
type checker struct {
	failures []string
}

func (c *checker) failf(format string, args ...any) {
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// drained waits for the server to reap every session: a leaked one
// would pin the MVCC horizon forever.
func (b *bed) drained(ck *checker) {
	if b.srv == nil {
		return
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := b.srv.Stats()
		if st.OpenSessions == 0 && st.ActiveTxns == 0 && st.PinnedSnapshots == 0 {
			return
		}
		if time.Now().After(deadline) {
			ck.failf("server not drained: %d open sessions, %d active txns, %d pinned snapshots",
				st.OpenSessions, st.ActiveTxns, st.PinnedSnapshots)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// readBack reads every logical row of the bed back through the layout,
// compares each table's count with the ledger (loaded rows plus what
// the executed actions inserted), and returns the encoded size of the
// logical data and the physical size it occupies.
func (b *bed) readBack(lists [][]action, done []int, ck *checker) (logical, physical int64) {
	ledger := make(map[ledgerKey]int)
	for c, list := range lists {
		for i := 0; i < done[c]; i++ {
			if a := &list[i]; a.inserted > 0 {
				ledger[ledgerKey{a.tenant, a.table}] += a.inserted
			}
		}
	}
	b.db.Disk().ReadLatency = 0 // checks are not measured
	m := core.NewMapper(b.db, b.layout)
	var buf []byte
	for _, k := range b.tables() {
		rows, err := m.Query(k.tenant, "SELECT * FROM "+k.table)
		if err != nil {
			ck.failf("read back %s: %v", k, err)
			continue
		}
		if want := b.loadedRows(k) + ledger[k]; len(rows.Data) != want {
			ck.failf("%s holds %d rows, ledger says %d", k, len(rows.Data), want)
		}
		for _, row := range rows.Data {
			buf = types.EncodeRow(buf[:0], row)
			logical += int64(len(buf))
		}
	}
	st := b.db.Stats()
	physical = int64(b.db.Disk().NumPages())*int64(b.db.Disk().PageSize()) + st.MetaBytes
	return logical, physical
}

// sampleQ2 checks the chunk workload's answers: for a sample of the
// parents the run queried, the Chunk6 result must equal the
// conventional instance's as a multiset of rows.
func (b *bed) sampleQ2(lists [][]action, done []int, ck *checker) {
	if b.conv == nil {
		return
	}
	m := core.NewMapper(b.db, b.layout)
	const every = 97 // ~1 % of the queries
	for c, list := range lists {
		for i := 0; i < done[c]; i += every {
			s := &list[i].stmts[0]
			got, err := m.Query(1, s.sql, s.params...)
			if err != nil {
				ck.failf("Q2 on chunk6: %v", err)
				return
			}
			want, err := b.conv.Query(s.sql, s.params...)
			if err != nil {
				ck.failf("Q2 on conventional: %v", err)
				return
			}
			if !sameMultiset(got.Data, want.Data) {
				ck.failf("Q2 parent %s: chunk6 and conventional rows differ", s.params[0])
			}
		}
	}
}

func sameMultiset(a, b [][]types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	enc := func(rows [][]types.Value) [][]byte {
		out := make([][]byte, len(rows))
		for i, r := range rows {
			out[i] = types.EncodeRow(nil, r)
		}
		sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
		return out
	}
	ea, eb := enc(a), enc(b)
	for i := range ea {
		if !bytes.Equal(ea[i], eb[i]) {
			return false
		}
	}
	return true
}

// measured is the result of one untraced run.
type measured struct {
	Metrics   map[string]metric `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Samples   int               `json:"latency_samples"`
	WindowS   float64           `json:"window_s"`
	SetupS    []float64         `json:"setup_runs_s"`
	Detail    map[string]any    `json:"detail"`
	Failures  []string          `json:"check_failures,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupRuns is how often a run provisions its bed: set-up time is
// reported as the median, the last bed is the one measured.
const setupRuns = 3

// headroom over spec.rate when sizing the generated list, so a faster
// program does not run out of actions before the window closes.
const headroom = 1.6

// runMeasured is one end-to-end run of a workload: tracing off.
func runMeasured(sp *spec, seed int64, seconds float64, clients, setups int) (*measured, error) {
	warmTotal := int(math.Ceil(sp.rate * seconds * 0.10))
	total := warmTotal + int(math.Ceil(sp.rate*seconds*headroom))
	var (
		b      *bed
		lists  [][]action
		setupS []float64
	)
	for i := 0; i < setups; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		nb, err := newBed(sp, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b = nb
		if err := b.serve(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		lists = b.deal(b.generate(seed, total), clients)
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer b.close()

	warm := make([]int, clients)
	for c := range lists {
		warm[c] = len(lists[c]) * warmTotal / total
	}
	window := time.Duration(seconds * float64(time.Second))
	res, err := b.closedLoop(lists, warm, window)
	if err != nil {
		return nil, err
	}

	ck := &checker{}
	if res.firstErr != nil {
		ck.failf("%d actions failed, first: %v", res.failed, res.firstErr)
	}
	b.drained(ck)
	done := make([]int, clients)
	var lats []time.Duration
	perClass := make(map[testbed.ActionClass][]time.Duration)
	for c, s := range res.samples {
		done[c] = s.done
		lats = append(lats, s.lat...)
		first := s.done - len(s.lat)
		for i, d := range s.lat {
			class := lists[c][first+i].class
			perClass[class] = append(perClass[class], d)
		}
	}
	logical, physical := b.readBack(lists, done, ck)
	b.sampleQ2(lists, done, ck)
	if logical == 0 || res.measuredActions == 0 {
		return nil, fmt.Errorf("nothing measured: %d actions, %d logical bytes", res.measuredActions, logical)
	}

	sortDurations(lats)
	perSlice := slices(res.samples, min(time.Second, window))
	rate, p50, p95 := sliceMedians(perSlice, min(time.Second, window), window)
	out := &measured{
		Metrics: map[string]metric{
			"actions_per_s": {rate, "1/s"},
			"action_p50_ms": {p50, "ms"},
			"action_p95_ms": {p95, "ms"},
			"space_amp":     {float64(physical) / float64(logical), "ratio"},
			"setup_s":       {median(setupS), "s"},
		},
		Attempted: res.attempted,
		Failed:    res.failed,
		Samples:   len(lats),
		WindowS:   res.elapsed.Seconds(),
		SetupS:    setupS,
		Failures:  ck.failures,
	}

	// detail{}: ungated, the paper's own tables from the same run.
	classes := map[string]any{}
	for class, ds := range perClass {
		sortDurations(ds)
		classes[className(class)] = map[string]any{
			"actions": len(ds), "p50_ms": ms(percentile(ds, 0.50)), "p95_ms": ms(percentile(ds, 0.95)),
		}
	}
	pool := poolDelta(res.before.eng.Pool, res.after.eng.Pool)
	n := float64(res.measuredActions)
	out.Detail = map[string]any{
		"failed_share":           float64(res.failed) / float64(res.attempted),
		"window_actions_per_s":   float64(res.measuredActions) / res.elapsed.Seconds(),
		"window_p50_ms":          ms(percentile(lats, 0.50)),
		"window_p95_ms":          ms(percentile(lats, 0.95)),
		"per_class":              classes, // Table 2 rows: 95 % response time per action class
		"hit_ratio_data":         pool.HitRatio(storage.CatData),
		"hit_ratio_index":        pool.HitRatio(storage.CatIndex),
		"phys_reads_per_action":  float64(pool.TotalPhysicalReads()) / n,
		"logical_bytes":          logical,
		"physical_bytes":         physical,
		"tables":                 res.after.eng.Tables,
		"meta_bytes":             res.after.eng.MetaBytes,
		"wal_checkpoints":        res.after.eng.WAL.Checkpoints - res.before.eng.WAL.Checkpoints,
		"wal_commits":            res.after.eng.WAL.Commits - res.before.eng.WAL.Commits,
		"wal_syncs":              res.after.eng.WAL.Syncs - res.before.eng.WAL.Syncs,
		"txn_conflicts":          res.after.eng.TxnConflicts - res.before.eng.TxnConflicts,
		"rewrite_hit_rate":       rewriteHitRate(res.before.srv, res.after.srv),
		"plan_cache_hit_rate":    hitRate(res.after.eng.PlanCacheHits-res.before.eng.PlanCacheHits, res.after.eng.PlanCacheMisses-res.before.eng.PlanCacheMisses),
		"cpu_ms_per_action":      ms(res.after.cpu-res.before.cpu) / n,
		"allocs_per_action":      float64(res.after.mem.Mallocs-res.before.mem.Mallocs) / n,
		"gc_cycles":              res.after.mem.NumGC - res.before.mem.NumGC,
		"flush_policy":           "SyncLatency 0, group commit on, CheckpointBytes 4 MiB (engine defaults); the log is an in-memory model",
		"clients":                clients,
		"actions_generated":      total,
		"actions_warmup":         warmTotal,
		"actions_measured":       res.measuredActions,
		"rows_returned_affected": rowsOf(res.samples),
		"actions_per_slice":      sliceCounts(perSlice),
	}
	if b.conv != nil {
		out.Detail["figure9_10"] = b.figure9(lists[0])
	}
	return out, nil
}

// slices sorts the window's latencies into slice-long intervals by
// completion time, all clients together.
func slices(samples []sample, slice time.Duration) [][]time.Duration {
	var out [][]time.Duration
	for _, s := range samples {
		var at time.Duration
		for _, d := range s.lat {
			at += d
			i := int(at / slice)
			for len(out) <= i {
				out = append(out, nil)
			}
			out[i] = append(out[i], d)
		}
	}
	return out
}

func sliceCounts(perSlice [][]time.Duration) []int {
	out := make([]int, len(perSlice))
	for i, s := range perSlice {
		out[i] = len(s)
	}
	return out
}

// sliceMedians computes the three timing metrics. Each is taken per
// slice of the window (one second, or the whole of a shorter window)
// and reported as the median over the slices, so that a burst from a
// neighbour on the sandbox, a checkpoint or one Insert Heavy moves a
// slice and not the result. The slice that is still open when the
// window closes is dropped. It sorts the slices in place.
func sliceMedians(perSlice [][]time.Duration, slice, window time.Duration) (perSecond, p50ms, p95ms float64) {
	var rates, p50s, p95s []float64
	for i, lat := range perSlice {
		if time.Duration(i+1)*slice > window || len(lat) == 0 {
			continue
		}
		sortDurations(lat)
		rates = append(rates, float64(len(lat))/slice.Seconds())
		p50s = append(p50s, ms(percentile(lat, 0.50)))
		p95s = append(p95s, ms(percentile(lat, 0.95)))
	}
	return median(rates), median(p50s), median(p95s)
}

func rowsOf(samples []sample) int {
	n := 0
	for _, s := range samples {
		n += s.rows
	}
	return n
}

func poolDelta(before, after storage.PoolStats) storage.PoolStats {
	d := after
	for c := range d.LogicalReads {
		d.LogicalReads[c] -= before.LogicalReads[c]
		d.PhysicalReads[c] -= before.PhysicalReads[c]
	}
	d.Evictions -= before.Evictions
	return d
}

func hitRate(hits, misses int64) float64 { return ratio(float64(hits), float64(hits+misses)) }

func rewriteHitRate(before, after server.Stats) float64 {
	hits := after.RewriteHits + after.RewriteTemplateHits - before.RewriteHits - before.RewriteTemplateHits
	return hitRate(hits, after.RewriteMisses-before.RewriteMisses)
}

// figure9 reproduces the paper's Figures 9 and 10 for one point:
// warm-cache Q2 response time and logical page reads on Chunk6 and on
// the conventional layout, one client, the run's own parent ids.
func (b *bed) figure9(list []action) map[string]any {
	n := min(len(list), 500)
	m := core.NewMapper(b.db, b.layout)
	time1 := func(db *engine.DB, query func(s *stmt) error) (time.Duration, float64) {
		before := db.Stats().Pool
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := query(&list[i].stmts[0]); err != nil {
				return 0, 0
			}
		}
		d := time.Since(t0) / time.Duration(n)
		reads := poolDelta(before, db.Stats().Pool).TotalLogicalReads()
		return d, float64(reads) / float64(n)
	}
	chunkT, chunkReads := time1(b.db, func(s *stmt) error {
		_, err := m.Query(1, s.sql, s.params...)
		return err
	})
	convT, convReads := time1(b.conv.DB, func(s *stmt) error {
		_, err := b.conv.Query(s.sql, s.params...)
		return err
	})
	return map[string]any{
		"queries":                    n,
		"chunk6_ms":                  ms(chunkT),
		"conventional_ms":            ms(convT),
		"reconstruct_ratio":          ratio(float64(chunkT), float64(convT)),
		"chunk6_logical_reads":       chunkReads,
		"conventional_logical_reads": convReads,
	}
}
