package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// traced is the result of one traced run.
type traced struct {
	Metrics   map[string]metric `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Actions   int               `json:"actions_traced"`
	Warmup    int               `json:"actions_warmup"`
	// EndToEndMs is the summed duration of the action spans.
	EndToEndMs float64 `json:"end_to_end_ms"`
	// InProcessMs is the same actions through a session-backed cached
	// Mapper with no wire (wire workloads only).
	InProcessMs float64    `json:"in_process_ms,omitempty"`
	Layers      []layerRow `json:"layers"`
	// SpanSelfMs is the self time per span name of the traced bed.
	SpanSelfMs map[string]float64 `json:"span_self_ms"`
	SpanCostNs float64            `json:"span_cost_ns"`
	// Counts are exact: with one client and no timers they repeat on
	// every run with the same seed. CountsSHA256 is their digest.
	Counts       map[string]int64 `json:"counts"`
	CountsSHA256 string           `json:"counts_sha256"`
	Failures     []string         `json:"check_failures,omitempty"`

	spans []span
}

// layerRow is one line of the layer table.
type layerRow struct {
	Layer       string  `json:"layer"`
	SelfMs      float64 `json:"self_ms"`
	Share       float64 `json:"share_of_end_to_end"`
	UsPerAction float64 `json:"us_per_action"`
	How         string  `json:"how"`
}

func (t *traced) printLayerTable(w io.Writer) {
	fmt.Fprintf(w, "   layer table (%d actions, end to end %.1f ms)\n", t.Actions, t.EndToEndMs)
	fmt.Fprintf(w, "   %-14s %12s %8s %14s  %s\n", "layer", "self ms", "share", "us/action", "measured as")
	for _, r := range t.Layers {
		fmt.Fprintf(w, "   %-14s %12.2f %7.1f%% %14.2f  %s\n", r.Layer, r.SelfMs, 100*r.Share, r.UsPerAction, r.How)
	}
	fmt.Fprintf(w, "   counts sha256 %s\n", t.CountsSHA256)
}

// runTraced is the per-layer run of a workload, separate from the
// measured one. One client warms up on n actions and then replays the
// next n three times, each on an identically seeded bed:
//
//	bed A  the workload's real path with spans on: action →
//	       client.pipeline | mapper.query/exec. Gives the end-to-end
//	       time and every count.
//	bed B  (wire workloads) the same actions through a session-backed
//	       cached Mapper in process: the difference to A is the wire.
//	bed C  the same statements through each layer's public entry point
//	       in turn (see replayer).
func runTraced(sp *spec, e env, n int) (*traced, error) {
	seed := e.Seed
	total := 2 * n
	ck := &checker{}
	out := &traced{Actions: n, Warmup: n, SpanSelfMs: map[string]float64{}}

	// --- bed A: spans around the real path.
	a, err := newBed(sp, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer a.close()
	if err := a.serve(); err != nil {
		return nil, err
	}
	actions := a.generate(seed, total)
	ex, err := a.executor(actions)
	if err != nil {
		return nil, err
	}
	fail := func(err error) {
		if out.Failed++; out.Failed == 1 {
			ck.failf("action failed: %v", err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := ex.run(&actions[i], nil, -1); err != nil {
			fail(err)
		}
	}
	runtime.GC()
	tr := newTracer(8 * n)
	before := a.snapshot()
	rows := 0
	for i := n; i < total; i++ {
		tr.action = int32(i - n)
		id := tr.begin("action", -1)
		r, err := ex.run(&actions[i], tr, id)
		tr.end(id)
		rows += r
		if err != nil {
			fail(err)
		}
	}
	after := a.snapshot()
	ex.close()
	out.Attempted = total
	a.drained(ck)
	done := []int{total}
	a.readBack([][]action{actions}, done, ck)
	a.sampleQ2([][]action{actions}, done, ck)

	var endToEnd time.Duration
	for _, s := range tr.spans {
		if s.Parent < 0 {
			endToEnd += time.Duration(s.End - s.Start)
		}
	}
	for name, d := range selfTimes(tr.spans) {
		out.SpanSelfMs[name] = ms(d)
	}
	out.spans = tr.spans
	out.EndToEndMs = ms(endToEnd)

	// --- bed B: the wire taken away.
	inProcess := endToEnd
	if sp.wire {
		b, err := newBed(sp, seed)
		if err != nil {
			return nil, err
		}
		m := core.NewSessionMapper(b.db, b.layout)
		m.Cache = core.NewRewriteCache(b.db, b.layout, 0)
		mex := &mapperExec{m: m}
		for i := 0; i < n; i++ {
			if _, err := mex.run(&actions[i], nil, -1); err != nil {
				fail(err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		for i := n; i < total; i++ {
			if _, err := mex.run(&actions[i], nil, -1); err != nil {
				fail(err)
			}
		}
		inProcess = time.Since(t0)
		mex.close()
		out.InProcessMs = ms(inProcess)
	}

	// --- bed C: one layer at a time.
	c, err := newBed(sp, seed)
	if err != nil {
		return nil, err
	}
	rp := newReplayer(c)
	for i := 0; i < n; i++ {
		if err := rp.action(&actions[i]); err != nil {
			fail(err)
		}
	}
	runtime.GC()
	rp.reset()
	for i := n; i < total; i++ {
		if err := rp.action(&actions[i]); err != nil {
			fail(err)
		}
	}
	rp.close()

	// --- attribution.
	eng, engB := after.eng, before.eng
	srv, srvB := after.srv, before.srv
	pool := poolDelta(engB.Pool, eng.Pool)
	rwHits := srv.RewriteHits - srvB.RewriteHits
	rwTmpl := srv.RewriteTemplateHits - srvB.RewriteTemplateHits
	rwMiss := srv.RewriteMisses - srvB.RewriteMisses
	planHits, planMiss := eng.PlanCacheHits-engB.PlanCacheHits, eng.PlanCacheMisses-engB.PlanCacheMisses

	// What share of the cacheable statements the real path parsed and
	// rewrote: all of them without a rewrite cache, the cache's template
	// hits and misses with one.
	parseShare, rewriteShare := 1.0, 1.0
	if sp.wire {
		lookups := float64(rwHits + rwTmpl + rwMiss)
		parseShare = ratio(float64(rwTmpl+rwMiss), lookups)
		rewriteShare = ratio(float64(rwMiss), lookups)
	}
	missCost := time.Duration(0)
	if sp.crm != nil && sp.crm.readLatency > 0 {
		// One miss sleeps ReadLatency; the calibration says what a 1 ms
		// sleep really costs here.
		missCost = time.Duration(e.Sleep1msActualUs * 1e3 * float64(sp.crm.readLatency) / float64(time.Millisecond))
	}
	sqlT := rp.parseAlways + scale(rp.parseCacheable, parseShare)
	coreT := rp.rewriteAlways + scale(rp.rewriteCacheable, rewriteShare)
	storageT := time.Duration(rp.physReads()) * missCost
	execT := rp.exec - rp.planInExec - storageT
	if execT < 0 {
		execT = 0
	}
	codecT := rp.codec
	serverT := endToEnd - inProcess - codecT
	if !sp.wire {
		serverT = 0
	}
	fn := float64(n)
	layer := func(name string, d time.Duration, how string) {
		out.Layers = append(out.Layers, layerRow{name, ms(d), ratio(float64(d), float64(endToEnd)), us(d) / fn, how})
	}
	layer("protocol", codecT, "AppendEncode+WriteFrame+ReadFrame+Decode of the action's batch and replies")
	layer("server", serverT, "wire action time - in-process cached Mapper time - protocol")
	layer("sql", sqlT, "sql.Parse (+ExtractParams), weighted by the share of statements the real path parsed")
	layer("core", coreT, "Layout.Rewrite (+plan-cache keys), weighted by the rewrite-cache miss share")
	layer("plan", rp.planInExec, "Planner.PlanStatement on the physical statements that missed the plan cache")
	layer("exec", execT, "Session.QueryStmt/ExecStmt on pre-rewritten statements - plan - storage")
	layer("storage", storageT, "physical page reads x calibrated cost of one simulated miss")
	layer("engine+wal", rp.txn, "BEGIN and COMMIT statements (log append, group-commit sync, publish)")
	attributed := codecT + serverT + sqlT + coreT + rp.planInExec + execT + storageT + rp.txn
	layer("unattributed", endToEnd-attributed, "end to end - sum of the layers above")

	cost := spanCost()
	out.SpanCostNs = float64(cost.Nanoseconds())
	walD := eng.WAL
	walD.BytesAppended -= engB.WAL.BytesAppended
	walD.Records -= engB.WAL.Records
	walD.Syncs -= engB.WAL.Syncs
	walD.Commits -= engB.WAL.Commits
	walD.Checkpoints -= engB.WAL.Checkpoints
	stmts := float64(rp.logical + rp.txnStmts)
	reconstruct := 0.0
	if a.conv != nil {
		reconstruct = a.figure9(actions[n:])["reconstruct_ratio"].(float64)
	}
	out.Metrics = map[string]metric{
		"protocol.codec_us_per_stmt":         {us(codecT) / stmts, "us"},
		"protocol.bytes_per_action":          {float64(rp.wireBytes) / fn, "B"},
		"server.wire_overhead_us_per_action": {us(endToEnd-inProcess) / fn, "us"},
		"server.exec_wait_us":                {float64(srv.ExecWaitMicros-srvB.ExecWaitMicros) / fn, "us"},
		"server.stmts_per_batch":             {ratio(float64(srv.Statements-srvB.Statements), float64(srv.Batches-srvB.Batches)), "count"},
		"sql.parse_us_per_stmt":              {us(sqlT) / stmts, "us"},
		"core.rewrite_us_per_stmt":           {us(coreT) / stmts, "us"},
		"core.rewrite_hit_rate":              {hitRate(rwHits+rwTmpl, rwMiss), "ratio"},
		"core.phys_stmts_per_logical":        {ratio(float64(rp.physical), float64(rp.logical)), "count"},
		"plan.plan_us_per_stmt":              {us(rp.planInExec) / stmts, "us"},
		"plan.cache_hit_rate":                {hitRate(planHits, planMiss), "ratio"},
		"exec.us_per_stmt":                   {ratio(us(execT), float64(rp.logical)), "us"},
		"exec.rows_scanned_per_row_returned": {ratio(float64(eng.Exec.RowsScanned-engB.Exec.RowsScanned), float64(rows)), "count"},
		"exec.reconstruct_ratio":             {reconstruct, "ratio"},
		"storage.hit_ratio_data":             {pool.HitRatio(storage.CatData), "ratio"},
		"storage.hit_ratio_index":            {pool.HitRatio(storage.CatIndex), "ratio"},
		"storage.phys_reads_per_action":      {float64(pool.TotalPhysicalReads()) / fn, "count"},
		"storage.logical_reads_per_action":   {float64(pool.TotalLogicalReads()) / fn, "count"},
		"storage.evictions":                  {float64(pool.Evictions), "count"},
		"wal.bytes_per_commit":               {ratio(float64(walD.BytesAppended), float64(walD.Commits)), "B"},
		"wal.syncs_per_commit":               {ratio(float64(walD.Syncs), float64(walD.Commits)), "count"},
		"wal.mean_batch":                     {ratio(float64(walD.Commits), float64(walD.Syncs)), "count"},
		"wal.checkpoints":                    {float64(walD.Checkpoints), "count"},
		"engine.commit_us":                   {ratio(us(rp.commit), float64(rp.commits)), "us"},
		"engine.lock_wait_us":                {float64(eng.LockWaitNanos-engB.LockWaitNanos) / 1e3 / fn, "us"},
		"engine.row_waits":                   {float64(eng.RowWaits - engB.RowWaits), "count"},
		"runtime.cpu_ms_per_action":          {ms(after.cpu-before.cpu) / fn, "ms"},
		"runtime.allocs_per_action":          {float64(after.mem.Mallocs-before.mem.Mallocs) / fn, "count"},
		"runtime.alloc_kb_per_action":        {float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / fn, "KiB"},
		"unattributed_share":                 {ratio(float64(endToEnd-attributed), float64(endToEnd)), "ratio"},
		"trace_overhead_share":               {ratio(float64(cost)*float64(len(tr.spans)), float64(endToEnd)), "ratio"},
	}

	out.Counts = map[string]int64{
		"spans":                 int64(len(tr.spans)),
		"rows_returned":         int64(rows),
		"server_statements":     srv.Statements - srvB.Statements,
		"server_batches":        srv.Batches - srvB.Batches,
		"rewrite_hits":          rwHits,
		"rewrite_template_hits": rwTmpl,
		"rewrite_misses":        rwMiss,
		"rewrite_uncacheable":   srv.RewriteUncacheable - srvB.RewriteUncacheable,
		"plan_cache_hits":       planHits,
		"plan_cache_misses":     planMiss,
		"logical_reads_data":    pool.LogicalReads[storage.CatData],
		"logical_reads_index":   pool.LogicalReads[storage.CatIndex],
		"physical_reads_data":   pool.PhysicalReads[storage.CatData],
		"physical_reads_index":  pool.PhysicalReads[storage.CatIndex],
		"evictions":             pool.Evictions,
		"disk_pages":            int64(a.db.Disk().NumPages()),
		"rows_scanned":          eng.Exec.RowsScanned - engB.Exec.RowsScanned,
		"wal_bytes":             walD.BytesAppended,
		"wal_records":           walD.Records,
		"wal_syncs":             walD.Syncs,
		"wal_commits":           walD.Commits,
		"wal_checkpoints":       walD.Checkpoints,
		"replay_logical_stmts":  int64(rp.logical + rp.txnStmts),
		"replay_physical_stmts": int64(rp.physical),
		"replay_plan_misses":    rp.planMisses,
		"replay_wire_bytes":     rp.wireBytes,
	}
	h := sha256.New()
	for _, k := range sortedKeys(out.Counts) {
		fmt.Fprintf(h, "%s=%d\n", k, out.Counts[k])
	}
	out.CountsSHA256 = fmt.Sprintf("%x", h.Sum(nil))
	out.Failures = ck.failures
	return out, nil
}

func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

// replayer runs an action's statements through each layer's public
// entry point in turn and keeps one clock per layer. It mirrors what
// the real path does with a statement — canonicalise and bind on the
// cached wire path, inline literals on the uncached in-process path —
// so the engine's plan cache sees the same keys.
type replayer struct {
	b       *bed
	sess    *engine.Session
	planner *plan.Planner
	missed  int64 // plan-cache misses at the last look
	reads   int64 // physical reads at reset
	frame   bytes.Buffer
	enc     []byte

	codec            time.Duration
	parseAlways      time.Duration // INSERT, DDL, txn control: never cached
	parseCacheable   time.Duration // SELECT, UPDATE, DELETE
	rewriteAlways    time.Duration
	rewriteCacheable time.Duration
	planInExec       time.Duration // planning the real path's exec would have paid
	exec             time.Duration // Session.QueryStmt/ExecStmt, planning on a miss included
	txn              time.Duration // BEGIN + COMMIT
	commit           time.Duration // COMMIT alone
	commits          int
	logical          int // logical statements, txn control excluded
	txnStmts         int
	physical         int
	planMisses       int64
	wireBytes        int64
}

func newReplayer(b *bed) *replayer {
	return &replayer{b: b, sess: b.db.Session(), planner: plan.New(b.db.Catalog(), plan.Sophisticated)}
}

// reset zeroes the clocks and counts after the warm-up.
func (r *replayer) reset() {
	*r = replayer{b: r.b, sess: r.sess, planner: r.planner, enc: r.enc}
	st := r.b.db.Stats()
	r.missed, r.reads = st.PlanCacheMisses, st.Pool.TotalPhysicalReads()
}

func (r *replayer) physReads() int64 { return r.b.db.Stats().Pool.TotalPhysicalReads() - r.reads }

func (r *replayer) close() { r.sess.Close() }

// roundTrip sends one message through the frame codec both ways.
func (r *replayer) roundTrip(m any) error {
	t0 := time.Now()
	r.enc = protocol.AppendEncode(r.enc[:0], m)
	r.frame.Reset()
	if err := protocol.WriteFrame(&r.frame, r.enc); err != nil {
		return err
	}
	r.wireBytes += int64(r.frame.Len())
	payload, err := protocol.ReadFrame(&r.frame)
	if err != nil {
		return err
	}
	_, err = protocol.Decode(payload)
	r.codec += time.Since(t0)
	return err
}

func (r *replayer) action(a *action) error {
	if a.addTenant != nil {
		return r.b.layout.AddTenant(r.b.db, a.addTenant)
	}
	wire := r.b.spec.wire
	if wire {
		batch := &protocol.Batch{Stmts: make([]protocol.BatchStmt, len(a.pipe))}
		for i, p := range a.pipe {
			batch.Stmts[i] = protocol.BatchStmt{Query: p.Query, SQL: p.SQL, Params: p.Params}
		}
		if err := r.roundTrip(batch); err != nil {
			return err
		}
	}
	for i := range a.stmts {
		rows, affected, err := r.statement(a.tenant, &a.stmts[i], wire)
		if err != nil {
			return fmt.Errorf("replay %q: %w", a.stmts[i].sql, err)
		}
		if !wire {
			continue
		}
		// The replies the server would frame for this statement.
		if rows == nil {
			err = r.roundTrip(&protocol.BatchResult{Index: uint32(i), RowsAffected: affected})
		} else if err = r.roundTrip(&protocol.BatchRowsHeader{Index: uint32(i), Columns: rows.Columns}); err == nil {
			err = r.roundTrip(&protocol.RowBatch{Rows: rows.Data, Last: true})
		}
		if err != nil {
			return err
		}
	}
	if wire {
		return r.roundTrip(&protocol.BatchDone{Executed: uint32(len(a.stmts))})
	}
	return nil
}

// statement replays one logical statement: parse, rewrite, plan each
// physical statement on a fresh copy, then execute.
func (r *replayer) statement(tenant int64, s *stmt, cached bool) (*engine.Rows, int64, error) {
	t0 := time.Now()
	st, err := sql.Parse(s.sql)
	if err != nil {
		return nil, 0, err
	}
	switch st.(type) {
	case *sql.BeginStmt, *sql.CommitStmt, *sql.RollbackStmt, *sql.SavepointStmt:
		r.parseAlways += time.Since(t0)
		r.txnStmts++
		t1 := time.Now()
		_, err := r.sess.ExecStmt(st, "")
		d := time.Since(t1)
		r.txn += d
		if _, ok := st.(*sql.CommitStmt); ok {
			r.commit += d
			r.commits++
		}
		return nil, 0, err
	}
	_, insert := st.(*sql.InsertStmt)
	bind := s.params
	if cached {
		if extra, ok := sql.ExtractParams(st); ok {
			bind = extra
		}
	}
	parse := time.Since(t0)

	t0 = time.Now()
	rw, err := r.b.layout.Rewrite(tenant, st)
	if err != nil {
		return nil, 0, err
	}
	key := func(ps sql.Statement) string {
		if cached && !insert {
			return ps.String() // the rewrite cache renders plan-cache keys once per template
		}
		return "" // the engine renders the key itself
	}
	queryKey, rowKey := "", ""
	directKeys := make([]string, len(rw.Direct))
	if rw.Query != nil {
		queryKey = key(rw.Query)
	}
	for i, d := range rw.Direct {
		directKeys[i] = key(d)
	}
	if rw.RowQuery != nil {
		rowKey = key(rw.RowQuery)
	}
	rewrite := time.Since(t0)
	if insert {
		r.parseAlways += parse
		r.rewriteAlways += rewrite
	} else {
		r.parseCacheable += parse
		r.rewriteCacheable += rewrite
	}
	r.logical++

	// Execute as Mapper.execRewritten does, one physical statement at a
	// time, timing the planner on a fresh copy of each first.
	var planUnit time.Duration
	phys := 0
	run := func(ps sql.Statement, k string, params []types.Value) (*engine.Rows, int64, error) {
		d, err := r.planCopy(ps)
		if err != nil {
			return nil, 0, err
		}
		planUnit += d
		phys++
		t0 := time.Now()
		defer func() { r.exec += time.Since(t0) }()
		if sel, ok := ps.(*sql.SelectStmt); ok {
			rows, err := r.sess.QueryStmt(sel, k, params...)
			return rows, 0, err
		}
		res, err := r.sess.ExecStmt(ps, k, params...)
		return nil, res.RowsAffected, err
	}
	var (
		rows     *engine.Rows
		affected int64
	)
	if rw.Query != nil {
		if rows, _, err = run(rw.Query, queryKey, bind); err != nil {
			return nil, 0, err
		}
	}
	for i, d := range rw.Direct {
		_, n, err := run(d, directKeys[i], bind)
		if err != nil {
			return nil, 0, err
		}
		if rw.DirectIsCount && i == 0 {
			affected = n
		}
	}
	if rw.Inserted > 0 {
		affected = rw.Inserted
	}
	if rw.RowQuery != nil {
		hit, _, err := run(rw.RowQuery, rowKey, bind)
		if err != nil {
			return nil, 0, err
		}
		affected = int64(len(hit.Data))
		if len(hit.Data) > 0 {
			for _, ps := range rw.PhaseB(hit.Data) {
				if _, _, err := run(ps, "", nil); err != nil {
					return nil, 0, err
				}
			}
		}
	}
	r.physical += phys

	// Charge the plan layer for the statements that missed the engine's
	// plan cache; the rest of the exec clock is execution.
	now := r.b.db.Stats().PlanCacheMisses
	missed := now - r.missed
	r.missed = now
	r.planMisses += missed
	if missed > int64(phys) {
		missed = int64(phys)
	}
	if phys > 0 {
		r.planInExec += scale(planUnit, float64(missed)/float64(phys))
	}
	return rows, affected, nil
}

// planCopy times Planner.PlanStatement on a re-parsed copy of a
// physical statement: the optimizer rewrites the AST it plans, and the
// original still has to run.
func (r *replayer) planCopy(ps sql.Statement) (time.Duration, error) {
	fresh, err := sql.Parse(ps.String())
	if err != nil {
		return 0, fmt.Errorf("re-parse physical statement: %w", err)
	}
	t0 := time.Now()
	_, err = r.planner.PlanStatement(fresh)
	return time.Since(t0), err
}
