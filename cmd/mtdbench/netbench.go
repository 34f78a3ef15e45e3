// The -net benchmark drives the §4 CRM workload through the whole
// network stack — client connection, wire protocol, per-tenant auth,
// server session registry, schema-mapping rewrite, engine — instead of
// calling the mapper in-process. It sweeps the concurrent connection
// count (default 64/256/1024); every connection authenticates as one
// tenant and runs its share of the card deck, with each DML action
// wrapped in an explicit BEGIN/COMMIT over the wire. Every statement
// travels in a Batch frame: by default each action's statements are
// pipelined in one (one round trip per action); with
// -net-pipeline=false each statement is its own one-statement Batch
// (one round trip per statement), for comparison. Each point
// reports commits/sec, statements/sec, p50/p99 whole-action latency,
// and the statement-path telemetry (rewrite-cache hit rate, plan-cache
// hits, executor queueing), and then asserts the drain invariant:
// after every client disconnects, the server must hold zero sessions,
// zero active transactions, and zero pinned snapshots — a leaked
// session would pin the MVCC GC horizon forever. Results land in
// BENCH_6.json; -net-smoke runs a reduced sweep for CI.
package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/server"
	"repro/internal/testbed"
)

type netPoint struct {
	Conns int `json:"conns"`
	// ActionsTarget is the point's exact share of the sweep's total:
	// base = target/conns actions per connection, with the remainder
	// dealt one extra to the first target%conns connections.
	ActionsTarget  int   `json:"actions_target"`
	ActionsPerConn int   `json:"actions_per_conn"` // base share (min per conn)
	Actions        int64 `json:"actions"`
	Statements     int64 `json:"statements"` // server-side count for this point
	Batches        int64 `json:"batches"`    // Batch frames for this point (one per statement with -net-pipeline=false)
	Commits        int64 `json:"commits"`
	Conflicts      int64 `json:"conflicts"`
	Errors         int64 `json:"errors"`

	ElapsedMs        float64 `json:"elapsed_ms"`
	CommitsPerSec    float64 `json:"commits_per_sec"`
	StatementsPerSec float64 `json:"statements_per_sec"`
	P50ActionUs      float64 `json:"p50_action_us"`
	P99ActionUs      float64 `json:"p99_action_us"`

	// Statement-path telemetry, as deltas over the point's window.
	RewriteHits        int64   `json:"rewrite_hits"`
	RewriteMisses      int64   `json:"rewrite_misses"`
	RewriteUncacheable int64   `json:"rewrite_uncacheable"`
	RewriteHitRate     float64 `json:"rewrite_hit_rate"`
	PlanCacheHits      int64   `json:"plan_cache_hits"`
	PlanCacheMisses    int64   `json:"plan_cache_misses"`
	ExecWaits          int64   `json:"exec_waits"`
	ExecWaitMicros     int64   `json:"exec_wait_micros"`
	ExecQueueMax       int     `json:"exec_queue_max"` // cumulative high-water

	// Drain invariant after every connection closed: all must be zero.
	LeakedSessions  int   `json:"leaked_sessions"`
	ActiveTxns      int64 `json:"active_txns"`
	PinnedSnapshots int64 `json:"pinned_snapshots"`
}

// runNetPoint runs one sweep point: conns concurrent connections, each
// bound to tenant (connIdx % tenants) + 1. totalActions is dealt
// exactly: the first totalActions%conns connections run one extra
// action on top of the totalActions/conns base.
func runNetPoint(srv *server.Server, addr string, bed *testbed.Bed, conns, totalActions, tenants int, seed int64, pipeline bool) netPoint {
	deck := testbed.BuildDeck(rand.New(rand.NewSource(seed)))
	var deckNext atomic.Int64
	base, extra := totalActions/conns, totalActions%conns

	before := srv.Stats()
	var (
		commits, conflicts, errs, actions atomic.Int64
		latMu                             sync.Mutex
		lats                              []time.Duration
	)

	// Every worker dials and signals ready before any runs an action, so
	// the measured window excludes the connection ramp-up; workers park
	// again after their last action so it excludes the teardown too
	// (1024 Goodbyes would otherwise bill the high-fan-in points for
	// their own disconnect storm).
	start := make(chan struct{})
	finish := make(chan struct{})
	ready := make(chan error, conns)
	var wg, actWg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		actWg.Add(1)
		go func(i int) {
			defer wg.Done()
			done := func() { actWg.Done() }
			defer func() { done() }()
			tenantIdx := i % tenants
			c, err := client.Dial(client.Config{
				Addr:   addr,
				Tenant: int64(tenantIdx + 1),
				Token:  netToken(tenantIdx + 1),
			})
			ready <- err
			if err != nil {
				return
			}
			defer c.Close()
			<-start

			share := base
			if i < extra {
				share++
			}
			var adminSeq int64 // never advanced: Admin cards are remapped
			local := make([]time.Duration, 0, share)
			for n := 0; n < share; n++ {
				idx := deckNext.Add(1)
				class := deck[int(idx)%len(deck)]
				if class == testbed.Admin {
					// Tenant provisioning is DDL the wire protocol does not
					// carry; deal the card as a light select instead.
					class = testbed.SelectLight
				}
				// The action rng is seeded by the card index, not the
				// connection, so every sweep point runs the same 6000
				// concrete actions — otherwise each point would draw a
				// different statement mix and the cross-point comparison
				// would measure deck luck along with concurrency.
				rng := rand.New(rand.NewSource(seed + 7919*idx))
				a := bed.Workload.NextActionFor(rng, class, tenantIdx, &adminSeq)
				t0 := time.Now()
				if pipeline {
					runNetActionPipelined(c, a.Queries, a.Execs, &commits, &conflicts, &errs)
				} else {
					for _, q := range a.Queries {
						if _, err := c.Query(q); err != nil {
							errs.Add(1)
						}
					}
					if len(a.Execs) > 0 {
						runNetTxn(c, a.Execs, &commits, &conflicts, &errs)
					}
				}
				local = append(local, time.Since(t0))
				actions.Add(1)
			}
			latMu.Lock()
			lats = append(lats, local...)
			latMu.Unlock()
			done()
			done = func() {}
			<-finish
		}(i)
	}
	for i := 0; i < conns; i++ {
		if err := <-ready; err != nil {
			fatal(fmt.Errorf("dial (conn %d/%d): %w", i+1, conns, err))
		}
	}
	// The ramp-up (dials, handshakes, session setup) is excluded from
	// the measured window; collect its garbage outside the window too,
	// so the first in-window GC cycles don't pay for it.
	runtime.GC()
	t0 := time.Now()
	close(start)
	actWg.Wait()
	elapsed := time.Since(t0)
	close(finish)
	wg.Wait()

	// Drain: every client Closed (best-effort Goodbye) on the way out of
	// its goroutine; the server must reap all of them and release every
	// engine resource. Poll because reaping is asynchronous.
	leak := srv.Stats()
	deadline := time.Now().Add(10 * time.Second)
	for leak.OpenSessions != 0 || leak.ActiveTxns != 0 || leak.PinnedSnapshots != 0 {
		if time.Now().After(deadline) {
			fatal(fmt.Errorf("leak after %d-conn point: sessions=%d active_txns=%d pinned=%d",
				conns, leak.OpenSessions, leak.ActiveTxns, leak.PinnedSnapshots))
		}
		time.Sleep(time.Millisecond)
		leak = srv.Stats()
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rwHits := (leak.RewriteHits + leak.RewriteTemplateHits) - (before.RewriteHits + before.RewriteTemplateHits)
	rwMisses := leak.RewriteMisses - before.RewriteMisses
	rwUncache := leak.RewriteUncacheable - before.RewriteUncacheable
	// Hit rate over cacheable lookups; uncacheable statements (BEGIN/
	// COMMIT/INSERT) bypass the cache and are reported separately.
	var rwRate float64
	if total := rwHits + rwMisses; total > 0 {
		rwRate = float64(rwHits) / float64(total)
	}
	p := netPoint{
		Conns:          conns,
		ActionsTarget:  totalActions,
		ActionsPerConn: base,
		Actions:        actions.Load(),
		Statements:     leak.Statements - before.Statements,
		Batches:        leak.Batches - before.Batches,
		Commits:        commits.Load(),
		Conflicts:      conflicts.Load(),
		Errors:         errs.Load(),

		ElapsedMs:        float64(elapsed.Microseconds()) / 1000,
		CommitsPerSec:    float64(commits.Load()) / elapsed.Seconds(),
		StatementsPerSec: float64(leak.Statements-before.Statements) / elapsed.Seconds(),
		P50ActionUs:      float64(quantile(lats, 0.50).Nanoseconds()) / 1000,
		P99ActionUs:      float64(quantile(lats, 0.99).Nanoseconds()) / 1000,

		RewriteHits:        rwHits,
		RewriteMisses:      rwMisses,
		RewriteUncacheable: rwUncache,
		RewriteHitRate:     rwRate,
		PlanCacheHits:      leak.PlanCacheHits - before.PlanCacheHits,
		PlanCacheMisses:    leak.PlanCacheMisses - before.PlanCacheMisses,
		ExecWaits:          leak.ExecWaits - before.ExecWaits,
		ExecWaitMicros:     leak.ExecWaitMicros - before.ExecWaitMicros,
		ExecQueueMax:       leak.ExecQueueMax,

		LeakedSessions:  leak.OpenSessions,
		ActiveTxns:      leak.ActiveTxns,
		PinnedSnapshots: leak.PinnedSnapshots,
	}
	if p.Actions != int64(totalActions) {
		fatal(fmt.Errorf("%d-conn point ran %d actions, dealt %d", conns, p.Actions, totalActions))
	}
	return p
}

// runNetActionPipelined sends one action — its queries plus its DML
// wrapped in BEGIN/COMMIT — as a single Batch frame: one network round
// trip and one flush for the whole action. The server's poison rule
// guarantees the COMMIT never runs after an earlier failure; the
// client classifies the first real failure (conflict vs error) and
// acknowledges with ROLLBACK, the same no-retry policy as the
// statement-at-a-time path.
func runNetActionPipelined(c *client.Conn, queries, execs []string, commits, conflicts, errs *atomic.Int64) {
	stmts := make([]client.PipelineStmt, 0, len(queries)+len(execs)+2)
	for _, q := range queries {
		stmts = append(stmts, client.PipelineStmt{Query: true, SQL: q})
	}
	txn := len(execs) > 0
	if txn {
		stmts = append(stmts, client.PipelineStmt{SQL: "BEGIN"})
		for _, e := range execs {
			stmts = append(stmts, client.PipelineStmt{SQL: e})
		}
		stmts = append(stmts, client.PipelineStmt{SQL: "COMMIT"})
	}
	if len(stmts) == 0 {
		return
	}
	results, err := c.Pipeline(stmts)
	if err != nil {
		errs.Add(1)
		return
	}
	failed := false
	for _, r := range results {
		if r.Err == nil || r.Poisoned() {
			continue
		}
		// First real failure decides the action's outcome.
		if !failed {
			failed = true
			if client.IsConflict(r.Err) {
				conflicts.Add(1)
			} else {
				errs.Add(1)
			}
		}
	}
	if !txn {
		return
	}
	if failed {
		// The transaction is still open (and possibly aborted); clear it.
		if _, err := c.Exec("ROLLBACK"); err != nil {
			errs.Add(1)
		}
		return
	}
	commits.Add(1)
}

// runNetTxn wraps one action's DML in an explicit wire transaction,
// one round trip per statement (the -net-pipeline=false path).
// A first-updater-wins conflict aborts the transaction server-side;
// the client acknowledges with ROLLBACK and the action counts as a
// conflict, not an error — the same no-retry policy as the -txn bench.
func runNetTxn(c *client.Conn, execs []string, commits, conflicts, errs *atomic.Int64) {
	if _, err := c.Exec("BEGIN"); err != nil {
		errs.Add(1)
		return
	}
	ok := true
	for _, e := range execs {
		if _, err := c.Exec(e); err != nil {
			if client.IsConflict(err) {
				conflicts.Add(1)
			} else {
				errs.Add(1)
			}
			ok = false
			break
		}
	}
	if ok {
		if _, err := c.Exec("COMMIT"); err != nil {
			if client.IsConflict(err) {
				conflicts.Add(1)
			} else {
				errs.Add(1)
			}
			ok = false
		}
	}
	if ok {
		commits.Add(1)
	} else {
		if _, err := c.Exec("ROLLBACK"); err != nil {
			errs.Add(1)
		}
	}
}

func netToken(tenantID int) string { return fmt.Sprintf("bench-%d", tenantID) }

// runNetBench sweeps the concurrent connection count over the wire
// protocol. Every point gets a freshly provisioned CRM testbed and a
// fresh server on a loopback port (setup is outside the measured
// window), and totalActions is dealt exactly across the point's
// connections — so every point does identical total work from
// identical starting state. Sharing one database across points would
// confound the sweep: each point's INSERTs grow the tables, and later
// points would scan more data than earlier ones.
func runNetBench(jsonOut, connsList string, totalActions int, smoke, pipeline bool, slots int) {
	const (
		tenants      = 32
		rowsPerTable = 16
		seed         = 2008
	)
	var conns []int
	for _, s := range strings.Split(connsList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fatal(fmt.Errorf("bad conn count %q", s))
		}
		conns = append(conns, n)
	}

	auth := server.NewAuthenticator()
	for id := 1; id <= tenants; id++ {
		auth.Register(int64(id), server.Credentials{Token: netToken(id)})
	}

	mode := "pipelined"
	if !pipeline {
		mode = "statement-at-a-time"
	}
	fmt.Printf("Network Front Door: CRM workload over the wire protocol (%s)\n", mode)
	fmt.Printf("%-8s %-8s %-10s %-10s %-9s %-7s %-13s %-12s %-10s %-12s %-12s %s\n",
		"Conns", "Actions", "Commits", "Conflicts", "Errors", "Stmts", "Commits/sec", "Stmts/sec", "RwHit%", "p50(us)", "p99(us)", "ExecWaits")
	var pts []netPoint
	execSlots := 0
	for _, n := range conns {
		fmt.Fprintf(os.Stderr, "setting up CRM testbed (%d tenants, %d rows/table) for %d conns...\n", tenants, rowsPerTable, n)
		bed, err := testbed.Setup(testbed.Config{
			Tenants: tenants, Instances: 1, RowsPerTable: rowsPerTable,
			Sessions: 1, Actions: 1, Seed: seed, MemoryBytes: 64 << 20,
		})
		if err != nil {
			fatal(err)
		}
		srv, err := server.New(server.Config{DB: bed.DB, Layout: bed.Layout, Auth: auth, MaxConcurrent: slots})
		if err != nil {
			fatal(err)
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		execSlots = srv.Stats().ExecSlots
		p := runNetPoint(srv, addr.String(), bed, n, totalActions, tenants, seed, pipeline)
		srv.Close()
		pts = append(pts, p)
		fmt.Printf("%-8d %-8d %-10d %-10d %-9d %-7d %-13.1f %-12.1f %-10.1f %-12.1f %-12.1f %d\n",
			p.Conns, p.Actions, p.Commits, p.Conflicts, p.Errors, p.Statements,
			p.CommitsPerSec, p.StatementsPerSec, 100*p.RewriteHitRate, p.P50ActionUs, p.P99ActionUs, p.ExecWaits)
	}
	fmt.Println("\ndrain invariant: all points ended with 0 sessions, 0 active txns, 0 pinned snapshots")

	out := struct {
		Benchmark string                 `json:"benchmark"`
		Config    map[string]interface{} `json:"config"`
		Points    []netPoint             `json:"points"`
	}{
		Benchmark: "network_frontdoor",
		Config: map[string]interface{}{
			"tenants":         tenants,
			"rows_per_table":  rowsPerTable,
			"total_actions":   totalActions,
			"layout":          "basic",
			"txn_per_dml":     true,
			"pipeline":        pipeline,
			"exec_slots":      execSlots,
			"fresh_per_point": true,
			"admin_cards":     "remapped to select-light (no DDL on the wire)",
			"seed":            seed,
			"smoke":           smoke,
		},
		Points: pts,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(jsonOut, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("\nwrote %s\n", jsonOut)
}
