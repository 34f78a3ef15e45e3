// The -alter benchmark measures what online schema evolution costs the
// tenants who are NOT evolving: the CRM workload runs at steady state
// while every physical table is ALTERed (add, widen, drop — the full
// online repertoire, each publishing a schema version and queueing a
// background backfill) and one tenant is live-moved to a different
// layout through the LayoutMux. The report compares actions/sec before,
// during, and after the churn window; the design target is a dip of
// less than 10% (the ALTERs hold only the shared DDL latch and table
// write latches for metadata flips, and the move gates a single tenant
// for one final delta). Results land in BENCH_7.json.
package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/testbed"
)

type alterBenchResult struct {
	Tenants  int `json:"tenants"`
	Workers  int `json:"workers"`
	RowsPerT int `json:"rows_per_table"`

	BaselineActionsPerSec float64 `json:"baseline_actions_per_sec"`
	ChurnActionsPerSec    float64 `json:"churn_actions_per_sec"`
	PostActionsPerSec     float64 `json:"post_actions_per_sec"`
	// DipFraction is 1 - churn/baseline (negative = faster during churn).
	DipFraction float64 `json:"dip_fraction"`

	Alters           int     `json:"alters"`
	ChurnSeconds     float64 `json:"churn_seconds"`
	TablesBackfilled int     `json:"tables_backfilled"`
	RowsRewritten    int64   `json:"rows_rewritten"`
	RowsSkipped      int64   `json:"rows_skipped"`

	MoveRounds      int     `json:"move_rounds"`
	MoveRowsCopied  int64   `json:"move_rows_copied"`
	MoveGatePauseMs float64 `json:"move_gate_pause_ms"`

	CacheHitRate float64 `json:"rewrite_cache_hit_rate"`
	Errors       int64   `json:"errors"`
}

// runAlterBench drives the benchmark and writes the JSON report.
func runAlterBench(out string, smoke bool) {
	tenants, rows, workers := 24, 40, 8
	baseDur := 2 * time.Second
	if smoke {
		tenants, rows, workers = 8, 12, 4
		baseDur = 400 * time.Millisecond
	}

	bed, err := testbed.Setup(testbed.Config{
		Tenants:      tenants,
		RowsPerTable: rows,
		Seed:         2008,
		NewLayout: func(s *core.Schema) (core.Layout, error) {
			l, err := core.NewExtensionLayout(s)
			if err != nil {
				return nil, err
			}
			return core.NewLayoutMux(l), nil
		},
	})
	if err != nil {
		fatal(err)
	}
	mux := bed.Layout.(*core.LayoutMux)

	// The move destination: a private layout on the same database
	// (per-tenant physical names, so it coexists with the shared one).
	dst, err := core.NewPrivateLayout(bed.Layout.Schema())
	if err != nil {
		fatal(err)
	}
	if err := dst.Create(bed.DB, nil); err != nil {
		fatal(err)
	}

	var errCount atomic.Int64
	runPhase := func(until func() bool) (actions int64, elapsed time.Duration) {
		var (
			done  atomic.Bool
			count atomic.Int64
			wg    sync.WaitGroup
		)
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(4200 + int64(w)))
				deck := testbed.BuildDeck(rng)
				var adminSeq int64
				for i := 0; !done.Load(); i++ {
					class := deck[i%len(deck)]
					if class == testbed.Admin {
						class = testbed.SelectLight
					}
					a := bed.Workload.NextAction(rng, class, &adminSeq)
					ok := true
					for _, q := range a.Queries {
						if _, err := bed.Mapper.Query(a.Tenant, q); err != nil {
							errCount.Add(1)
							ok = false
						}
					}
					for _, e := range a.Execs {
						if _, err := bed.Mapper.Exec(a.Tenant, e); err != nil {
							errCount.Add(1)
							ok = false
						}
					}
					if ok {
						count.Add(1)
					}
				}
			}(w)
		}
		for !until() {
			time.Sleep(5 * time.Millisecond)
		}
		done.Store(true)
		wg.Wait()
		return count.Load(), time.Since(start)
	}
	timed := func(d time.Duration) func() bool {
		deadline := time.Now().Add(d)
		return func() bool { return time.Now().After(deadline) }
	}

	// Warmup (unreported): fills the rewrite cache, the plan cache, and
	// the buffer pool, and gets past the small-dataset transient so the
	// baseline is measured at the same footing as the later phases.
	runPhase(timed(baseDur / 2))

	// Phase 1: steady state.
	baseActions, baseElapsed := runPhase(timed(baseDur))

	// Phase 2: the same workload while every physical table evolves and
	// one tenant moves. The churn runner owns the phase length: the
	// window closes when the last ALTER's backfill has drained and the
	// move has cut over.
	tables := bed.DB.Catalog().TableNames()
	alters := 0
	var rep *core.MoveReport
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for _, tb := range tables {
			if _, err := bed.DB.Exec(fmt.Sprintf("ALTER TABLE %s ADD COLUMN Evo0 INTEGER", tb)); err != nil {
				errCount.Add(1)
				continue
			}
			alters++
			if _, err := bed.DB.Exec(fmt.Sprintf("ALTER TABLE %s ALTER COLUMN Evo0 TYPE FLOAT", tb)); err != nil {
				errCount.Add(1)
			} else {
				alters++
			}
			if _, err := bed.DB.Exec(fmt.Sprintf("ALTER TABLE %s DROP COLUMN Evo0", tb)); err != nil {
				errCount.Add(1)
			} else {
				alters++
			}
		}
		mover := &core.Mover{DB: bed.DB, Mux: mux}
		var merr error
		rep, merr = mover.Move(1, dst)
		if merr != nil {
			errCount.Add(1)
			fmt.Fprintln(os.Stderr, "tenant move:", merr)
		}
		if err := bed.DB.WaitBackfill(60 * time.Second); err != nil {
			errCount.Add(1)
			fmt.Fprintln(os.Stderr, "backfill:", err)
		}
	}()
	churnActions, churnElapsed := runPhase(func() bool {
		select {
		case <-churnDone:
			return true
		default:
			return false
		}
	})

	// Phase 3: steady state again, post-evolution.
	postActions, postElapsed := runPhase(timed(baseDur))

	base := float64(baseActions) / baseElapsed.Seconds()
	churn := float64(churnActions) / churnElapsed.Seconds()
	post := float64(postActions) / postElapsed.Seconds()
	// The dataset grows throughout the run (the deck keeps inserting),
	// so raw phase-1 throughput overstates the counterfactual. The churn
	// window sits between the two steady-state phases; their average
	// brackets the growth and is the fair baseline for the dip.
	steady := (base + post) / 2
	res := alterBenchResult{
		Tenants:  tenants,
		Workers:  workers,
		RowsPerT: rows,

		BaselineActionsPerSec: base,
		ChurnActionsPerSec:    churn,
		PostActionsPerSec:     post,
		DipFraction:           1 - churn/steady,

		Alters:       alters,
		ChurnSeconds: churnElapsed.Seconds(),
		CacheHitRate: bed.Mapper.Cache.Stats().HitRate(),
		Errors:       errCount.Load(),
	}
	for _, p := range bed.DB.BackfillStatus() {
		res.TablesBackfilled++
		res.RowsRewritten += p.Rewritten
		res.RowsSkipped += p.Skipped
	}
	if rep != nil {
		res.MoveRounds = rep.Rounds
		res.MoveRowsCopied = rep.RowsCopied
		res.MoveGatePauseMs = float64(rep.GatePause) / float64(time.Millisecond)
	}

	fmt.Printf("alter bench: baseline %.0f a/s, during churn %.0f a/s (dip %.1f%%), after %.0f a/s\n",
		base, churn, res.DipFraction*100, post)
	fmt.Printf("  %d online ALTERs over %d tables in %.2fs, %d rows backfilled, move: %d rounds, %d rows, gate %.3fms, errors %d\n",
		res.Alters, len(tables), res.ChurnSeconds, res.RowsRewritten, res.MoveRounds, res.MoveRowsCopied, res.MoveGatePauseMs, res.Errors)
	if res.DipFraction > 0.10 {
		fmt.Printf("  WARNING: churn dip %.1f%% exceeds the 10%% target\n", res.DipFraction*100)
	}

	f, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", out)
}
