// The -txn benchmark measures the interactive-transaction subsystem:
// concurrent sessions run short BEGIN/UPDATE*/COMMIT transactions over
// a shared accounts table with a deliberately hot key range, so write
// contention grows with the session count. Each point reports committed
// transactions per second, the conflict-abort rate, p50/p99 COMMIT
// latency, and the engine's contention telemetry (admission-gate and
// row-wait outcomes, commit-pipeline depth). Results land in
// BENCH_5.json; -txn-smoke runs a small fast sweep for CI.
package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/types"
)

type txnPoint struct {
	Sessions      int     `json:"sessions"`
	Txns          int64   `json:"transactions"`
	Commits       int64   `json:"commits"`
	Aborts        int64   `json:"aborts"`
	Conflicts     int64   `json:"conflicts"`
	CommitsPerSec float64 `json:"commits_per_sec"`
	ConflictRate  float64 `json:"conflict_abort_rate"`
	ElapsedMs     float64 `json:"elapsed_ms"`

	// COMMIT statement latency over successful commits (includes the
	// group-commit sync and in-order timestamp publication).
	P50CommitUs float64 `json:"p50_commit_us"`
	P99CommitUs float64 `json:"p99_commit_us"`

	// Contention telemetry (engine.Stats deltas over the measured
	// window, like every count above).
	AdmissionWaits     int64   `json:"admission_waits"`
	AdmissionTimeouts  int64   `json:"admission_timeouts"`
	AdmissionWaitMs    float64 `json:"admission_wait_ms"`
	RowWaits           int64   `json:"row_waits"`
	RowWaitTimeouts    int64   `json:"row_wait_timeouts"`
	RowWaitRescues     int64   `json:"row_wait_rescues"`
	ImmediateConflicts int64   `json:"immediate_conflicts"`
	// What version chains cost this point's snapshot reads: moved
	// chains enumerated beside a scan, chained rows resolved in place.
	VersionsEnumerated  int64 `json:"versions_enumerated"`
	ChainedRowsResolved int64 `json:"chained_rows_resolved"`
	LockWaits           int64 `json:"lock_waits"`
	CommitPipelineMax   int64 `json:"commit_pipeline_max"`
	PublishBatches      int64 `json:"publish_batches"`
	PublishedTxns       int64 `json:"published_txns"`
}

// quantile returns the q-th quantile (0..1) of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// runTxnPoint drives txnsPerSession transactions through each of n
// concurrent sessions. Every transaction updates stmtsPerTxn account
// balances; a write-write conflict aborts the transaction, which the
// driver acknowledges with ROLLBACK and counts — no retry, so the
// conflict rate is the raw first-updater-wins loss rate.
func runTxnPoint(n, txnsPerSession, stmtsPerTxn, accounts, hotKeys int, seed int64) txnPoint {
	db := engine.Open(engine.Config{MemoryBytes: 32 << 20, CheckpointBytes: -1})
	if _, err := db.Exec("CREATE TABLE acct (k INTEGER NOT NULL, bal INTEGER)"); err != nil {
		fatal(err)
	}
	if _, err := db.Exec("CREATE UNIQUE INDEX acct_pk ON acct (k)"); err != nil {
		fatal(err)
	}
	for k := 0; k < accounts; k++ {
		if _, err := db.Exec("INSERT INTO acct VALUES (?, ?)", types.NewInt(int64(k)), types.NewInt(1000)); err != nil {
			fatal(err)
		}
	}
	// The loader's INSERTs were transactions too: every count reported
	// is a delta over the measured window.
	before := db.Stats()

	var latMu sync.Mutex
	var commitLat []time.Duration
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess := db.Session()
			defer sess.Close()
			rng := rand.New(rand.NewSource(seed + int64(s)))
			lat := make([]time.Duration, 0, txnsPerSession)
			for i := 0; i < txnsPerSession; i++ {
				if _, err := sess.Exec("BEGIN"); err != nil {
					fatal(err)
				}
				ok := true
				for j := 0; j < stmtsPerTxn; j++ {
					// Mostly hot keys: contention scales with sessions.
					k := int64(rng.Intn(hotKeys))
					if rng.Intn(100) < 25 {
						k = int64(rng.Intn(accounts))
					}
					if _, err := sess.Exec("UPDATE acct SET bal = bal + 1 WHERE k = ?", types.NewInt(k)); err != nil {
						ok = false
						break
					}
				}
				if ok {
					t0 := time.Now()
					if _, err := sess.Exec("COMMIT"); err != nil {
						ok = false
					} else {
						lat = append(lat, time.Since(t0))
					}
				}
				if !ok {
					if _, err := sess.Exec("ROLLBACK"); err != nil {
						fatal(err)
					}
				}
			}
			latMu.Lock()
			commitLat = append(commitLat, lat...)
			latMu.Unlock()
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(commitLat, func(i, j int) bool { return commitLat[i] < commitLat[j] })

	st := db.Stats()
	p := txnPoint{
		Sessions:      n,
		Txns:          st.TxnBegins - before.TxnBegins,
		Commits:       st.TxnCommits - before.TxnCommits,
		Aborts:        st.TxnAborts - before.TxnAborts,
		Conflicts:     st.TxnConflicts - before.TxnConflicts,
		CommitsPerSec: float64(st.TxnCommits-before.TxnCommits) / elapsed.Seconds(),
		ElapsedMs:     float64(elapsed.Microseconds()) / 1000,

		P50CommitUs: float64(quantile(commitLat, 0.50).Nanoseconds()) / 1000,
		P99CommitUs: float64(quantile(commitLat, 0.99).Nanoseconds()) / 1000,

		AdmissionWaits:     st.AdmissionWaits - before.AdmissionWaits,
		AdmissionTimeouts:  st.AdmissionTimeouts - before.AdmissionTimeouts,
		AdmissionWaitMs:    float64(st.AdmissionWaitNanos-before.AdmissionWaitNanos) / 1e6,
		RowWaits:           st.RowWaits - before.RowWaits,
		RowWaitTimeouts:    st.RowWaitTimeouts - before.RowWaitTimeouts,
		RowWaitRescues:     st.RowWaitRescues - before.RowWaitRescues,
		ImmediateConflicts: st.ImmediateConflicts - before.ImmediateConflicts,

		VersionsEnumerated:  st.VersionsEnumerated - before.VersionsEnumerated,
		ChainedRowsResolved: st.ChainedRowsResolved - before.ChainedRowsResolved,

		LockWaits:         st.LockWaits - before.LockWaits,
		CommitPipelineMax: st.CommitPipelineMax,
		PublishBatches:    st.PublishBatches - before.PublishBatches,
		PublishedTxns:     st.PublishedTxns - before.PublishedTxns,
	}
	if p.Txns > 0 {
		p.ConflictRate = float64(p.Conflicts) / float64(p.Txns)
	}
	return p
}

// runTxnBench sweeps the session count and writes jsonOut. smoke runs
// a reduced sweep (fewer sessions, fewer transactions) as a fast
// regression canary for CI.
func runTxnBench(jsonOut string, smoke bool) {
	const (
		stmtsPerTxn = 4
		accounts    = 512
		hotKeys     = 16
		seed        = 2008
	)
	txnsPerSession := 600
	sweep := []int{1, 2, 4, 8, 16, 32}
	if smoke {
		txnsPerSession = 100
		sweep = []int{1, 8}
	}
	fmt.Println("Interactive Transactions: snapshot isolation under contention")
	fmt.Printf("%-10s %-8s %-8s %-10s %-12s %-13s %-12s %s\n",
		"Sessions", "Commits", "Aborts", "Conflicts", "Commits/sec", "ConflictRate", "p50(us)", "p99(us)")
	var pts []txnPoint
	for _, n := range sweep {
		p := runTxnPoint(n, txnsPerSession, stmtsPerTxn, accounts, hotKeys, seed)
		pts = append(pts, p)
		fmt.Printf("%-10d %-8d %-8d %-10d %-12.1f %-13.3f %-12.1f %.1f\n",
			p.Sessions, p.Commits, p.Aborts, p.Conflicts, p.CommitsPerSec, p.ConflictRate,
			p.P50CommitUs, p.P99CommitUs)
	}
	fmt.Println("\nContention telemetry")
	fmt.Printf("%-10s %-12s %-12s %-10s %-10s %-10s %-10s %-10s %-12s %-12s %s\n",
		"Sessions", "AdmWaits", "AdmTimeout", "RowWaits", "Timeouts", "Rescues", "InstaConf", "PipeMax", "VersEnum", "ChainedRes", "Txns/Batch")
	for _, p := range pts {
		perBatch := 0.0
		if p.PublishBatches > 0 {
			perBatch = float64(p.PublishedTxns) / float64(p.PublishBatches)
		}
		fmt.Printf("%-10d %-12d %-12d %-10d %-10d %-10d %-10d %-10d %-12d %-12d %.2f\n",
			p.Sessions, p.AdmissionWaits, p.AdmissionTimeouts, p.RowWaits,
			p.RowWaitTimeouts, p.RowWaitRescues, p.ImmediateConflicts, p.CommitPipelineMax,
			p.VersionsEnumerated, p.ChainedRowsResolved, perBatch)
	}

	out := struct {
		Benchmark string                 `json:"benchmark"`
		Config    map[string]interface{} `json:"config"`
		Points    []txnPoint             `json:"points"`
	}{
		Benchmark: "interactive_transactions",
		Config: map[string]interface{}{
			"txns_per_session": txnsPerSession,
			"stmts_per_txn":    stmtsPerTxn,
			"accounts":         accounts,
			"hot_keys":         hotKeys,
			"seed":             seed,
			"smoke":            smoke,
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
