package exec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/mvcc"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// This file is the shared half of the row-path oracle: the fixture, the
// property queries and the golden-file schema. It compiles unchanged at
// d71c376 (the last commit with a row-at-a-time Next protocol), where
// testdata/rowpath_golden_gen_test.go.txt used it to record
// testdata/rowpath_golden.json; the tests in batch_test.go hold the
// single NextBatch path to that record.

const goldenPath = "testdata/rowpath_golden.json"

// propSeeds × propTrials property runs, plus one versioned run and one
// fault sweep, are recorded in the golden file.
const (
	propSeeds     = 5
	propTrials    = 3
	versionedSeed = 7
	faultSeed     = 42
)

// faultSites are the fault sweep's k for a statement that makes n
// fetches of a category when nothing fails: the early sites 1, 2, 5, 12
// and 40 it reaches, and its middle and last fetch, so that every site
// faults whatever a change does to the counts, and a long statement is
// faulted early as well as late.
func faultSites(n int64) []int64 {
	var ks []int64
	for _, k := range []int64{1, 2, 5, 12, 40, (n + 1) / 2, n} {
		if 1 <= k && k <= n {
			ks = append(ks, k)
		}
	}
	slices.Sort(ks)
	return slices.Compact(ks)
}

// propFixture builds a CRM-shaped catalog (Account ⟵ Opportunity, the
// testbed's parent-child core) with randomized data, returning the pool
// so tests can inject fetch faults mid-scan. A non-nil mgr wires the
// tables to MVCC version stores.
func propFixture(t testing.TB, seed int64, mgr *mvcc.Manager) (*storage.BufferPool, *catalog.Catalog) {
	t.Helper()
	return propFixtureOn(t, seed, mgr, storage.NewDisk(0))
}

// propFixtureOn is propFixture on the caller's device: the same rows on
// pages of its size, and the caller keeps the handle to set its latency.
func propFixtureOn(t testing.TB, seed int64, mgr *mvcc.Manager, disk *storage.Disk) (*storage.BufferPool, *catalog.Catalog) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pool := storage.NewBufferPool(disk, 4<<20)
	cfg := catalog.Config{MemoryBytes: 4 << 20}
	if mgr != nil {
		cfg.Versions = mgr
	}
	cat := catalog.New(pool, cfg)
	account, err := cat.CreateTable("account", []catalog.Column{
		{Name: "id", Type: types.IntType, NotNull: true},
		{Name: "name", Type: types.StringType},
		{Name: "industry", Type: types.StringType},
		{Name: "attr01", Type: types.IntType},
		{Name: "attr03", Type: types.FloatType},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("account", "account_pk", []string{"id"}, true); err != nil {
		t.Fatal(err)
	}
	opp, err := cat.CreateTable("opportunity", []catalog.Column{
		{Name: "id", Type: types.IntType, NotNull: true},
		{Name: "account_id", Type: types.IntType},
		{Name: "stage", Type: types.StringType},
		{Name: "quantity", Type: types.IntType},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("opportunity", "opportunity_pk", []string{"id"}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("opportunity", "opportunity_acct", []string{"account_id"}, false); err != nil {
		t.Fatal(err)
	}
	industries := []string{"health", "auto", "retail", "finance"}
	stages := []string{"prospect", "qualify", "close", "won"}
	nAcct := 80 + r.Intn(120)
	for i := 1; i <= nAcct; i++ {
		ind := types.NewString(industries[r.Intn(len(industries))])
		if r.Intn(12) == 0 {
			ind = types.Null() // NULL group keys exercised too
		}
		if _, err := account.InsertRow([]types.Value{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("account-%d", i)),
			ind,
			types.NewInt(int64(r.Intn(1000))),
			types.NewFloat(r.Float64() * 1000),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 3*nAcct; i++ {
		fk := types.NewInt(int64(1 + r.Intn(nAcct+5))) // some dangling FKs
		if r.Intn(15) == 0 {
			fk = types.Null() // NULL join keys never match
		}
		if _, err := opp.InsertRow([]types.Value{
			types.NewInt(int64(i)),
			fk,
			types.NewString(stages[r.Intn(len(stages))]),
			types.NewInt(int64(r.Intn(500))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return pool, cat
}

// versionedFixtureProp is propFixture under MVCC with a reader pinned
// before a writer updates (keys included), deletes and inserts rows in
// both tables and commits: every scan and index-NL probe under the
// returned reader must resolve those rows through their version chains
// and see the pre-write state.
func versionedFixtureProp(t testing.TB, seed int64) (*storage.BufferPool, *catalog.Catalog, *mvcc.Txn) {
	t.Helper()
	return versionedFixtureOn(t, seed, storage.NewDisk(0))
}

func versionedFixtureOn(t testing.TB, seed int64, disk *storage.Disk) (*storage.BufferPool, *catalog.Catalog, *mvcc.Txn) {
	t.Helper()
	mgr := mvcc.NewManager()
	pool, cat := propFixtureOn(t, seed, mgr, disk)
	reader := mgr.Begin()
	w := mgr.Begin()
	for _, q := range []string{
		"UPDATE account SET attr01 = attr01 + 500, industry = 'moved' WHERE id >= 10 AND id <= 40",
		"UPDATE opportunity SET account_id = account_id + 1, quantity = quantity + 100 WHERE id >= 20 AND id <= 90",
		"DELETE FROM opportunity WHERE id >= 100 AND id <= 120",
		"DELETE FROM account WHERE id = 5",
		"INSERT INTO account VALUES (9001, 'late', 'health', 1, 1.5)",
		"INSERT INTO opportunity VALUES (9001, 3, 'won', 499)",
	} {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		p, err := plan.New(cat, plan.Sophisticated).PlanStatement(st)
		if err != nil {
			t.Fatalf("plan %q: %v", q, err)
		}
		if _, err := runDML(p, nil, w, &catalog.UndoLog{}); err != nil {
			t.Fatalf("dml %q: %v", q, err)
		}
	}
	w.Commit()
	return pool, cat, reader
}

// propCase is one property query. limit > 0 marks a query whose %d is a
// LIMIT: the only shape where a batch pipeline may do more work than a
// row pipeline, so its cost is held to a recorded allowance, not to
// equality.
type propCase struct {
	q      string
	params []types.Value
	mode   plan.Mode
	limit  int
}

// sql renders the query text, widening the LIMIT by extra rows.
func (c propCase) sql(extra int) string {
	if c.limit == 0 {
		return c.q
	}
	return fmt.Sprintf(c.q, c.limit+extra)
}

// propQueries mirrors the testbed's query classes — entity detail pages
// (point lookup), the five business-activity-monitoring aggregates,
// DISTINCT, IN-subquery, LEFT JOIN and ORDER BY shapes — and then adds
// what it takes to reach every operator build() handles: hash joins
// with residuals, non-equi nested loops, index-NL residuals and NULL
// outer keys, early-stopping LIMITs, a FROM-less select (VALUES) and a
// derived table under the naive optimizer (materialize).
func propQueries(r *rand.Rand) []propCase {
	ival := func(n int) []types.Value { return []types.Value{types.NewInt(int64(n))} }
	return []propCase{
		{q: "SELECT * FROM account WHERE id = ?", params: ival(1 + r.Intn(150))},
		{q: "SELECT industry, COUNT(*) FROM account GROUP BY industry"},
		{q: "SELECT a.industry, COUNT(*) FROM account a, opportunity o WHERE o.account_id = a.id GROUP BY a.industry"},
		{q: "SELECT COUNT(*), SUM(quantity) FROM opportunity WHERE quantity > ?", params: ival(r.Intn(500))},
		{q: "SELECT stage, COUNT(*), SUM(quantity) FROM opportunity GROUP BY stage ORDER BY stage"},
		{q: "SELECT DISTINCT industry FROM account"},
		{q: "SELECT COUNT(*) FROM opportunity WHERE account_id IN (SELECT id FROM account WHERE industry = ?)", params: []types.Value{types.NewString("health")}},
		{q: "SELECT a.id, o.id FROM account a LEFT JOIN opportunity o ON o.account_id = a.id"},
		{q: "SELECT industry, id FROM account ORDER BY industry, id DESC"},
		{q: "SELECT name FROM account WHERE id >= ? AND id < ?", params: []types.Value{types.NewInt(int64(r.Intn(80))), types.NewInt(int64(80 + r.Intn(80)))}},
		{q: "SELECT name, attr03 FROM account WHERE attr01 > ? ORDER BY name LIMIT %d", params: ival(r.Intn(900)), limit: 10},

		// Hash joins (no index on either key), inner and LEFT, with residuals.
		{q: "SELECT a.id, o.id FROM account a, opportunity o WHERE o.quantity = a.attr01 AND o.stage <> a.industry"},
		{q: "SELECT a.id, o.id FROM account a LEFT JOIN opportunity o ON o.quantity = a.attr01 AND o.stage <> 'won'"},
		// Non-equi nested loops, inner and LEFT.
		{q: "SELECT a.id, o.id FROM account a, opportunity o WHERE a.attr01 < o.quantity AND a.id <= ? AND o.quantity > 470", params: ival(1 + r.Intn(30))},
		{q: "SELECT a.id, o.id FROM account a LEFT JOIN opportunity o ON o.quantity < a.attr01 - 900 WHERE a.id <= ?", params: ival(20 + r.Intn(60))},
		// Index-NL joins with a residual; the LEFT one also meets NULL outer keys.
		{q: "SELECT a.name, o.quantity FROM account a, opportunity o WHERE o.account_id = a.id AND o.quantity > a.attr01 / 2"},
		{q: "SELECT o.id, a.name FROM opportunity o LEFT JOIN account a ON a.id = o.account_id AND a.attr01 > ?", params: ival(r.Intn(800))},
		{q: "SELECT DISTINCT o.stage, a.industry FROM account a, opportunity o WHERE o.account_id = a.id"},
		// Early-stopping LIMITs over a scan, an index-NL join and a hash join.
		{q: "SELECT id, name FROM account LIMIT %d", limit: 7},
		{q: "SELECT id, name FROM account WHERE attr01 > ? LIMIT %d", params: ival(r.Intn(500)), limit: 70},
		{q: "SELECT a.id, o.id FROM account a, opportunity o WHERE o.account_id = a.id LIMIT %d", limit: 5},
		{q: "SELECT a.id, o.id FROM account a, opportunity o WHERE o.account_id = a.id AND o.quantity > ? LIMIT %d", params: ival(r.Intn(300)), limit: 100},
		{q: "SELECT a.id, o.id FROM account a, opportunity o WHERE o.quantity = a.attr01 LIMIT %d", limit: 3},
		// VALUES: a FROM-less select.
		{q: "SELECT ? + 1, 'x'", params: ival(r.Intn(100))},
		// Materialize: derived tables under the naive optimizer.
		{q: "SELECT d.industry, d.n FROM (SELECT industry, COUNT(*) AS n FROM account GROUP BY industry) d WHERE d.n > ?", params: ival(r.Intn(40)), mode: plan.Naive},
		{q: "SELECT o.id, d.name FROM opportunity o, (SELECT id, name FROM account WHERE attr01 > 500) d WHERE d.id = o.account_id", mode: plan.Naive},
	}
}

func planQuery(t testing.TB, cat *catalog.Catalog, q string) plan.Node {
	t.Helper()
	return planMode(t, cat, plan.Sophisticated, q)
}

func planMode(t testing.TB, cat *catalog.Catalog, mode plan.Mode, q string) plan.Node {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	n, err := plan.New(cat, mode).PlanStatement(st)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	return n
}

func renderRows(rows [][]types.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		s := ""
		for _, v := range r {
			s += v.SQLLiteral() + "|"
		}
		out[i] = s
	}
	return out
}

func sameResults(a, b [][]types.Value) bool {
	return digest(a) == digest(b)
}

// digest is the SHA-256 of the sorted result multiset.
func digest(rows [][]types.Value) string {
	r := renderRows(rows)
	sort.Strings(r)
	sum := sha256.Sum256([]byte(strings.Join(r, "\n")))
	return hex.EncodeToString(sum[:])
}

// nodeKinds adds the type of every node in the plan (IN-subquery plans
// excluded) to kinds.
func nodeKinds(n plan.Node, kinds map[string]bool) {
	kinds[fmt.Sprintf("%T", n)] = true
	for _, c := range n.Children() {
		nodeKinds(c, kinds)
	}
}

// goldenCost is what one execution cost: the four Stats counters
// (RowsScanned, ScanBatches, ValuesDecoded, ValuesSkipped) and logical
// page fetches by storage.Category (data, index).
type goldenCost struct {
	Stats   [4]int64 `json:"stats"`
	Fetches [2]int64 `json:"fetches"`
}

func costOf(c Counters, before, after storage.PoolStats) goldenCost {
	return goldenCost{
		Stats: [4]int64{c.RowsScanned, c.ScanBatches, c.ValuesDecoded, c.ValuesSkipped},
		Fetches: [2]int64{
			after.LogicalReads[storage.CatData] - before.LogicalReads[storage.CatData],
			after.LogicalReads[storage.CatIndex] - before.LogicalReads[storage.CatIndex],
		},
	}
}

// goldenRun is the row path's record of one (seed, trial, query).
// Digest comes from the unpruned plan; the pruned plan had to agree
// before the file was written. AllowPruned/AllowUnpruned are set for
// LIMIT queries only: the row path's cost of the same query with
// LIMIT n+BatchSize, the most a batch pipeline may spend.
type goldenRun struct {
	Seed          int64       `json:"seed"`
	Trial         int         `json:"trial"`
	Query         string      `json:"query"`
	Rows          int         `json:"rows"`
	Digest        string      `json:"digest"`
	Pruned        goldenCost  `json:"pruned"`
	Unpruned      goldenCost  `json:"unpruned"`
	AllowPruned   *goldenCost `json:"allow_pruned,omitempty"`
	AllowUnpruned *goldenCost `json:"allow_unpruned,omitempty"`
}

// goldenFault is the row path's outcome with the kth logical fetch of
// one category failing. FailedWide is set for LIMIT queries only: the
// outcome of the same query with LIMIT n+BatchSize, so a site the batch
// pipeline reaches inside its one-batch allowance is told apart from a
// changed outcome.
type goldenFault struct {
	Query      string `json:"query"`
	Cat        int    `json:"cat"`
	K          int64  `json:"k"`
	Failed     bool   `json:"failed"`
	FailedWide *bool  `json:"failed_wide,omitempty"`
	Digest     string `json:"digest,omitempty"` // of the result when it succeeded
}

type goldenFile struct {
	Source    string        `json:"source"`
	NodeKinds []string      `json:"node_kinds"`
	Property  []goldenRun   `json:"property"`
	Versioned []goldenRun   `json:"versioned"`
	Faults    []goldenFault `json:"faults"`
}

func loadGolden(t testing.TB) *goldenFile {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return &g
}
