package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/mvcc"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// staleGuard enforces the ownership rule from the outside: before it
// lets its child produce the next batch (and at Close) it overwrites
// every row of the batch it handed out last, so an operator that kept
// one of those rows without copying it returns sentinels.
type staleGuard struct {
	child Iterator
	last  [][]types.Value
}

func (g *staleGuard) scribble() {
	for _, row := range g.last {
		for i := range row {
			row[i] = types.NewString("<stale>")
		}
	}
	g.last = g.last[:0]
}

func (g *staleGuard) Open(ctx *Context) error { return g.child.Open(ctx) }

func (g *staleGuard) NextBatch() (*Batch, error) {
	g.scribble()
	b, err := g.child.NextBatch()
	if b != nil {
		g.last = append(g.last, b.Rows...) // all of them, before a parent compacts Rows
	}
	return b, err
}

func (g *staleGuard) Close() error {
	g.scribble()
	return g.child.Close()
}

// inputs lists the fields through which an operator pulls its inputs.
func inputs(it Iterator) []*Iterator {
	switch it := it.(type) {
	case *staleGuard:
		return []*Iterator{&it.child}
	case *filterIter:
		return []*Iterator{&it.child}
	case *projectIter:
		return []*Iterator{&it.child}
	case *hashJoinIter:
		return []*Iterator{&it.outer, &it.right}
	case *indexNLJoinIter:
		return []*Iterator{&it.outer}
	case *nlJoinIter:
		return []*Iterator{&it.outer, &it.right}
	case *hashAggIter:
		return []*Iterator{&it.child}
	case *sortIter:
		return []*Iterator{&it.child}
	case *materializeIter:
		return []*Iterator{&it.child}
	case *limitIter:
		return []*Iterator{&it.child}
	case *distinctIter:
		return []*Iterator{&it.child}
	case *seqScanIter, *indexScanIter, *valuesIter:
		return nil
	}
	panic(fmt.Sprintf("inputs: unhandled iterator %T", it))
}

// guarded puts a staleGuard between every parent and child of the tree
// and on top of the root.
func guarded(it Iterator) Iterator {
	for _, in := range inputs(it) {
		*in = guarded(*in)
	}
	return &staleGuard{child: it}
}

// poison does to a tree between two executions the worst its next user
// could: it overwrites everything the tree kept — every batch's arena
// and row index to their full capacity (subquery plans' included), and
// the row, key and RID scratch of the operators under the root — so an
// execution that reads anything a previous one left behind, instead of
// what its own Open rebinds, returns sentinels, and a caller's result
// that aliased the tree changes under it.
func poison(t *Tree) {
	stale := types.NewString("<poison>")
	scribble := func(row []types.Value) {
		for i := range row {
			row[i] = stale
		}
	}
	for _, b := range t.batches {
		scribble(b.arena[:cap(b.arena)])
		for _, row := range b.Rows[:cap(b.Rows)] {
			scribble(row)
		}
	}
	keys := func(k *keyRange) {
		for _, buf := range [][]byte{k.prefix, k.lo, k.hi} {
			buf = buf[:cap(buf)]
			for i := range buf {
				buf[i] = 0xAA
			}
		}
	}
	var walk func(it Iterator)
	walk = func(it Iterator) {
		switch it := it.(type) {
		case *indexScanIter:
			keys(&it.keys)
			rids := it.rids[:cap(it.rids)]
			for i := range rids {
				rids[i] = storage.RID{Page: 1 << 30, Slot: 0xAAAA}
			}
		case *indexNLJoinIter:
			keys(&it.keys)
			scribble(it.rowbuf[:cap(it.rowbuf)])
		case *hashJoinIter:
			scribble(it.keys)
		}
		for _, in := range inputs(it) {
			walk(*in)
		}
	}
	walk(t.root)
}

// otherParams derives a different parameter list of the same shape.
func otherParams(params []types.Value, round int) []types.Value {
	out := make([]types.Value, len(params))
	for i, p := range params {
		switch p.Kind {
		case types.KindInt:
			out[i] = types.NewInt(p.Int + int64(37*round))
		case types.KindString:
			out[i] = types.NewString(p.Str + strings.Repeat("x", round-1))
		default:
			out[i] = p
		}
	}
	return out
}

// runPlan builds a tree for n and collects one execution of it, with
// the option of guarding every edge.
func runPlan(n plan.Node, params []types.Value, st *Stats, tx *mvcc.Txn, guard bool) ([][]types.Value, error) {
	t, err := Build(n)
	if err != nil {
		return nil, err
	}
	if guard {
		t.root = guarded(t.root)
	}
	return t.Collect(params, st, tx)
}

// runWarm is runPlan as a cached statement's third execution sees it:
// the tree has already served the plan twice, under other parameters —
// the second time outside any snapshot — and was poisoned after each,
// and is poisoned once more before the result is looked at. It returns
// what the third run alone spent.
func runWarm(n plan.Node, params []types.Value, tx *mvcc.Txn, guard bool, pool *storage.BufferPool) ([][]types.Value, goldenCost, error) {
	t, err := Build(n)
	if err != nil {
		return nil, goldenCost{}, err
	}
	if guard {
		t.root = guarded(t.root)
	}
	for round, snap := range []*mvcc.Txn{tx, nil} {
		if _, err := t.Collect(otherParams(params, round+1), nil, snap); err != nil {
			return nil, goldenCost{}, err
		}
		if !t.Reusable() {
			return nil, goldenCost{}, fmt.Errorf("tree not reusable after a clean execution")
		}
		poison(t)
	}
	var st Stats
	before := pool.Stats()
	rows, err := t.Collect(params, &st, tx)
	cost := costOf(st.Snapshot(), before, pool.Stats())
	poison(t)
	return rows, cost, err
}

// subMultiset reports whether every row of sub occurs in all at least
// as often as in sub.
func subMultiset(sub, all [][]types.Value) bool {
	left := map[string]int{}
	for _, r := range renderRows(all) {
		left[r]++
	}
	for _, r := range renderRows(sub) {
		if left[r]--; left[r] < 0 {
			return false
		}
	}
	return true
}

// within reports lo <= got <= hi in every component.
func (got goldenCost) within(lo, hi goldenCost) bool {
	for i := range got.Stats {
		if got.Stats[i] < lo.Stats[i] || got.Stats[i] > hi.Stats[i] {
			return false
		}
	}
	for i := range got.Fetches {
		if got.Fetches[i] < lo.Fetches[i] || got.Fetches[i] > hi.Fetches[i] {
			return false
		}
	}
	return true
}

// checkRun holds the single path — pruned and unpruned, bare and with a
// staleGuard on every edge, always on a tree that has run before
// (runWarm) — to the row path's record of one query: the
// same result multiset, and the same Stats counters and logical page
// fetches, except that a LIMIT query may spend up to what the row path
// spent on LIMIT n+BatchSize. (The costs of the versioned run are the
// single path's own: see the file's source line.)
func checkRun(t *testing.T, pool *storage.BufferPool, cat *catalog.Catalog, c propCase, tx *mvcc.Txn, want goldenRun) {
	t.Helper()
	if c.sql(0) != want.Query {
		t.Fatalf("golden file out of step: have %q, golden %q", c.sql(0), want.Query)
	}
	// A LIMIT without ORDER BY under a snapshot may return any n rows:
	// the row path served every chained row last, the single path serves
	// a stable chain where the scan finds it. Such a result is held to
	// the un-LIMITed one, not to the row path's choice.
	anyN := tx != nil && c.limit > 0 && !strings.Contains(c.q, "ORDER BY")
	var unlimited [][]types.Value
	if anyN {
		var err error
		unlimited, err = runPlan(planMode(t, cat, c.mode, c.sql(1<<30)), c.params, nil, tx, false)
		if err != nil {
			t.Fatalf("%q: %v", c.sql(1<<30), err)
		}
	}
	for _, prune := range []bool{true, false} {
		lo, hi := want.Unpruned, want.Unpruned
		if prune {
			lo, hi = want.Pruned, want.Pruned
		}
		if c.limit > 0 {
			hi = *want.AllowUnpruned
			if prune {
				hi = *want.AllowPruned
			}
		}
		for _, guard := range []bool{false, true} {
			n := planMode(t, cat, c.mode, c.sql(0))
			if !prune {
				plan.DisablePruning(n)
			}
			rows, got, err := runWarm(n, c.params, tx, guard, pool)
			if err != nil {
				t.Fatalf("%q prune=%v guard=%v: %v", want.Query, prune, guard, err)
			}
			switch {
			case anyN:
				if len(rows) != want.Rows || !subMultiset(rows, unlimited) {
					t.Errorf("seed %d trial %d %q prune=%v guard=%v: %d rows, want %d members of the un-LIMITed result",
						want.Seed, want.Trial, want.Query, prune, guard, len(rows), want.Rows)
				}
			case len(rows) != want.Rows || digest(rows) != want.Digest:
				t.Errorf("seed %d trial %d %q prune=%v guard=%v: %d rows, digest differs from the row path's %d rows",
					want.Seed, want.Trial, want.Query, prune, guard, len(rows), want.Rows)
			}
			if !got.within(lo, hi) {
				t.Errorf("seed %d trial %d %q prune=%v guard=%v: cost %+v outside row-path bounds [%+v, %+v]",
					want.Seed, want.Trial, want.Query, prune, guard, got, lo, hi)
			}
		}
	}
}

// TestBatchRowEquivalenceProperty: Collect reproduces the frozen
// row-path digests, Stats.Exec counters and page fetches for every
// property query over randomized data and parameters, and under a
// transaction snapshot that reads through version chains.
func TestBatchRowEquivalenceProperty(t *testing.T) {
	g := loadGolden(t)
	next := 0
	for seed := int64(1); seed <= propSeeds; seed++ {
		pool, cat := propFixture(t, seed, nil)
		r := rand.New(rand.NewSource(seed * 977))
		for trial := 0; trial < propTrials; trial++ {
			for _, c := range propQueries(r) {
				checkRun(t, pool, cat, c, nil, g.Property[next])
				next++
			}
		}
	}
	if next != len(g.Property) {
		t.Errorf("ran %d property queries, golden file has %d", next, len(g.Property))
	}

	pool, cat, reader := versionedFixtureProp(t, versionedSeed)
	r := rand.New(rand.NewSource(versionedSeed * 977))
	for i, c := range propQueries(r) {
		checkRun(t, pool, cat, c, reader, g.Versioned[i])
	}
}

// TestGoldenSetWithHintsLive runs the golden file's query set where
// every access path announces and the pool thrashes — the same rows on
// 1 KiB pages, two frames a shard, a device with read latency — and
// holds it to the recorded results; afterwards the tables are sound and
// nothing is pinned. A shrink keeps the shards the pool was built with,
// so the budget is stated per shard: with one frame a shard's cap on
// hinted frames (half its capacity) is zero and every hint is dropped.
// (The recorded costs are those of 8 KiB pages; that hints add no
// logical read is held in internal/storage.)
func TestGoldenSetWithHintsLive(t *testing.T) {
	g := loadGolden(t)
	run := func(disk *storage.Disk, pool *storage.BufferPool, cat *catalog.Catalog, tx *mvcc.Txn, seed int64, want []goldenRun) {
		disk.ReadLatency = 50 * time.Microsecond
		if err := pool.SetCapacityBytes(int64(2*pool.NumShards()) * int64(pool.PageSize())); err != nil {
			t.Fatal(err)
		}
		pool.ResetStats()
		for i, c := range propQueries(rand.New(rand.NewSource(seed * 977))) {
			rows, err := runPlan(planMode(t, cat, c.mode, c.sql(0)), c.params, nil, tx, false)
			if err != nil {
				t.Fatalf("%q: %v", c.sql(0), err)
			}
			// A LIMIT without ORDER BY may return any n rows.
			anyN := c.limit > 0 && !strings.Contains(c.q, "ORDER BY")
			if len(rows) != want[i].Rows || !anyN && digest(rows) != want[i].Digest {
				t.Errorf("%q: %d rows, the golden file has %d; digests equal: %v",
					c.sql(0), len(rows), want[i].Rows, digest(rows) == want[i].Digest)
			}
		}
		for _, name := range cat.TableNames() {
			tab, err := cat.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := tab.CheckInvariants(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
		if err := pool.DropAll(); err != nil { // waits for loads, refuses pins
			t.Error(err)
		}
		if st := pool.Stats(); st.PrefetchJoined == 0 || st.Evictions == 0 {
			t.Errorf("the run neither hinted nor thrashed: %+v", st)
		}
	}
	disk := storage.NewDisk(1024)
	pool, cat := propFixtureOn(t, 1, nil, disk)
	run(disk, pool, cat, nil, 1, g.Property)
	disk = storage.NewDisk(1024)
	pool, cat, reader := versionedFixtureOn(t, versionedSeed, disk)
	run(disk, pool, cat, reader, versionedSeed, g.Versioned)
}

// TestPropQueriesReachEveryOperator keeps the oracle honest: the
// property queries plan to every node kind build() handles, and the
// golden file was recorded over the same kinds.
func TestPropQueriesReachEveryOperator(t *testing.T) {
	_, cat := propFixture(t, 1, nil)
	kinds := map[string]bool{}
	for _, c := range propQueries(rand.New(rand.NewSource(1))) {
		nodeKinds(planMode(t, cat, c.mode, c.sql(0)), kinds)
	}
	golden := map[string]bool{}
	for _, k := range loadGolden(t).NodeKinds {
		golden[k] = true
	}
	for _, k := range []string{"*plan.SeqScan", "*plan.IndexScan", "*plan.Values", "*plan.Filter", "*plan.Project",
		"*plan.HashJoin", "*plan.IndexNLJoin", "*plan.NLJoin", "*plan.HashAggregate", "*plan.Sort", "*plan.Limit",
		"*plan.Distinct", "*plan.Materialize"} {
		if !kinds[k] || !golden[k] {
			t.Errorf("%s: planned by a property query: %v, in the golden file: %v", k, kinds[k], golden[k])
		}
	}
}

// TestBatchRowFaultEquivalence injects a fetch fault at the kth logical
// page access and asserts the statement fails or succeeds as the row
// path did — batching must not change which statements an I/O error
// aborts, nor swallow the error. Under a LIMIT the batch pipeline may
// reach a site the row path stopped short of, but only one the row path
// reaches with LIMIT n+BatchSize.
func TestBatchRowFaultEquivalence(t *testing.T) {
	g := loadGolden(t)
	pool, cat := propFixture(t, faultSeed, nil)
	r := rand.New(rand.NewSource(faultSeed * 101))
	next := 0
	for _, c := range propQueries(r) {
		for _, fc := range []storage.Category{storage.CatData, storage.CatIndex} {
			for _, k := range faultKs {
				want := g.Faults[next]
				next++
				if want.Query != c.sql(0) || want.Cat != int(fc) || want.K != k {
					t.Fatalf("golden file out of step at %q cat=%v k=%d: %+v", c.sql(0), fc, k, want)
				}
				for _, guard := range []bool{false, true} {
					pool.SetFetchFault(storage.FailNthFetch(k, fc))
					rows, err := runPlan(planMode(t, cat, c.mode, c.sql(0)), c.params, nil, nil, guard)
					pool.SetFetchFault(nil)
					if err != nil && !errors.Is(err, storage.ErrInjectedFault) {
						t.Fatalf("%q cat=%v k=%d: unexpected error %v", want.Query, fc, k, err)
					}
					mustFail, mayFail := want.Failed, want.Failed
					if want.FailedWide != nil {
						mayFail = *want.FailedWide
					}
					switch failed := err != nil; {
					case failed && !mayFail:
						t.Errorf("%q cat=%v k=%d guard=%v: failed, the row path did not", want.Query, fc, k, guard)
					case !failed && mustFail:
						t.Errorf("%q cat=%v k=%d guard=%v: succeeded, the row path failed", want.Query, fc, k, guard)
					case !failed && digest(rows) != want.Digest:
						t.Errorf("%q cat=%v k=%d guard=%v: result differs from the row path's", want.Query, fc, k, guard)
					}
				}
			}
		}
	}
	if next != len(g.Faults) {
		t.Errorf("ran %d fault sites, golden file has %d", next, len(g.Faults))
	}
}

// countingSource produces n rows in batches of size per and counts the
// pulls it served.
type countingSource struct {
	n, per, pulls int
	b             Batch
}

func (s *countingSource) Open(*Context) error { return nil }
func (s *countingSource) Close() error        { return nil }

func (s *countingSource) NextBatch() (*Batch, error) {
	if s.n == 0 {
		return nil, nil
	}
	s.pulls++
	s.b.reset()
	for i := 0; i < s.per && s.n > 0; i++ {
		row := s.b.alloc(1)
		row[0] = types.NewInt(int64(s.n))
		s.b.Rows = append(s.b.Rows, row)
		s.n--
	}
	return &s.b, nil
}

// TestLimitStopsEarly: limitIter truncates the batch that straddles n
// and never pulls another, and LIMIT 0 pulls nothing at all.
func TestLimitStopsEarly(t *testing.T) {
	for _, tc := range []struct{ n, rows, pulls int }{
		{n: 0, rows: 0, pulls: 0},
		{n: 5, rows: 5, pulls: 1},
		{n: 10, rows: 10, pulls: 1},  // exactly one batch: no second pull to find the end
		{n: 25, rows: 25, pulls: 3},  // straddles the third batch
		{n: 999, rows: 40, pulls: 4}, // input shorter than the limit
	} {
		src := &countingSource{n: 40, per: 10}
		rows, err := drain(&limitIter{child: src, n: int64(tc.n)}, &Context{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != tc.rows || src.pulls != tc.pulls {
			t.Errorf("LIMIT %d over 4 batches of 10: %d rows after %d pulls, want %d rows after %d pulls",
				tc.n, len(rows), src.pulls, tc.rows, tc.pulls)
		}
	}
}

// TestJoinUnderLimitStopsWithinOneBatch: a join closes its batch at
// BatchSize rows on an outer-row boundary, so under a LIMIT it consumes
// no outer row beyond those needed for its first batch — here the outer
// input is never pulled a second time.
func TestJoinUnderLimitStopsWithinOneBatch(t *testing.T) {
	right := &countingSource{n: 4, per: 4}
	outer := &countingSource{n: 100 * BatchSize, per: BatchSize}
	join := &nlJoinIter{right: right, joinCore: joinCore{outer: outer, innerWidth: 1, out: &Batch{}}}
	rows, err := drain(&limitIter{child: join, n: 3}, &Context{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || outer.pulls != 1 {
		t.Errorf("LIMIT 3 over a 4-way NL join: %d rows after %d outer pulls, want 3 rows after 1 pull", len(rows), outer.pulls)
	}
	if want := BatchSize / 4; join.oi != want {
		t.Errorf("join consumed %d outer rows for its first batch, want %d", join.oi, want)
	}
}

// TestPrunedFilterAndJoinColumnsStillApply executes queries whose
// filter / join columns never appear in the SELECT list: pruning must
// decode them for predicate evaluation anyway, so the predicates keep
// filtering correctly.
func TestPrunedFilterAndJoinColumnsStillApply(t *testing.T) {
	_, cat := propFixture(t, 11, nil)
	// Filter column (industry) not selected: result must match the count
	// computed by an unpruned plan.
	q := "SELECT id FROM account WHERE industry = 'health'"
	n := planQuery(t, cat, q)
	pruned, err := runPlan(n, nil, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	unpruned := planQuery(t, cat, q)
	plan.DisablePruning(unpruned)
	full, err := runPlan(unpruned, nil, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) == 0 || !sameResults(pruned, full) {
		t.Errorf("filter on pruned column: %d pruned vs %d unpruned rows", len(pruned), len(full))
	}
	// Join key (o.account_id) not selected on either side.
	q = "SELECT a.name, o.stage FROM account a, opportunity o WHERE o.account_id = a.id"
	n = planQuery(t, cat, q)
	joined, err := runPlan(n, nil, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	unpruned = planQuery(t, cat, q)
	plan.DisablePruning(unpruned)
	fullJoin, err := runPlan(unpruned, nil, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(joined) == 0 || !sameResults(joined, fullJoin) {
		t.Errorf("join on pruned key: %d pruned vs %d unpruned rows", len(joined), len(fullJoin))
	}
}

// TestCollectStatsCounters sanity-checks the executor counters: a
// pruned scan must report decode savings, and counters must accumulate
// rows and batches.
func TestCollectStatsCounters(t *testing.T) {
	_, cat := propFixture(t, 7, nil)
	var st Stats
	n := planQuery(t, cat, "SELECT id FROM account")
	rows, err := runPlan(n, nil, &st, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	c := st.Snapshot()
	if c.RowsScanned != int64(len(rows)) {
		t.Errorf("RowsScanned = %d, want %d", c.RowsScanned, len(rows))
	}
	if c.ScanBatches == 0 {
		t.Error("ScanBatches = 0, want > 0")
	}
	// account has 5 columns, the query needs 1: most values skip decode.
	if c.ValuesSkipped <= c.ValuesDecoded {
		t.Errorf("ValuesSkipped = %d not > ValuesDecoded = %d", c.ValuesSkipped, c.ValuesDecoded)
	}
	if c.ValuesDecoded != int64(len(rows)) {
		t.Errorf("ValuesDecoded = %d, want %d (one column per row)", c.ValuesDecoded, len(rows))
	}
}
