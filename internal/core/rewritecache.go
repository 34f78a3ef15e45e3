package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/engine"
	"repro/internal/lru"
	"repro/internal/sql"
	"repro/internal/types"
)

// RewriteCache makes the §6.1 query-transformation layer free in steady
// state (DESIGN.md §14.1). It is every Mapper's statement path: Mappers
// over one layout share the layout's cache (SharedRewriteCache).
//
// An entry is a layout rewrite keyed by (tenant, statement shape) — the
// text with each literal replaced by a kind marker (sql.Shape) — and
// remembers, by position, which literal each parameter takes, so a
// steady-state statement costs one scan and one probe, and one without
// literals not even the scan. A shape whose parse does not lift every
// literal once (sql.ParseTemplate) is keyed by its template text. The
// physical statements are lifted too and carry their plan-cache key
// (physStmt): tenants of one placement shape share a compiled
// statement. An INSERT's row ids bind per execution (bindRows). DDL
// and transaction control are not cached.
//
// The entries are an lru.Cache stamped with rcStamp: generations that
// live with what a rewrite depends on — the tenant's views and
// placements, its route in a LayoutMux (stampOf) — never with the
// physical catalog, so an online ALTER cold-starts nobody. Whoever
// changes that truth bumps the tenant's generation under the lock that
// publishes the change (state.extend and removeTenant;
// LayoutMux.takeDirty and SetRoute), and exactly that tenant's entries
// refill, lazily. A cached template AST is shared by every session that
// hits it and is read-only: the planner rewrites copies, never the tree
// it is handed (TestPlannerLeavesASTUntouched).
type RewriteCache struct {
	layout  Layout
	entries *lru.Cache[rcKey, rcStamp, rcEntry]

	hits         atomic.Int64 // lookups answered without a parse
	templateHits atomic.Int64 // parsed, but the template's rewrite was cached
	misses       atomic.Int64 // full parse + rewrite
	uncacheable  atomic.Int64 // DDL and transaction control
	directDML    atomic.Int64 // UPDATE/DELETE lookups answered with one direct statement
	twoPhaseDML  atomic.Int64 // UPDATE/DELETE lookups answered with RowQuery + PhaseB
}

type rcKey struct {
	tenant int64
	text   string
}

// rcStamp is the pair of generations an entry was filled under: the
// tenant's route in a LayoutMux (0 without one) and its views and
// placements in the layout that serves it. An entry is live while both
// still match; comparison is equality, since generations only increment.
type rcStamp struct {
	route, place int64
}

// stampOf reads a tenant's current generations from where l keeps them
// (a layout from outside this package keeps none: its stamp never moves).
func stampOf(l Layout, tenant int64) rcStamp {
	switch l := l.(type) {
	case *LayoutMux:
		return l.stamp(tenant)
	case *FragmentLayout:
		return rcStamp{place: l.st.generation(tenant)}
	}
	return rcStamp{}
}

// SharedRewriteCache returns the cache the Mappers over l share. It
// hangs off what the layout's tenants share already: the state, or the
// mux.
func SharedRewriteCache(l Layout) *RewriteCache {
	var slot *cacheSlot
	switch l := l.(type) {
	case *LayoutMux:
		slot = &l.cache
	case *FragmentLayout:
		slot = &l.st.cache
	default:
		return NewRewriteCache(nil, l, 0)
	}
	slot.once.Do(func() { slot.c = NewRewriteCache(nil, l, 0) })
	return slot.c
}

type cacheSlot struct {
	once sync.Once
	c    *RewriteCache
}

// cachedRewrite is one rewrite template: the layout's answer, and its
// physical statements as every tenant of the same placement shape runs
// them. An INSERT's that carry Row ids have reserve set: first is the
// first of the ids its rewrite reserved, which the first execution to
// claim them binds (bindRows).
type cachedRewrite struct {
	rw    *Rewritten
	stmts []physStmt // in rw.statements() order

	first   int64
	claimed atomic.Bool
	reserve func() int64
}

// physStmt is one physical statement with its literals lifted
// (sql.LiftParams), so that key, its text rendered once, is a function of
// the placement's shape; slots say what each parameter binds to (their
// Lit is cleared once compiled), except for the rows, which bind per
// execution.
type physStmt struct {
	st    sql.Statement
	key   string
	slots []sql.Slot
	rows  []rowSlot
}

// rowSlot is a parameter of an INSERT's statement that binds a logical
// row id: that of the statement's row-th logical row.
type rowSlot struct{ at, row int }

// lift is a physical statement with its literals lifted.
func lift(st sql.Statement) physStmt {
	lifted, slots := sql.LiftParams(st)
	return physStmt{st: lifted, key: lifted.String(), slots: slots}
}

// compile lifts the literals of a rewrite's statements and renders their
// keys; a rewrite error passes through. An INSERT's Row literals are
// found by node (Rewritten.rowIDs), never by value, and their slots keep
// no value: the template holds no row id. Nor does it hold the layout's
// literal statements of an INSERT (Direct): what runs is the lifted ones.
func compile(rw *Rewritten, err error) (*cachedRewrite, error) {
	if err != nil {
		return nil, err
	}
	stmts := rw.statements()
	cr := &cachedRewrite{rw: rw, stmts: make([]physStmt, len(stmts))}
	var rowOf map[*sql.Literal]int // an INSERT's Row literals, by row
	if rw.reserve != nil {
		rowOf = make(map[*sql.Literal]int, len(rw.rowIDs))
		for r, id := range rw.rowIDs {
			rowOf[id] = r
		}
	}
	for i, ps := range stmts {
		cr.stmts[i] = lift(ps)
		slots := cr.stmts[i].slots
		for at := range slots {
			if r, ok := rowOf[slots[at].Lit]; ok {
				cr.stmts[i].rows = append(cr.stmts[i].rows, rowSlot{at: at, row: r})
				slots[at].Val = types.Value{}
			}
			slots[at].Lit = nil
		}
	}
	if rw.Inserted > 0 {
		shape := *rw
		shape.Direct, shape.rowIDs = nil, nil
		cr.rw = &shape
		if rw.reserve != nil {
			cr.first, cr.reserve = rw.rowIDs[0].Val.Int, rw.reserve
		}
	}
	return cr, nil
}

// bindRows is each statement's vector for one execution of an INSERT
// whose statements carry Row ids (reserve set): bound, or params bound
// where bound is nil, with the ids in their slots — those cr's rewrite
// reserved for the first execution that claims them, and Inserted fresh
// consecutive ones for every other. The caller holds the tenant's gate:
// a reservation is the layout's that serves the tenant.
func (cr *cachedRewrite) bindRows(bound [][]types.Value, params []types.Value) ([][]types.Value, error) {
	if bound == nil {
		bound = make([][]types.Value, len(cr.stmts))
		for i := range cr.stmts {
			var err error
			if bound[i], err = cr.stmts[i].bind(params); err != nil {
				return nil, err
			}
		}
	}
	first := cr.first
	if !cr.claimed.CompareAndSwap(false, true) {
		first = cr.reserve()
	}
	for i := range cr.stmts {
		for _, r := range cr.stmts[i].rows {
			bound[i][r.at] = types.NewInt(first + int64(r.row))
		}
	}
	return bound, nil
}

// bind is the statement's parameter vector for a logical statement whose
// parameters take vals; a statement without slots takes vals as they are.
func (ps *physStmt) bind(vals []types.Value) ([]types.Value, error) {
	if ps.slots == nil {
		return vals, nil
	}
	out := make([]types.Value, len(ps.slots))
	for i, s := range ps.slots {
		switch {
		case s.Param < 0:
			out[i] = s.Val
		case s.Param < len(vals):
			out[i] = vals[s.Param]
		default:
			return nil, fmt.Errorf("core: missing value for parameter %d", s.Param+1)
		}
	}
	return out, nil
}

// rcEntry is one cached rewrite: under a shape, under a template's
// text, or under a text without literals. A shape with literals has from
// (which literal each parameter takes).
type rcEntry struct {
	cr   *cachedRewrite
	from []int
}

// bind is each of cr's statements' vector for a logical statement whose
// parameter p takes vals[p], or vals[from[p]] where from is set (a shape
// entry's); nil where vals is: the caller's values bind per execution.
func (cr *cachedRewrite) bind(vals []types.Value, from []int) ([][]types.Value, error) {
	if vals == nil {
		return nil, nil
	}
	if !slices.IsSorted(from) { // a permutation, and not the identity
		perm := make([]types.Value, len(from))
		for p, k := range from {
			perm[p] = vals[k]
		}
		vals = perm
	}
	out := make([][]types.Value, len(cr.stmts))
	for i := range cr.stmts {
		if cr.stmts[i].slots == nil {
			continue // no parameters: vals may be a scan's, not to be kept
		}
		var err error
		if out[i], err = cr.stmts[i].bind(vals); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RewriteCacheStats is a point-in-time counter snapshot.
type RewriteCacheStats struct {
	Hits         int64 // no parse, no rewrite: an exact or a shape hit
	TemplateHits int64 // parsed, but the template was cached: a refused shape's text
	Misses       int64 // parse + layout rewrite
	Uncacheable  int64 // DDL / transaction control
	Invalidated  int64 // entries dropped by generation-stamp mismatch
	Entries      int   // current LRU population
	// UPDATE and DELETE statements by the shape they ran in, one count per
	// execution (a lookup, hit or fill, is followed by one): a tenant
	// whose placement keeps its writes in one fragment shows up in
	// DirectDML, one that pays §6.3's two phases in TwoPhaseDML. An
	// INSERT counts in neither.
	DirectDML   int64
	TwoPhaseDML int64
}

// HitRate returns the fraction of cacheable lookups that skipped the
// layout rewrite. Uncacheable statements (DDL, transaction control) take
// no entry and no flight — they are excluded from the rate and reported
// separately in Uncacheable.
func (s RewriteCacheStats) HitRate() float64 {
	total := s.Hits + s.TemplateHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.TemplateHits) / float64(total)
}

// DefaultRewriteCacheCap bounds the cache; at ~thousands of templates
// per tenant deck this fits the CRM workload many times over.
const DefaultRewriteCacheCap = 8192

// NewRewriteCache builds a private cache over a layout, for a Mapper
// that should not share its layout's (Mapper.Cache). The database
// argument is unused: a rewrite depends on the layout alone.
func NewRewriteCache(_ *engine.DB, layout Layout, capacity int) *RewriteCache {
	if capacity <= 0 {
		capacity = DefaultRewriteCacheCap
	}
	return &RewriteCache{layout: layout, entries: lru.New[rcKey, rcStamp, rcEntry](capacity)}
}

// Stats snapshots the counters.
func (c *RewriteCache) Stats() RewriteCacheStats {
	entries, stale := c.entries.Counts()
	return RewriteCacheStats{
		Hits:         c.hits.Load(),
		TemplateHits: c.templateHits.Load(),
		Misses:       c.misses.Load(),
		Uncacheable:  c.uncacheable.Load(),
		Invalidated:  stale,
		Entries:      entries,
		DirectDML:    c.directDML.Load(),
		TwoPhaseDML:  c.twoPhaseDML.Load(),
	}
}

// shapes recycles the scans lookups take.
var shapes = sync.Pool{New: func() any { return new(sql.Shape) }}

// txnControl is what each bare BEGIN, COMMIT, ROLLBACK parses to, shared.
var txnControl = map[string]sql.Statement{
	"BEGIN":    &sql.BeginStmt{},
	"COMMIT":   &sql.CommitStmt{},
	"ROLLBACK": &sql.RollbackStmt{},
}

// lookup resolves one logical statement text for a tenant: by an exact
// probe of (tenant, text), which hits the entries of texts without
// literals; else by one scan and a probe of (tenant, shape); else by a
// parse, which finds or fills the entry its template is keyed by.
//
// Outcomes:
//   - cr != nil: the rewrite is cached; bound is the parameter vector of
//     each of its statements, or nil for a text whose parameters are the
//     caller's. Where the text's literals were lifted they are bound, and
//     any caller-supplied params — which no placeholder could have
//     referenced — are ignored.
//   - cr == nil, st != nil: the statement is not cacheable (DDL,
//     transaction control); st is the parse result (txnControl's,
//     read-only) so the caller can run the ordinary path without re-parsing.
//   - err != nil: parse or rewrite failed.
func (c *RewriteCache) lookup(tenant int64, text string) (cr *cachedRewrite, bound [][]types.Value, st sql.Statement, err error) {
	if v := sql.Verb(text); !strings.EqualFold(v, "SELECT") && !strings.EqualFold(v, "INSERT") && !strings.EqualFold(v, "UPDATE") && !strings.EqualFold(v, "DELETE") {
		if st = txnControl[text]; st == nil {
			st, err = sql.Parse(text)
		}
		if err == nil {
			c.uncacheable.Add(1)
		}
		return nil, nil, st, err
	}
	// Read before the probe: a bump that lands after this orders the
	// whole statement before the change, as if it had arrived a moment
	// sooner.
	cur := stampOf(c.layout, tenant)
	if ent, ok := c.entries.Get(rcKey{tenant, text}, cur); ok && ent.from == nil {
		c.hits.Add(1)
		c.countShape(ent.cr)
		return ent.cr, nil, nil, nil
	}

	sh := shapes.Get().(*sql.Shape)
	defer shapes.Put(sh)
	var lits []types.Value // the text's, where it has a shape
	if sh.Scan(text) && len(sh.Lits) > 0 {
		lits = sh.Lits
		// The probe views sh.Key in place: Get keeps no key it is given.
		probe := unsafe.String(unsafe.SliceData(sh.Key), len(sh.Key))
		if ent, ok := c.entries.Get(rcKey{tenant, probe}, cur); ok && ent.from != nil {
			c.hits.Add(1)
			c.countShape(ent.cr)
			bound, err = ent.cr.bind(sh.Lits, ent.from)
			return ent.cr, bound, nil, err
		}
	}

	st, vals, from, err := sql.ParseTemplate(text, lits)
	if err != nil {
		return nil, nil, nil, err
	}
	key := rcKey{tenant: tenant, text: text}
	switch {
	case from != nil:
		key.text = string(sh.Key)
	case vals != nil:
		key.text = st.String()
	}
	if cr, err = c.template(key, st, from); err != nil {
		return nil, nil, nil, err
	}
	bound, err = cr.bind(vals, nil)
	return cr, bound, nil, err
}

// countShape counts the execution a returned rewrite is about to get,
// if it is an UPDATE's or a DELETE's.
func (c *RewriteCache) countShape(cr *cachedRewrite) {
	switch {
	case cr.rw.RowQuery != nil:
		c.twoPhaseDML.Add(1)
	case cr.rw.DirectIsCount:
		c.directDML.Add(1)
	}
}

// template finds the rewrite under key, st's template (from as
// ParseTemplate gave it), or fills its entry: one rewrite per key however
// many lookups want it at once. The caller that rewrites counts a miss,
// the others a template hit. A bump that lands mid-fill can waste the
// fill (lru.Cache); it can never serve a rewrite from before the bump.
func (c *RewriteCache) template(key rcKey, st sql.Statement, from []int) (*cachedRewrite, error) {
	ent, how, err := c.entries.Do(key, stampOf(c.layout, key.tenant), func() (rcEntry, error) {
		cr, err := compile(c.layout.Rewrite(key.tenant, st))
		return rcEntry{cr: cr, from: from}, err
	})
	if err != nil { // not cached: a later lookup retries
		return nil, err
	}
	if how == lru.Filled {
		c.misses.Add(1)
	} else {
		c.templateHits.Add(1)
	}
	c.countShape(ent.cr)
	return ent.cr, nil
}
