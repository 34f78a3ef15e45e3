package core

import (
	"container/list"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/types"
)

// RewriteCache makes the §6.1 query-transformation layer free in steady
// state: an LRU of layout rewrites keyed by (tenant, statement shape) —
// the text with each literal replaced by a kind marker (sql.Shape) — an
// entry remembering, by position, which literal each parameter takes. A
// steady-state statement then costs one scan and one map hit — no parse,
// no layout rewrite, no new entry — and one without literals not even the
// scan. Each cached physical statement carries its precomputed plan-cache
// key string, so the engine's plan cache hits without re-rendering SQL
// either; their literals are lifted as well (physStmt), so that key is a
// placement shape: tenants of one shape share a compiled statement. A
// shape whose parse does not lift every literal once (sql.ParseTemplate)
// is keyed by its template text instead: each text of it parses and
// finds its template cached.
//
// SELECT, INSERT, UPDATE and DELETE are cached. An INSERT's rewrite
// reserves logical row ids (§6.3), which are the only part of it that
// depends on the execution: its statements carry them in parameter slots
// (rowSlot), the first execution binds the ids the rewrite reserved, and
// every other reserves its own (bindRows). DDL and transaction control
// are not cached: a text that starts with another word goes straight to
// the parser.
//
// It is every Mapper's statement path, not an attachment: Mappers over
// one layout share the layout's cache (SharedRewriteCache).
//
// Invalidation is by generation stamp, and the generations live with
// what a rewrite depends on — the tenant's views and placements in the
// layout's state, its route in a LayoutMux (stampOf) — never with the
// live physical catalog: an online ALTER or another tenant's
// private-layout CREATE TABLE must NOT cold-start every tenant's cache
// the way a version-keyed scheme would. Whoever changes that truth
// bumps the tenant's generation under the lock that publishes the
// change (state.extend and removeTenant; LayoutMux.takeDirty and
// SetRoute); each entry is stamped at fill time and a hit compares
// stamps, so exactly the affected tenant's entries miss and refill,
// lazily, while everything else stays warm, and no caller has to
// remember to invalidate.
//
// Filling is singleflighted per key: concurrent sessions of the same
// tenant and shape do the rewrite work once. A cached template AST is
// shared by every session that hits it and is read-only from then on:
// sessions plan it concurrently, so the planner rewrites copies, never
// the tree it is handed (sql.Unnest;
// TestPlannerLeavesASTUntouched holds it to that).
type RewriteCache struct {
	layout Layout

	mu      sync.Mutex
	cap     int
	lru     *list.List // front = LRU victim, back = most recent
	entries map[rcKey]*list.Element
	flight  map[rcKey]*rcFlight

	hits         int64 // lookups answered without a parse
	templateHits int64 // parsed, but the template's rewrite was cached
	misses       int64 // full parse + rewrite
	uncacheable  int64 // DDL and transaction control
	invalidated  int64 // entries dropped by a stale generation stamp
	directDML    int64 // UPDATE/DELETE lookups answered with one direct statement
	twoPhaseDML  int64 // UPDATE/DELETE lookups answered with RowQuery + PhaseB
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

// rcEntry is one LRU slot: a rewrite under a shape, under a template's
// text, or under a text without literals. A shape with literals has from
// (which literal each parameter takes).
type rcEntry struct {
	key   rcKey
	cr    *cachedRewrite
	from  []int
	stamp rcStamp
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

// rcFlight is a single-flight slot for one key's rewrite.
type rcFlight struct {
	done chan struct{}
	err  error
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
	return &RewriteCache{
		layout:  layout,
		cap:     capacity,
		lru:     list.New(),
		entries: make(map[rcKey]*list.Element),
		flight:  make(map[rcKey]*rcFlight),
	}
}

// Stats snapshots the counters.
func (c *RewriteCache) Stats() RewriteCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return RewriteCacheStats{
		Hits:         c.hits,
		TemplateHits: c.templateHits,
		Misses:       c.misses,
		Uncacheable:  c.uncacheable,
		Invalidated:  c.invalidated,
		Entries:      len(c.entries),
		DirectDML:    c.directDML,
		TwoPhaseDML:  c.twoPhaseDML,
	}
}

// removeLocked drops one LRU element. Caller holds c.mu.
func (c *RewriteCache) removeLocked(e *list.Element) {
	c.lru.Remove(e)
	delete(c.entries, e.Value.(*rcEntry).key)
	c.invalidated++
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
			c.mu.Lock()
			c.uncacheable++
			c.mu.Unlock()
		}
		return nil, nil, st, err
	}
	// Read before c.mu: a bump that lands after this orders the whole
	// statement before the change, as if it had arrived a moment sooner.
	cur := stampOf(c.layout, tenant)
	c.mu.Lock()
	if ent := c.liveLocked(c.entries[rcKey{tenant, text}], cur); ent != nil && ent.from == nil {
		c.hits++
		c.countShapeLocked(ent.cr)
		c.mu.Unlock()
		return ent.cr, nil, nil, nil
	}
	c.mu.Unlock()

	sh := shapes.Get().(*sql.Shape)
	defer shapes.Put(sh)
	var lits []types.Value // the text's, where it has a shape
	if sh.Scan(text) && len(sh.Lits) > 0 {
		lits = sh.Lits
		c.mu.Lock()
		if ent := c.liveLocked(c.entries[rcKey{tenant, string(sh.Key)}], cur); ent != nil && ent.from != nil {
			c.hits++
			c.countShapeLocked(ent.cr)
			c.mu.Unlock()
			bound, err = ent.cr.bind(sh.Lits, ent.from)
			return ent.cr, bound, nil, err
		}
		c.mu.Unlock()
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

// liveLocked is the entry at e (nil: none) if its stamp is cur, moved to
// the recent end; a stale one is dropped. Caller holds c.mu.
func (c *RewriteCache) liveLocked(e *list.Element, cur rcStamp) *rcEntry {
	if e == nil {
		return nil
	}
	ent := e.Value.(*rcEntry)
	if ent.stamp != cur {
		c.removeLocked(e)
		return nil
	}
	c.lru.MoveToBack(e)
	return ent
}

// countShapeLocked counts the execution a returned rewrite is about to
// get, if it is an UPDATE's or a DELETE's. Caller holds c.mu.
func (c *RewriteCache) countShapeLocked(cr *cachedRewrite) {
	switch {
	case cr.rw.RowQuery != nil:
		c.twoPhaseDML++
	case cr.rw.DirectIsCount:
		c.directDML++
	}
}

// template finds the rewrite under key, st's template (from as
// ParseTemplate gave it), or fills its entry: one rewrite per key however
// many lookups want it at once. The caller that rewrites counts a miss,
// the others a template hit.
//
// The stamp is read before the rewrite runs: a bump that lands mid-fill
// leaves the entry stamped older than the tenant's generation, so the
// very next hit compares, fails, and refills. The window can waste one
// fill; it can never serve a rewrite from before the bump as current.
func (c *RewriteCache) template(key rcKey, st sql.Statement, from []int) (*cachedRewrite, error) {
	for {
		cur := stampOf(c.layout, key.tenant)
		c.mu.Lock()
		if ent := c.liveLocked(c.entries[key], cur); ent != nil {
			c.templateHits++
			c.countShapeLocked(ent.cr)
			c.mu.Unlock()
			return ent.cr, nil
		}
		if f, ok := c.flight[key]; ok {
			c.mu.Unlock()
			<-f.done
			if f.err != nil {
				return nil, f.err
			}
			continue // the entry is in: hit it
		}
		f := &rcFlight{done: make(chan struct{})}
		c.flight[key] = f
		c.mu.Unlock()

		cr, err := compile(c.layout.Rewrite(key.tenant, st))
		c.mu.Lock()
		delete(c.flight, key)
		if f.err = err; err == nil { // errors are not cached: a later lookup retries
			c.misses++
			c.insertLocked(&rcEntry{key: key, cr: cr, from: from, stamp: cur})
			c.countShapeLocked(cr)
		}
		c.mu.Unlock()
		close(f.done)
		return cr, err
	}
}

// insertLocked adds ent to the LRU, evicting from the front past cap.
// An entry already under the key is replaced — it either carries the
// same rewrite (publish race) or a staler stamp. Caller holds c.mu.
func (c *RewriteCache) insertLocked(ent *rcEntry) {
	if e, ok := c.entries[ent.key]; ok {
		e.Value = ent
		c.lru.MoveToBack(e)
		return
	}
	c.entries[ent.key] = c.lru.PushBack(ent)
	for len(c.entries) > c.cap {
		victim := c.lru.Front()
		c.lru.Remove(victim)
		delete(c.entries, victim.Value.(*rcEntry).key)
	}
}
