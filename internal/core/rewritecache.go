package core

import (
	"container/list"
	"sort"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/types"
)

// RewriteCache makes the §6.1 query-transformation layer free in steady
// state: an LRU of layout rewrites keyed by (tenant, statement text).
// Application SQL mostly arrives with values inlined, so a raw text
// alone would give every distinct value its own entry; the cache
// therefore canonicalizes first (sql.ExtractParams lifts the literals
// into positional parameters) and keys the rewrite on the template
// text, with per-raw-text alias entries remembering the extracted
// bindings. A steady-state statement then costs one map hit: no lexing,
// no parsing, no layout rewrite — and because each cached physical
// statement carries its precomputed plan-cache key string, the engine's
// plan cache hits without re-rendering SQL either.
//
// Invalidation is by generation stamps, not by catalog version. A
// layout rewrite depends only on the logical schema and the tenant's
// layout metadata — never on the live physical catalog — so a physical
// schema change (an online ALTER, another tenant's private-layout
// CREATE TABLE) must NOT cold-start every tenant's cache the way a
// version-keyed scheme would. Each entry is stamped at fill time with
// three generation counters: a global one, the tenant's, and one per
// logical table the statement touches. A hit revalidates the stamps; a
// bumped counter makes exactly the affected entries miss and refill,
// lazily, while everything else stays warm. Producers bump counters via
// InvalidateAll / InvalidateTenant / InvalidateTable — e.g. a tenant
// layout move bumps its tenant's counter at cutover.
//
// Rewrites are cached only for SELECT, UPDATE, and DELETE. INSERT
// rewrites are side-effecting (they reserve logical row ids via the
// layout's row sequences) and value-dependent, so they always take the
// full rewrite path; DDL and transaction control likewise.
//
// Filling is singleflighted per key: concurrent sessions of the same
// tenant sharing statement text do the parse+rewrite work once. A cached
// template AST is shared by every session that hits it and is read-only
// from then on: sessions print and plan it concurrently (a session-less
// Mapper re-derives the plan-cache key from its text on every call), so
// the planner rewrites copies, never the tree it is handed
// (plan.flattenSubqueries).
type RewriteCache struct {
	db     *engine.DB
	layout Layout

	mu      sync.Mutex
	cap     int
	lru     *list.List // front = LRU victim, back = most recent
	entries map[rcKey]*list.Element
	flight  map[rcKey]*rcFlight

	globalGen  int64
	tenantGens map[int64]int64
	tableGens  map[rcTableKey]int64

	hits         int64 // raw-text hits (zero-parse path)
	templateHits int64 // parsed + extracted, but the template's rewrite was cached
	misses       int64 // full parse + rewrite
	uncacheable  int64 // statements outside the cacheable classes
	invalidated  int64 // entries dropped by a stale generation stamp
	directDML    int64 // UPDATE/DELETE lookups answered with one direct statement
	twoPhaseDML  int64 // UPDATE/DELETE lookups answered with RowQuery + PhaseB
}

type rcKey struct {
	tenant int64
	text   string
}

// rcTableKey scopes a table generation to one tenant: invalidating
// (35, "account") leaves tenant 42's entries over the same logical
// table untouched.
type rcTableKey struct {
	tenant int64
	table  string // lowercased logical name
}

// rcStamp is the set of generation counters an entry was filled under.
// An entry is live while every counter still matches; comparison is
// equality, since counters only ever increment.
type rcStamp struct {
	global int64
	tenant int64
	tables []rcTableGen
}

type rcTableGen struct {
	name string // lowercased logical name
	gen  int64
}

// cachedRewrite is one rewrite template: the physical statement shapes
// plus their precomputed plan-cache key strings (st.String() rendered
// once at fill time instead of per execution).
type cachedRewrite struct {
	rw          *Rewritten
	queryKey    string
	directKeys  []string
	rowQueryKey string
}

// rcEntry is one LRU slot. Template entries have extra == nil; raw
// alias entries carry the literal values their text canonicalized away,
// in Param index order.
type rcEntry struct {
	key   rcKey
	cr    *cachedRewrite
	extra []types.Value
	stamp rcStamp
}

// rcFlight is a single-flight slot for one key's fill.
type rcFlight struct {
	done chan struct{}
	ent  *rcEntry
	st   sql.Statement // set instead of ent for uncacheable statements
	err  error
}

// RewriteCacheStats is a point-in-time counter snapshot.
type RewriteCacheStats struct {
	Hits         int64 // raw-text hits: no parse, no rewrite
	TemplateHits int64 // parsed, but the canonical template was cached
	Misses       int64 // full parse + layout rewrite
	Uncacheable  int64 // INSERT / DDL / transaction control
	Invalidated  int64 // entries dropped by generation-stamp mismatch
	Entries      int   // current LRU population
	// UPDATE and DELETE statements by the shape they ran in, one count per
	// execution (a lookup, hit or fill, is followed by one): a tenant
	// whose placement keeps its writes in one fragment shows up in
	// DirectDML, one that pays §6.3's two phases in TwoPhaseDML.
	DirectDML   int64
	TwoPhaseDML int64
}

// HitRate returns the fraction of cacheable lookups that skipped the
// layout rewrite. Uncacheable statements (INSERT, DDL, transaction
// control) never consult the cache — they are excluded from the rate
// and reported separately in Uncacheable.
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

// NewRewriteCache builds a cache for one (db, layout) pair. One cache
// is meant to be shared by every session of a server.
func NewRewriteCache(db *engine.DB, layout Layout, capacity int) *RewriteCache {
	if capacity <= 0 {
		capacity = DefaultRewriteCacheCap
	}
	return &RewriteCache{
		db:         db,
		layout:     layout,
		cap:        capacity,
		lru:        list.New(),
		entries:    make(map[rcKey]*list.Element),
		flight:     make(map[rcKey]*rcFlight),
		tenantGens: make(map[int64]int64),
		tableGens:  make(map[rcTableKey]int64),
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

// InvalidateAll makes every cached rewrite stale. The nuclear option:
// for a logical-schema change that affects all tenants.
func (c *RewriteCache) InvalidateAll() {
	c.mu.Lock()
	c.globalGen++
	c.mu.Unlock()
}

// InvalidateTenant makes one tenant's cached rewrites stale and leaves
// every other tenant's entries warm. A tenant layout move calls this at
// each copy round and at cutover.
func (c *RewriteCache) InvalidateTenant(tenant int64) {
	c.mu.Lock()
	c.tenantGens[tenant]++
	c.mu.Unlock()
}

// InvalidateTable makes one tenant's cached rewrites over one logical
// table stale — the finest grain: other tables of the same tenant and
// the same table under other tenants stay warm.
func (c *RewriteCache) InvalidateTable(tenant int64, table string) {
	c.mu.Lock()
	c.tableGens[rcTableKey{tenant: tenant, table: strings.ToLower(table)}]++
	c.mu.Unlock()
}

// stampLocked captures the current generations for (tenant, tables).
// Caller holds c.mu.
func (c *RewriteCache) stampLocked(tenant int64, tables []string) rcStamp {
	s := rcStamp{global: c.globalGen, tenant: c.tenantGens[tenant]}
	if len(tables) > 0 {
		s.tables = make([]rcTableGen, len(tables))
		for i, tn := range tables {
			s.tables[i] = rcTableGen{name: tn, gen: c.tableGens[rcTableKey{tenant: tenant, table: tn}]}
		}
	}
	return s
}

// validLocked reports whether ent's stamp still matches the live
// generation counters. Caller holds c.mu.
func (c *RewriteCache) validLocked(ent *rcEntry) bool {
	s := ent.stamp
	if s.global != c.globalGen || s.tenant != c.tenantGens[ent.key.tenant] {
		return false
	}
	for _, tg := range s.tables {
		if tg.gen != c.tableGens[rcTableKey{tenant: ent.key.tenant, table: tg.name}] {
			return false
		}
	}
	return true
}

// removeLocked drops one LRU element. Caller holds c.mu.
func (c *RewriteCache) removeLocked(e *list.Element) {
	c.lru.Remove(e)
	delete(c.entries, e.Value.(*rcEntry).key)
	c.invalidated++
}

// lookup resolves one logical statement text for a tenant.
//
// Outcomes:
//   - cr != nil: the rewrite is cached; bind carries the parameter
//     values to execute it with (the caller's params, or the literals
//     extracted from this raw text).
//   - cr == nil, st != nil: the statement is not cacheable (INSERT,
//     DDL, transaction control); st is the parse result so the caller
//     can run the ordinary rewrite path without re-parsing.
//   - err != nil: parse or rewrite failed.
//
// userParams are returned as bind for already-parameterized texts; for
// canonicalized texts (which by construction contained no `?`) the
// extracted literals bind instead, and any caller-supplied params —
// which no placeholder could have referenced — are ignored.
func (c *RewriteCache) lookup(tenant int64, text string, userParams []types.Value) (cr *cachedRewrite, bind []types.Value, st sql.Statement, err error) {
	key := rcKey{tenant: tenant, text: text}
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			ent := e.Value.(*rcEntry)
			if c.validLocked(ent) {
				c.lru.MoveToBack(e)
				c.hits++
				c.countShapeLocked(ent.cr)
				c.mu.Unlock()
				return ent.cr, bindParams(ent, userParams), nil, nil
			}
			// Stale stamp: drop the entry and refill below.
			c.removeLocked(e)
		}
		if f, ok := c.flight[key]; ok {
			c.mu.Unlock()
			<-f.done
			if f.err != nil {
				return nil, nil, nil, f.err
			}
			if f.ent != nil {
				c.mu.Lock()
				valid := c.validLocked(f.ent)
				if valid {
					c.hits++
					c.countShapeLocked(f.ent.cr)
				}
				c.mu.Unlock()
				if valid {
					return f.ent.cr, bindParams(f.ent, userParams), nil, nil
				}
				// Invalidated while in flight: retry from the top.
				continue
			}
			// Uncacheable: the flight's parse result belongs to its owner
			// (ASTs are mutable); re-parse for this caller.
			c.mu.Lock()
			c.uncacheable++
			c.mu.Unlock()
			st, err = sql.Parse(text)
			return nil, nil, st, err
		}
		f := &rcFlight{done: make(chan struct{})}
		c.flight[key] = f
		c.mu.Unlock()

		var templateHit bool
		f.ent, f.st, templateHit, f.err = c.fill(key)

		c.mu.Lock()
		delete(c.flight, key)
		switch {
		case f.err != nil:
			// Errors are not cached: a later lookup retries.
		case f.ent != nil:
			if templateHit {
				c.templateHits++
			} else {
				c.misses++
			}
			c.insertLocked(f.ent)
			c.countShapeLocked(f.ent.cr)
		default:
			c.uncacheable++
		}
		c.mu.Unlock()
		close(f.done)

		if f.err != nil {
			return nil, nil, nil, f.err
		}
		if f.ent != nil {
			return f.ent.cr, bindParams(f.ent, userParams), nil, nil
		}
		return nil, nil, f.st, nil
	}
}

// countShapeLocked counts the execution a returned rewrite is about to
// get, if it is an UPDATE's or a DELETE's (INSERTs are never cached, so
// a cached Direct is one of the two). Caller holds c.mu.
func (c *RewriteCache) countShapeLocked(cr *cachedRewrite) {
	switch {
	case cr.rw.RowQuery != nil:
		c.twoPhaseDML++
	case cr.rw.Direct != nil:
		c.directDML++
	}
}

// bindParams picks the execution bindings for an entry: extracted
// literals for canonicalized texts, the caller's params otherwise.
func bindParams(ent *rcEntry, userParams []types.Value) []types.Value {
	if ent.extra != nil {
		return ent.extra
	}
	return userParams
}

// fill parses and rewrites one key's statement. Returns (entry, nil)
// for cacheable statements, (nil, parsed) for uncacheable ones;
// templateHit reports that the canonical template's rewrite was already
// cached (only the parse + extraction ran).
//
// The generation stamp is captured after the parse and before the
// rewrite: an invalidation that lands mid-fill leaves the entry stamped
// older than the bumped counter, so the very next hit revalidates,
// fails, and refills. The window can waste one fill; it can never serve
// a rewrite from before the invalidation as current.
func (c *RewriteCache) fill(key rcKey) (ent *rcEntry, parsed sql.Statement, templateHit bool, err error) {
	st, err := sql.Parse(key.text)
	if err != nil {
		return nil, nil, false, err
	}
	switch st.(type) {
	case *sql.SelectStmt, *sql.UpdateStmt, *sql.DeleteStmt:
	default:
		return nil, st, false, nil
	}

	tables := tablesOf(st)
	c.mu.Lock()
	stamp := c.stampLocked(key.tenant, tables)
	c.mu.Unlock()

	// Canonicalize: lift inlined literals into params so statements
	// differing only in values share one template entry.
	extra, extracted := sql.ExtractParams(st)
	if !extracted {
		cr, err := c.rewriteTemplate(key.tenant, st)
		if err != nil {
			return nil, nil, false, err
		}
		return &rcEntry{key: key, cr: cr, stamp: stamp}, nil, false, nil
	}

	canonText := st.String()
	canonKey := rcKey{tenant: key.tenant, text: canonText}
	c.mu.Lock()
	if e, ok := c.entries[canonKey]; ok {
		tmpl := e.Value.(*rcEntry)
		if c.validLocked(tmpl) {
			c.lru.MoveToBack(e)
			c.mu.Unlock()
			return &rcEntry{key: key, cr: tmpl.cr, extra: extra, stamp: tmpl.stamp}, nil, true, nil
		}
		c.removeLocked(e)
	}
	c.mu.Unlock()

	cr, err := c.rewriteTemplate(key.tenant, st)
	if err != nil {
		return nil, nil, false, err
	}
	c.mu.Lock()
	// First valid insert wins: if another fill published this template
	// while we rewrote, alias to the published one so all raw texts
	// share a single template AST.
	if e, ok := c.entries[canonKey]; ok && c.validLocked(e.Value.(*rcEntry)) {
		tmpl := e.Value.(*rcEntry)
		cr, stamp = tmpl.cr, tmpl.stamp
	} else {
		c.insertLocked(&rcEntry{key: canonKey, cr: cr, stamp: stamp})
	}
	c.mu.Unlock()
	return &rcEntry{key: key, cr: cr, extra: extra, stamp: stamp}, nil, false, nil
}

// rewriteTemplate runs the layout rewrite and renders the plan-cache
// key strings once.
func (c *RewriteCache) rewriteTemplate(tenant int64, st sql.Statement) (*cachedRewrite, error) {
	rw, err := c.layout.Rewrite(tenant, st)
	if err != nil {
		return nil, err
	}
	cr := &cachedRewrite{rw: rw}
	if rw.Query != nil {
		cr.queryKey = rw.Query.String()
	}
	if len(rw.Direct) > 0 {
		cr.directKeys = make([]string, len(rw.Direct))
		for i, d := range rw.Direct {
			cr.directKeys[i] = d.String()
		}
	}
	if rw.RowQuery != nil {
		cr.rowQueryKey = rw.RowQuery.String()
	}
	return cr, nil
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

// tablesOf collects the logical table names a cacheable statement
// touches, lowercased, deduped, and sorted — the tables its cache entry
// is stamped against. Subqueries in FROM, IN, and join conditions are
// walked so an InvalidateTable on any referenced table staleness-marks
// the whole statement.
func tablesOf(st sql.Statement) []string {
	seen := make(map[string]bool)
	var walkSel func(*sql.SelectStmt)
	var walkRef func(sql.TableRef)
	var walkExpr func(sql.Expr)
	walkRef = func(r sql.TableRef) {
		switch r := r.(type) {
		case *sql.NamedTable:
			seen[strings.ToLower(r.Name)] = true
		case *sql.SubqueryTable:
			walkSel(r.Select)
		case *sql.JoinTable:
			walkRef(r.Left)
			walkRef(r.Right)
			walkExpr(r.On)
		}
	}
	walkExpr = func(e sql.Expr) {
		switch e := e.(type) {
		case *sql.BinaryExpr:
			walkExpr(e.L)
			walkExpr(e.R)
		case *sql.UnaryExpr:
			walkExpr(e.X)
		case *sql.IsNullExpr:
			walkExpr(e.X)
		case *sql.InExpr:
			walkExpr(e.X)
			for _, x := range e.List {
				walkExpr(x)
			}
			if e.Subquery != nil {
				walkSel(e.Subquery)
			}
		case *sql.LikeExpr:
			walkExpr(e.X)
			walkExpr(e.Pattern)
		case *sql.FuncExpr:
			for _, a := range e.Args {
				walkExpr(a)
			}
		case *sql.CastExpr:
			walkExpr(e.X)
		}
	}
	walkSel = func(s *sql.SelectStmt) {
		if s == nil {
			return
		}
		for _, it := range s.Items {
			if it.Expr != nil {
				walkExpr(it.Expr)
			}
		}
		for _, r := range s.From {
			walkRef(r)
		}
		walkExpr(s.Where)
		for _, g := range s.GroupBy {
			walkExpr(g)
		}
		walkExpr(s.Having)
		for _, o := range s.OrderBy {
			walkExpr(o.Expr)
		}
	}
	switch st := st.(type) {
	case *sql.SelectStmt:
		walkSel(st)
	case *sql.UpdateStmt:
		seen[strings.ToLower(st.Table)] = true
		for _, a := range st.Set {
			walkExpr(a.Value)
		}
		walkExpr(st.Where)
	case *sql.DeleteStmt:
		seen[strings.ToLower(st.Table)] = true
		walkExpr(st.Where)
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
