package core

import (
	"container/list"
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
// change (state.extend; LayoutMux.takeDirty and SetRoute); each entry
// is stamped at fill time and a hit compares stamps, so exactly the
// affected tenant's entries miss and refill, lazily, while everything
// else stays warm, and no caller has to remember to invalidate.
//
// Rewrites are cached only for SELECT, UPDATE, and DELETE. INSERT
// rewrites are side-effecting (they reserve logical row ids via the
// layout's row sequences) and value-dependent, so they always take the
// full rewrite path; DDL and transaction control likewise.
//
// Filling is singleflighted per key: concurrent sessions of the same
// tenant sharing statement text do the parse+rewrite work once. A cached
// template AST is shared by every session that hits it and is read-only
// from then on: sessions plan it concurrently, so the planner rewrites
// copies, never the tree it is handed (plan.flattenSubqueries).
type RewriteCache struct {
	layout Layout

	mu      sync.Mutex
	cap     int
	lru     *list.List // front = LRU victim, back = most recent
	entries map[rcKey]*list.Element
	flight  map[rcKey]*rcFlight

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
	case interface{ state() *state }:
		return rcStamp{place: l.state().generation(tenant)}
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
	case interface{ state() *state }:
		slot = &l.state().cache
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
		// Read before c.mu: a bump that lands after this orders the whole
		// statement before the change, as if it had arrived a moment sooner.
		cur := stampOf(c.layout, tenant)
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			ent := e.Value.(*rcEntry)
			if ent.stamp == cur {
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
				if f.ent.stamp != cur {
					continue // invalidated while in flight: retry from the top
				}
				c.mu.Lock()
				c.hits++
				c.countShapeLocked(f.ent.cr)
				c.mu.Unlock()
				return f.ent.cr, bindParams(f.ent, userParams), nil, nil
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
		f.ent, f.st, templateHit, f.err = c.fill(key, cur)

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
// stamp was read before the rewrite runs: a bump that lands mid-fill
// leaves the entry stamped older than the tenant's generation, so the
// very next hit compares, fails, and refills. The window can waste one
// fill; it can never serve a rewrite from before the bump as current.
func (c *RewriteCache) fill(key rcKey, stamp rcStamp) (ent *rcEntry, parsed sql.Statement, templateHit bool, err error) {
	st, err := sql.Parse(key.text)
	if err != nil {
		return nil, nil, false, err
	}
	switch st.(type) {
	case *sql.SelectStmt, *sql.UpdateStmt, *sql.DeleteStmt:
	default:
		return nil, st, false, nil
	}

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
		if tmpl.stamp == stamp {
			c.lru.MoveToBack(e)
			c.mu.Unlock()
			return &rcEntry{key: key, cr: tmpl.cr, extra: extra, stamp: stamp}, nil, true, nil
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
	if e, ok := c.entries[canonKey]; ok && e.Value.(*rcEntry).stamp == stamp {
		cr = e.Value.(*rcEntry).cr
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
