package engine

import (
	"container/list"
	"sync"

	"repro/internal/plan"
)

// planCache gives ad-hoc statements prepared-statement speed: an LRU
// of compiled plans keyed by (statement text, catalog version). The
// catalog version in the key makes DDL invalidation implicit — a
// schema change bumps the version, so every subsequent lookup misses
// and replans against the new schema while stale entries age out
// (execDDL also purges eagerly to release memory).
//
// Planning for a given key happens at most once even under concurrent
// callers (the in-flight table): besides avoiding duplicate work, this
// is a correctness requirement, because the optimizer's subquery
// flattening rewrites the statement AST in place, so two goroutines
// must never plan the same AST object concurrently.
//
// Plans that carry per-execution state (IN-subquery materialization)
// are detected at insert time and cloned per execution; stateless
// plans are shared read-only (their lazily cached schemas are warmed
// before publication).
type planCache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front = LRU victim, back = most recent
	entries map[planKey]*list.Element
	flight  map[planKey]*planFlight

	hits, misses int64
}

type planKey struct {
	text    string
	version int64
}

type planEntry struct {
	key      planKey
	node     plan.Node
	stateful bool
}

// planFlight is a single-flight slot: the first goroutine to miss on a
// key builds the plan; later ones wait on done and reuse the result.
type planFlight struct {
	done     chan struct{}
	node     plan.Node
	stateful bool
	err      error
}

// newPlanCache builds a cache of capacity plans; 0 (Config's zero
// value) or less means the default, 512.
func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		capacity = 512
	}
	return &planCache{
		cap:     capacity,
		lru:     list.New(),
		entries: make(map[planKey]*list.Element),
		flight:  make(map[planKey]*planFlight),
	}
}

// get returns an executable plan for key, building it via build on a
// miss. The returned node is private to the caller when the plan is
// stateful, shared otherwise.
func (c *planCache) get(key planKey, build func() (plan.Node, error)) (plan.Node, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToBack(e)
		ent := e.Value.(*planEntry)
		c.hits++
		c.mu.Unlock()
		return forExec(ent.node, ent.stateful), nil
	}
	if f, ok := c.flight[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		return forExec(f.node, f.stateful), nil
	}
	f := &planFlight{done: make(chan struct{})}
	c.flight[key] = f
	c.misses++
	c.mu.Unlock()

	n, err := build()
	if err == nil {
		plan.WarmSchemas(n)
		f.node, f.stateful = n, plan.HasExecState(n)
	}
	f.err = err

	c.mu.Lock()
	delete(c.flight, key)
	if err == nil {
		ent := &planEntry{key: key, node: n, stateful: f.stateful}
		c.entries[key] = c.lru.PushBack(ent)
		for len(c.entries) > c.cap {
			victim := c.lru.Front()
			c.lru.Remove(victim)
			delete(c.entries, victim.Value.(*planEntry).key)
		}
	}
	c.mu.Unlock()
	close(f.done)

	if err != nil {
		return nil, err
	}
	return forExec(n, f.stateful), nil
}

func forExec(n plan.Node, stateful bool) plan.Node {
	if stateful {
		return plan.CloneForExec(n)
	}
	return n
}

// purge drops every cached entry (called on DDL; version-keyed lookups
// would miss anyway, this just frees the memory promptly). In-flight
// builds finish and insert under their old version, then age out.
func (c *planCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.entries = make(map[planKey]*list.Element)
}

// counters reports cache hits and misses (tests and diagnostics).
func (c *planCache) counters() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
