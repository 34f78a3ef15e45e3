package engine

import (
	"container/list"
	"sync"

	"repro/internal/exec"
	"repro/internal/mvcc"
	"repro/internal/plan"
	"repro/internal/types"
)

// planCache gives ad-hoc statements prepared-statement speed: an LRU
// of compiled statements keyed by (statement text, catalog version). The
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
// The plan of an entry is shared read-only by every execution (its
// lazily cached schemas are warmed before publication); what an
// execution mutates lives in an operator tree, and the entry keeps a
// few of those between executions (see compiled).
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

// maxFreeTrees bounds a compiled statement's free list. A tree serves
// one execution at a time, so the list only needs to cover the
// executions of one statement that overlap; beyond that a tree is built
// for the execution and dropped after it.
const maxFreeTrees = 4

// compiled is one statement ready to run: the frozen plan plus a free
// list of operator trees instantiated from it, each with the arenas,
// cursors and buffers its executions grew still attached. The list
// belongs to the entry and dies with it — LRU eviction, purge, or a
// catalog-version change that leaves the entry unreachable — so a plan
// nobody runs again holds no trees, and the cache's worst case is
// cap × maxFreeTrees × exec's per-tree byte budget.
type compiled struct {
	key  planKey
	node plan.Node
	// stateful plans (IN-subquery sets) may not be executed shared:
	// exec.Build clones one per tree, forExec one per DML execution.
	stateful bool

	mu   sync.Mutex
	free []*exec.Tree
}

// take returns a tree no other execution holds: one off the free list,
// or a new one when every kept tree is in use.
func (c *compiled) take() (*exec.Tree, error) {
	c.mu.Lock()
	if n := len(c.free); n > 0 {
		t := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		c.mu.Unlock()
		return t, nil
	}
	c.mu.Unlock()
	return exec.Build(c.node)
}

// put hands a tree back after its execution. One whose execution failed,
// or that grew past the byte budget, is dropped instead, as is one the
// list has no room for.
func (c *compiled) put(t *exec.Tree) {
	if !t.Reusable() {
		return
	}
	c.mu.Lock()
	if len(c.free) < maxFreeTrees {
		c.free = append(c.free, t)
	}
	c.mu.Unlock()
}

// collect runs the statement under tx's snapshot (nil: none) and
// returns its rows with the plan's output column names. A panic inside
// the executor skips put: the tree is lost, not recycled.
func (c *compiled) collect(params []types.Value, st *exec.Stats, tx *mvcc.Txn) (*Rows, error) {
	t, err := c.take()
	if err != nil {
		return nil, err
	}
	data, err := t.Collect(params, st, tx)
	c.put(t)
	if err != nil {
		return nil, err
	}
	schema := c.node.Schema()
	cols := make([]string, len(schema))
	for i, col := range schema {
		cols[i] = col.Name
	}
	return &Rows{Columns: cols, Data: data}, nil
}

// drain runs the statement for a result nobody reads: rows are streamed
// and counted, never materialized.
func (c *compiled) drain(params []types.Value, st *exec.Stats, tx *mvcc.Txn) (int64, error) {
	t, err := c.take()
	if err != nil {
		return 0, err
	}
	n, err := t.Drain(params, st, tx)
	c.put(t)
	return n, err
}

// forExec returns the plan for a DML execution, which binds subqueries
// on the plan itself: private to the caller when stateful.
func (c *compiled) forExec() plan.Node {
	if c.stateful {
		return plan.CloneForExec(c.node)
	}
	return c.node
}

// planFlight is a single-flight slot: the first goroutine to miss on a
// key builds the plan; later ones wait on done and reuse the result.
type planFlight struct {
	done chan struct{}
	c    *compiled
	err  error
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

// get returns the compiled statement for key, planning it via build on
// a miss.
func (c *planCache) get(key planKey, build func() (plan.Node, error)) (*compiled, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToBack(e)
		c.hits++
		c.mu.Unlock()
		return e.Value.(*compiled), nil
	}
	if f, ok := c.flight[key]; ok {
		c.mu.Unlock()
		<-f.done
		return f.c, f.err
	}
	f := &planFlight{done: make(chan struct{})}
	c.flight[key] = f
	c.misses++
	c.mu.Unlock()

	n, err := build()
	if err == nil {
		plan.WarmSchemas(n)
		f.c = &compiled{key: key, node: n, stateful: plan.HasExecState(n)}
	}
	f.err = err

	c.mu.Lock()
	delete(c.flight, key)
	if err == nil {
		c.entries[key] = c.lru.PushBack(f.c)
		for len(c.entries) > c.cap {
			victim := c.lru.Front()
			c.lru.Remove(victim)
			delete(c.entries, victim.Value.(*compiled).key)
		}
	}
	c.mu.Unlock()
	close(f.done)
	return f.c, err
}

// purge drops every cached entry, and with each its trees (called on
// DDL; version-keyed lookups would miss anyway, this just frees the
// memory promptly). In-flight builds finish and insert under their old
// version, then age out; an execution in flight hands its tree back to
// an entry nothing points to any more.
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
