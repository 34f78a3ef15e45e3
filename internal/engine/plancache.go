package engine

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/mvcc"
	"repro/internal/plan"
	"repro/internal/types"
)

// DB.plans, the plan cache, gives ad-hoc statements prepared-statement
// speed: compiled statements keyed by text and stamped with the catalog
// version. A schema change bumps the version, so a later lookup finds
// the entry stale and replans; DDL also clears the cache, to release
// memory promptly. The plan of an entry is never written after the
// planner returns it and is shared by every execution; what an
// execution mutates, its IN-subquery sets included, lives in an
// operator tree, a few of which the entry keeps (see compiled).

// planCacheSize bounds the cache in statements.
const planCacheSize = 512

// maxFreeTrees bounds a compiled statement's free list. A tree serves
// one execution at a time, so the list only needs to cover the
// executions of one statement that overlap; beyond that a tree is built
// for the execution and dropped after it.
const maxFreeTrees = 4

// compiled is one statement ready to run: the frozen plan plus a free
// list of operator trees instantiated from it, each with the arenas,
// cursors and buffers its executions grew still attached. The list
// belongs to the entry and dies with it — LRU eviction, Clear, or a
// catalog-version change that leaves the entry stale — so a plan
// nobody runs again holds no trees, and the cache's worst case is
// planCacheSize × maxFreeTrees × exec's per-tree byte budget.
type compiled struct {
	node plan.Node
	// tables are the tables the plan touches, each once, in the global
	// latch order (lowercased name); write is the one a DML plan writes,
	// nil for a query. Found once, when the statement is compiled.
	tables []*catalog.Table
	write  *catalog.Table

	mu   sync.Mutex
	free []*exec.Tree
}

func newCompiled(n plan.Node) *compiled {
	write, tables := plan.Tables(n)
	if write != nil {
		tables = append(tables, write)
	}
	slices.SortFunc(tables, func(a, b *catalog.Table) int {
		return strings.Compare(strings.ToLower(a.Name), strings.ToLower(b.Name))
	})
	return &compiled{node: n, tables: slices.Compact(tables), write: write}
}

// latch takes the statement's table latches in the global order: shared
// on each table, and exclusive on the write target where exclusive is
// set (a session's gather phase latches its target shared).
func (c *compiled) latch(db *DB, exclusive bool) {
	for _, t := range c.tables {
		db.lock(t, exclusive && t == c.write)
	}
}

// unlatch releases what latch took.
func (c *compiled) unlatch(exclusive bool) {
	for _, t := range c.tables {
		if exclusive && t == c.write {
			t.Mu.Unlock()
		} else {
			t.Mu.RUnlock()
		}
	}
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
