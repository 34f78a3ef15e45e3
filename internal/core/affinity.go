package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/sql"
)

// Affinity accumulates column co-access statistics from a logical query
// log. The paper's §7 names this as the goal of its ongoing work:
// chunk-assignment algorithms "that take into account the logical
// schemas of tenants, the distribution of data within those schemas,
// and the associated application queries". Feeding an Affinity into
// ChunkOptions makes the assignment workload-aware: columns that are
// frequently queried together are packed into the same chunk, which
// reduces the number of aligning joins a reconstruction needs.
type Affinity struct {
	schema *Schema

	mu     sync.Mutex
	counts map[string]map[[2]string]int // table -> sorted column pair -> hits
	single map[string]map[string]int    // table -> column -> hits
}

// NewAffinity creates an empty statistics collector for a schema.
func NewAffinity(schema *Schema) *Affinity {
	return &Affinity{
		schema: schema,
		counts: map[string]map[[2]string]int{},
		single: map[string]map[string]int{},
	}
}

// Observe records one statement's column usage for a table.
func (a *Affinity) Observe(table string, cols []string) {
	key := strings.ToLower(table)
	norm := make([]string, 0, len(cols))
	seen := map[string]bool{}
	for _, c := range cols {
		lc := strings.ToLower(c)
		if !seen[lc] {
			seen[lc] = true
			norm = append(norm, lc)
		}
	}
	sort.Strings(norm)
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.counts[key] == nil {
		a.counts[key] = map[[2]string]int{}
		a.single[key] = map[string]int{}
	}
	for i, c1 := range norm {
		a.single[key][c1]++
		for _, c2 := range norm[i+1:] {
			a.counts[key][[2]string{c1, c2}]++
		}
	}
}

// ObserveSQL parses a logical SELECT and records, per referenced table,
// which of the tenant's columns it uses (step 1 of the §6.1 analysis
// reused as a statistics probe).
func (a *Affinity) ObserveSQL(tn *Tenant, query string) error {
	st, err := sql.Parse(query)
	if err != nil {
		return err
	}
	sel, ok := st.(*sql.SelectStmt)
	if !ok {
		return fmt.Errorf("core: ObserveSQL takes SELECT statements")
	}
	usages, err := analyzeSelect(a.schema, tn, sel)
	if err != nil {
		return err
	}
	for _, u := range usages {
		var cols []string
		for _, at := range u.usedAt() {
			cols = append(cols, u.view.cols[at].Name)
		}
		a.Observe(u.logical.Name, cols)
	}
	return nil
}

func (a *Affinity) pair(table, c1, c2 string) int {
	c1, c2 = strings.ToLower(c1), strings.ToLower(c2)
	if c1 > c2 {
		c1, c2 = c2, c1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.counts[strings.ToLower(table)][[2]string{c1, c2}]
}

// OrderColumns reorders a column list so that strongly co-accessed
// columns are adjacent, which the sequential packing of assignColumns
// turns into shared chunks. The heuristic builds a chain greedily: it
// seeds with the hottest pair and repeatedly appends the unplaced
// column with the highest affinity to either chain end; columns never
// observed keep their declaration order at the tail. Deterministic for
// stable assignments across restarts.
func (a *Affinity) OrderColumns(table string, cols []Column) []Column {
	if len(cols) < 3 {
		return cols
	}
	byName := map[string]Column{}
	var names []string
	for _, c := range cols {
		lc := strings.ToLower(c.Name)
		byName[lc] = c
		names = append(names, lc)
	}
	// Hottest pair seeds the chain.
	bestA, bestB, bestN := "", "", 0
	for i, c1 := range names {
		for _, c2 := range names[i+1:] {
			if n := a.pair(table, c1, c2); n > bestN {
				bestA, bestB, bestN = c1, c2, n
			}
		}
	}
	if bestN == 0 {
		return cols // no statistics; keep declaration order
	}
	chain := []string{bestA, bestB}
	placed := map[string]bool{bestA: true, bestB: true}
	for len(chain) < len(names) {
		head, tail := chain[0], chain[len(chain)-1]
		var cand string
		candN := 0
		atTail := true
		for _, c := range names {
			if placed[c] {
				continue
			}
			if n := a.pair(table, tail, c); n > candN {
				cand, candN, atTail = c, n, true
			}
			if n := a.pair(table, head, c); n > candN {
				cand, candN, atTail = c, n, false
			}
		}
		if candN == 0 {
			break // rest keeps declaration order
		}
		placed[cand] = true
		if atTail {
			chain = append(chain, cand)
		} else {
			chain = append([]string{cand}, chain...)
		}
	}
	out := make([]Column, 0, len(cols))
	for _, c := range chain {
		out = append(out, byName[c])
	}
	for _, c := range cols {
		if !placed[strings.ToLower(c.Name)] {
			out = append(out, c)
		}
	}
	return out
}
