package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/engine"
)

// NewVerticalLayout builds the Figure 12 comparison baseline: logical
// tables are partitioned into exactly the same chunks as the chunk
// layout's (defs defaults like NewChunkLayout's), but each (table,
// chunk) pair gets its own physical table instead of being folded into
// shared chunk tables. Chunk identification moves from the Chunk data
// column into the physical table name — narrower rows, but the table
// count (and hence the meta-data tax) grows with the number of logical
// tables times chunks.
//
// The policy creates each per-chunk table the first time a placement
// needs it (tenants with the same extension profile share them; an
// extension's new chunks get new tables), and the only meta-data
// conjunct is Tenant.
func NewVerticalLayout(schema *Schema, defs []*ChunkTableDef) (*FragmentLayout, error) {
	l, err := newFragmentLayout("vertical", schema)
	if err != nil {
		return nil, err
	}
	if len(defs) == 0 {
		defs = UniformChunkDefs(schema, 4)
	}
	var mu sync.Mutex
	created := map[string]bool{} // physical tables already created
	ensureTable := func(db *engine.DB, def *ChunkTableDef, name string) error {
		mu.Lock()
		defer mu.Unlock()
		if created[strings.ToLower(name)] {
			return nil
		}
		if err := createChunkTable(db, name, def, conventionalMeta(), "tr", false); err != nil {
			return err
		}
		created[strings.ToLower(name)] = true
		return nil
	}
	l.fragments = func(db *engine.DB, tn *Tenant, table *Table, have []*fragment) ([]*fragment, error) {
		cols, err := schema.logicalColumns(tn, table)
		if err != nil {
			return nil, err
		}
		groups, err := assignColumns(unplaced(cols, have), defs, len(have))
		if err != nil {
			return nil, err
		}
		tid, err := l.st.tableID(table.Name)
		if err != nil {
			return nil, err
		}
		out := append([]*fragment(nil), have...)
		for _, g := range groups {
			name := fmt.Sprintf("%s_%d_%d", g.Def.Name, tid, g.ID)
			if err := ensureTable(db, g.Def, name); err != nil {
				return nil, err
			}
			out = append(out, g.fragment(name, []metaEq{tenantMeta}, ""))
		}
		return out, nil
	}
	return l, nil
}
