package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/sql"
)

// VerticalLayout is the Figure 12 comparison baseline: logical tables
// are partitioned into exactly the same chunks as ChunkLayout, but each
// (table, chunk) pair gets its own physical table instead of being
// folded into shared chunk tables. Chunk identification moves from the
// Chunk data column into the physical table name — narrower rows, but
// the table count (and hence the meta-data tax) grows with the number
// of logical tables times chunks.
type VerticalLayout struct {
	s    *state
	defs []*ChunkTableDef

	mu      sync.Mutex
	created map[string]bool // physical tables already created
}

// NewVerticalLayout builds the layout; defs defaults like ChunkLayout.
func NewVerticalLayout(schema *Schema, defs []*ChunkTableDef) (*VerticalLayout, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if len(defs) == 0 {
		defs = UniformChunkDefs(schema, 4)
	}
	return &VerticalLayout{s: newState(schema), defs: defs, created: map[string]bool{}}, nil
}

// Name implements Layout.
func (l *VerticalLayout) Name() string { return "vertical" }

// Schema implements Layout.
func (l *VerticalLayout) Schema() *Schema { return l.s.schema }

func (l *VerticalLayout) state() *state { return l.s }

// Create implements Layout.
func (l *VerticalLayout) Create(db *engine.DB, tenants []*Tenant) error {
	for _, tn := range tenants {
		if err := l.AddTenant(db, tn); err != nil {
			return err
		}
	}
	return nil
}

// AddTenant implements Layout: computes assignments and creates any
// missing per-chunk tables (tenants with the same extension profile
// share them).
func (l *VerticalLayout) AddTenant(db *engine.DB, t *Tenant) error {
	return registerTenant(l, db, t)
}

// ExtendTenant enables an extension on-line: new chunks get new
// physical tables.
func (l *VerticalLayout) ExtendTenant(db *engine.DB, tenantID int64, extName string) error {
	return extendTenant(l, db, tenantID, extName)
}

// Rewrite implements Layout.
func (l *VerticalLayout) Rewrite(tenantID int64, st sql.Statement) (*Rewritten, error) {
	return genericRewrite(fragmentRows{l}, tenantID, st)
}

// fragments implements reconstructor: ChunkLayout's chunks, but each
// (table, chunk) pair is a physical table of its own — created here if
// it does not exist yet — and the only meta-data conjunct is Tenant.
func (l *VerticalLayout) fragments(db *engine.DB, tn *Tenant, table *Table, have []*fragment) ([]*fragment, error) {
	cols, err := l.s.schema.LogicalColumns(tn, table.Name)
	if err != nil {
		return nil, err
	}
	groups, err := assignColumns(unplaced(cols, have), l.defs, len(have))
	if err != nil {
		return nil, err
	}
	tid, err := l.s.tableID(table.Name)
	if err != nil {
		return nil, err
	}
	out := append([]*fragment(nil), have...)
	for _, g := range groups {
		name := fmt.Sprintf("%s_%d_%d", g.Def.Name, tid, g.ID)
		if err := l.ensureTable(db, g.Def, name); err != nil {
			return nil, err
		}
		out = append(out, g.fragment(name, []metaEq{{"Tenant", tn.ID}}, ""))
	}
	return out, nil
}

func (l *VerticalLayout) ensureTable(db *engine.DB, def *ChunkTableDef, name string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.created[strings.ToLower(name)] {
		return nil
	}
	cols := conventionalMeta()
	phys := def.PhysCols()
	for i, t := range def.Cols {
		cols = append(cols, Column{Name: phys[i], Type: t})
	}
	if _, err := db.Exec(buildCreateTable(name, cols)); err != nil {
		return err
	}
	if _, err := db.Exec(fmt.Sprintf("CREATE UNIQUE INDEX %s_tr ON %s (Tenant, Row)", name, name)); err != nil {
		return err
	}
	if def.ValueIndex {
		for _, pc := range phys {
			if _, err := db.Exec(fmt.Sprintf("CREATE INDEX %s_v%s ON %s (Tenant, %s)", name, pc, name, pc)); err != nil {
				return err
			}
		}
	}
	l.created[strings.ToLower(name)] = true
	return nil
}
