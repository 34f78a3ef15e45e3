package core

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/types"
)

// ChunkOptions configures a ChunkLayout.
type ChunkOptions struct {
	// Defs are the chunk-table shapes available to the assignment
	// algorithm. When empty, UniformChunkDefs(schema, 4) is used.
	Defs []*ChunkTableDef
	// Flattened makes the transformation layer emit pre-flattened,
	// single-block SQL instead of the generic nested form — what the
	// paper's §6.1 prescribes for databases whose optimizer cannot
	// unnest derived tables (Test 1's MySQL case).
	Flattened bool
	// MetadataFirst orders the flattened WHERE clause with the
	// meta-data conjuncts (Tenant/Table/Chunk/Row) before the user's
	// predicates — the ordering that cost MySQL a factor of 5 in
	// Test 1. The default puts user predicates first.
	MetadataFirst bool
	// Trashcan turns deletes into updates that mark every chunk of the
	// row invisible (§6.3), enabling restore.
	Trashcan bool
	// Affinity, when set, makes chunk assignment workload-aware:
	// columns the observed query log co-accesses are packed into the
	// same chunks (the paper's §7 ongoing-work goal). Collect the
	// statistics with NewAffinity + ObserveSQL before registering
	// tenants.
	Affinity *Affinity
}

// ChunkLayout (Fig 4e) folds vertical partitions of all tenants'
// logical tables into a fixed set of generic, typed chunk tables keyed
// by (Tenant, Table, Chunk, Row).
type ChunkLayout struct {
	s   *state
	opt ChunkOptions
}

// NewChunkLayout builds the layout.
func NewChunkLayout(schema *Schema, opt ChunkOptions) (*ChunkLayout, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if len(opt.Defs) == 0 {
		opt.Defs = UniformChunkDefs(schema, 4)
	}
	return &ChunkLayout{s: newState(schema), opt: opt}, nil
}

// Name implements Layout.
func (l *ChunkLayout) Name() string { return "chunk" }

// Schema implements Layout.
func (l *ChunkLayout) Schema() *Schema { return l.s.schema }

func (l *ChunkLayout) state() *state { return l.s }

// Defs exposes the configured chunk-table shapes.
func (l *ChunkLayout) Defs() []*ChunkTableDef { return l.opt.Defs }

// delCol is the invisibility marker column used in Trashcan mode.
const delCol = "Del"

// createChunkTables issues the DDL for a set of chunk-table defs with
// the given meta columns and index prefix; shared by the chunk,
// vertical-partitioning, and chunk-folding layouts.
func createChunkTables(db *engine.DB, defs []*ChunkTableDef, metaCols []Column, trashcan bool) error {
	metaNames := make([]string, len(metaCols))
	for i, c := range metaCols {
		metaNames[i] = c.Name
	}
	prefix := strings.Join(metaNames, ", ")
	for _, d := range defs {
		cols := append([]Column{}, metaCols...)
		if trashcan {
			cols = append(cols, Column{Name: delCol, Type: types.IntType})
		}
		phys := d.PhysCols()
		for i, t := range d.Cols {
			cols = append(cols, Column{Name: phys[i], Type: t})
		}
		if _, err := db.Exec(buildCreateTable(d.Name, cols)); err != nil {
			return err
		}
		ddl := fmt.Sprintf("CREATE UNIQUE INDEX %s_tcr ON %s (%s)", d.Name, d.Name, prefix)
		if _, err := db.Exec(ddl); err != nil {
			return err
		}
		if d.ValueIndex {
			for _, pc := range phys {
				ddl := fmt.Sprintf("CREATE INDEX %s_v%s ON %s (%s, %s)", d.Name, pc, d.Name, prefix[:len(prefix)-len(", Row")], pc)
				if _, err := db.Exec(ddl); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// chunkMetaCols is the (Tenant, Table, Chunk, Row) meta-data column set
// of folded chunk tables.
func chunkMetaCols() []Column {
	return []Column{
		{Name: "Tenant", Type: types.IntType, NotNull: true},
		{Name: "Table", Type: types.IntType, NotNull: true},
		{Name: "Chunk", Type: types.IntType, NotNull: true},
		{Name: "Row", Type: types.IntType, NotNull: true},
	}
}

// Create implements Layout.
func (l *ChunkLayout) Create(db *engine.DB, tenants []*Tenant) error {
	if err := createChunkTables(db, l.opt.Defs, chunkMetaCols(), l.opt.Trashcan); err != nil {
		return err
	}
	return addTenants(l, db, tenants)
}

// AddTenant implements Layout: computes the tenant's chunk assignments;
// no DDL — the whole point of generic structures.
func (l *ChunkLayout) AddTenant(db *engine.DB, t *Tenant) error {
	return registerTenant(l, db, t)
}

// ExtendTenant enables an extension on-line: meta-data bookkeeping plus
// back-filling spine rows in the new chunks for the tenant's existing
// logical rows. No DDL runs.
func (l *ChunkLayout) ExtendTenant(db *engine.DB, tenantID int64, extName string) error {
	return extendTenant(l, db, tenantID, extName)
}

// fragments implements reconstructor: one fragment per chunk. The
// columns have lacks are assigned to new chunks numbered after its
// last, so an on-line extension never disturbs stored data.
func (l *ChunkLayout) fragments(_ *engine.DB, tn *Tenant, table *Table, have []*fragment) ([]*fragment, error) {
	cols, err := l.s.schema.logicalColumns(tn, table)
	if err != nil {
		return nil, err
	}
	cols = unplaced(cols, have)
	if l.opt.Affinity != nil {
		cols = l.opt.Affinity.OrderColumns(table.Name, cols)
	}
	groups, err := assignColumns(cols, l.opt.Defs, len(have))
	if err != nil {
		return nil, err
	}
	tid, err := l.s.tableID(table.Name)
	if err != nil {
		return nil, err
	}
	del := ""
	if l.opt.Trashcan {
		del = delCol
	}
	return append(append([]*fragment(nil), have...), foldedChunks(groups, tid, del)...), nil
}

// foldedChunks describes chunk groups folded into the shared chunk
// tables: the rows of (Tenant, Table, Chunk) in the group's table.
func foldedChunks(groups []*chunkGroup, tableID int, del string) []*fragment {
	out := make([]*fragment, len(groups))
	for i, g := range groups {
		meta := []metaEq{tenantMeta, {"Table", int64(tableID)}, {"Chunk", int64(g.ID)}}
		out[i] = g.fragment(g.Def.Name, meta, del)
	}
	return out
}

// Rewrite implements Layout.
func (l *ChunkLayout) Rewrite(tenantID int64, st sql.Statement) (*Rewritten, error) {
	if l.opt.Flattened {
		if sel, ok := st.(*sql.SelectStmt); ok {
			tn, err := l.s.tenant(tenantID)
			if err != nil {
				return nil, err
			}
			out, err := l.flattenedSelect(tn, sel)
			if err == nil {
				return &Rewritten{Query: out}, nil
			}
			if err != errNotFlattenable {
				return nil, err
			}
			// Fall through to the generic form.
		}
	}
	return genericRewrite(l, tenantID, st)
}

// RestoreRows un-deletes trashcanned logical rows (the Trashcan
// mechanism's raison d'être).
func (l *ChunkLayout) RestoreRows(db *engine.DB, tenantID int64, table string, rowIDs []types.Value) error {
	if !l.opt.Trashcan {
		return fmt.Errorf("core: trashcan is not enabled")
	}
	lt := l.s.schema.Table(table)
	if lt == nil {
		return fmt.Errorf("core: no logical table %s", table)
	}
	p, err := l.s.placement(tenantID, lt)
	if err != nil {
		return err
	}
	for _, f := range p.frags {
		up := &sql.UpdateStmt{
			Table: f.table,
			Set:   []sql.Assignment{{Column: f.del, Value: intLit(0)}},
			Where: and(append(f.where("", tenantID), inList(colRef("", "Row"), rowIDs))...),
		}
		if _, err := db.ExecStmt(up, ""); err != nil {
			return err
		}
	}
	return nil
}
