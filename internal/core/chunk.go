package core

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/types"
)

// ChunkOptions configures a chunk layout (NewChunkLayout).
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

// NewChunkLayout (Fig 4e) folds vertical partitions of all tenants'
// logical tables into a fixed set of generic, typed chunk tables keyed
// by (Tenant, Table, Chunk, Row).
//
// A logical table is placed as one fragment per chunk. The columns a
// placement lacks are assigned to new chunks numbered after its last,
// so enabling an extension on-line never disturbs stored data: it
// back-fills spine rows in the new chunks for the tenant's existing
// logical rows, and runs no DDL.
func NewChunkLayout(schema *Schema, opt ChunkOptions) (*FragmentLayout, error) {
	l, err := newFragmentLayout("chunk", schema)
	if err != nil {
		return nil, err
	}
	if len(opt.Defs) == 0 {
		opt.Defs = UniformChunkDefs(schema, 4)
	}
	l.flat, l.metaFirst = opt.Flattened, opt.MetadataFirst
	l.create = func(db *engine.DB) error {
		return createChunkTables(db, opt.Defs, opt.Trashcan)
	}
	del := ""
	if opt.Trashcan {
		del = delCol
	}
	l.fragments = func(_ *engine.DB, tn *Tenant, table *Table, have []*fragment) ([]*fragment, error) {
		cols, err := schema.logicalColumns(tn, table)
		if err != nil {
			return nil, err
		}
		cols = unplaced(cols, have)
		if opt.Affinity != nil {
			cols = opt.Affinity.OrderColumns(table.Name, cols)
		}
		groups, err := assignColumns(cols, opt.Defs, len(have))
		if err != nil {
			return nil, err
		}
		tid, err := l.st.tableID(table.Name)
		if err != nil {
			return nil, err
		}
		return append(append([]*fragment(nil), have...), foldedChunks(groups, tid, del)...), nil
	}
	return l, nil
}

// delCol is the invisibility marker column used in Trashcan mode.
const delCol = "Del"

// createChunkTables provisions the shared chunk tables of the chunk and
// chunk-folding layouts, keyed by (Tenant, Table, Chunk, Row).
func createChunkTables(db *engine.DB, defs []*ChunkTableDef, trashcan bool) error {
	for _, d := range defs {
		if err := createChunkTable(db, d.Name, d, chunkMetaCols(), "tcr", trashcan); err != nil {
			return err
		}
	}
	return nil
}

// createChunkTable issues the DDL of one table of shape def under the
// meta-data columns meta (and a Trashcan marker where del is set): the
// table, its unique meta-data index name_pk, and for a ValueIndex def a
// value index per data column under meta without Row.
func createChunkTable(db *engine.DB, name string, def *ChunkTableDef, meta []Column, pk string, del bool) error {
	names := make([]string, len(meta))
	for i, c := range meta {
		names[i] = c.Name
	}
	cols := append([]Column(nil), meta...)
	if del {
		cols = append(cols, Column{Name: delCol, Type: types.IntType})
	}
	phys := def.PhysCols()
	for i, t := range def.Cols {
		cols = append(cols, Column{Name: phys[i], Type: t})
	}
	ddl := []string{
		buildCreateTable(name, cols),
		fmt.Sprintf("CREATE UNIQUE INDEX %s_%s ON %s (%s)", name, pk, name, strings.Join(names, ", ")),
	}
	if def.ValueIndex {
		prefix := strings.Join(names[:len(names)-1], ", ")
		for _, pc := range phys {
			ddl = append(ddl, fmt.Sprintf("CREATE INDEX %s_v%s ON %s (%s, %s)", name, pc, name, prefix, pc))
		}
	}
	return execAll(db, ddl)
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
