package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/types"
)

// NewPivotLayout (Fig 4d) stores one physical row per logical *cell* in
// typed pivot tables keyed by (Tenant, Table, Col, Row). Reconstructing
// an n-column logical table costs n-1 aligning self-joins — the
// overhead the paper's §6 experiments quantify at chunk width 1.
//
// That is what it is to the rewriter: a chunk layout whose chunks are
// one column wide, with Col as the chunk id. Its one difference is that
// a NULL cell is not stored, so every nullable column is a sparse
// fragment (see fragment.sparse).
//
// Following §3, each typed pivot table has a separate indexed flavor
// (_ix); cells of Indexed logical columns are routed there so they gain
// a value index without taxing the rest.
func NewPivotLayout(schema *Schema) (*FragmentLayout, error) {
	l, err := newFragmentLayout("pivot", schema)
	if err != nil {
		return nil, err
	}
	l.create = createPivotTables
	// One fragment per logical column, its cells in the typed pivot table
	// (the _ix flavor for an Indexed column) under Col = the column's
	// position in the tenant's view. An extension's columns come after the
	// base table's and the earlier extensions', so placing afresh never
	// renumbers a stored column, and enabling one is pure meta-data (a
	// cell that was never written reads NULL).
	l.fragments = func(_ *engine.DB, tn *Tenant, table *Table, _ []*fragment) ([]*fragment, error) {
		cols, err := schema.logicalColumns(tn, table)
		if err != nil {
			return nil, err
		}
		tid, err := l.st.tableID(table.Name)
		if err != nil {
			return nil, err
		}
		out := make([]*fragment, len(cols))
		for i, c := range cols {
			suffix, valCol, valType := storageKind(c.Type.Kind)
			name := "Pivot_" + suffix
			if c.Indexed {
				name += "_ix"
			}
			out[i] = &fragment{
				table:  name,
				meta:   []metaEq{tenantMeta, {"Table", int64(tid)}, {"Col", int64(i)}},
				cols:   []fragCol{{Column: c, phys: valCol, store: valType}},
				sparse: !c.NotNull,
			}
		}
		return out, nil
	}
	return l, nil
}

// storageKind maps a logical type onto a pivot value type: integers,
// dates, and booleans share the int pivot; floats and strings get their
// own. (The paper's example uses int|str; dbl is the same idea.)
func storageKind(k types.Kind) (suffix, valCol string, valType types.ColumnType) {
	switch k {
	case types.KindInt, types.KindDate, types.KindBool:
		return "int", "Int", types.IntType
	case types.KindFloat:
		return "dbl", "Dbl", types.FloatType
	default:
		return "str", "Str", types.ColumnType{Kind: types.KindString}
	}
}

// createPivotTables provisions the typed pivot tables, each plain and in
// its indexed flavor.
func createPivotTables(db *engine.DB) error {
	for _, k := range []types.Kind{types.KindInt, types.KindFloat, types.KindString} {
		suffix, valCol, valType := storageKind(k)
		for _, variant := range []string{"", "_ix"} {
			name := "Pivot_" + suffix + variant
			cols := []Column{
				{Name: "Tenant", Type: types.IntType, NotNull: true},
				{Name: "Table", Type: types.IntType, NotNull: true},
				{Name: "Col", Type: types.IntType, NotNull: true},
				{Name: "Row", Type: types.IntType, NotNull: true},
				{Name: valCol, Type: valType},
			}
			ddl := []string{
				buildCreateTable(name, cols),
				// The meta-data index: a partitioned B-tree on (Tenant,
				// Table, Col, Row), per §6.1's base-table access argument.
				fmt.Sprintf("CREATE UNIQUE INDEX %s_tcr ON %s (Tenant, Table, Col, Row)", name, name),
			}
			if variant != "" {
				ddl = append(ddl, fmt.Sprintf("CREATE INDEX %s_val ON %s (Tenant, Table, Col, %s)", name, name, valCol))
			}
			if err := execAll(db, ddl); err != nil {
				return err
			}
		}
	}
	return nil
}
