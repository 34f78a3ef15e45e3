package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/types"
)

// DefaultUniversalWidth is the number of generic data columns when the
// option is not set.
const DefaultUniversalWidth = 64

// NewUniversalLayout (Fig 4c) maps every logical table of every tenant
// into one wide generic table with Tenant, Table, and Row meta-data
// columns and width flexible VARCHAR data columns (DefaultUniversalWidth
// if <= 0). No reconstruction joins are needed, but rows are wide,
// NULL-heavy, and per-column indexing is impossible — the trade-offs §3
// discusses.
//
// A logical table is one fragment, the tenant's n-th logical column in
// the n-th data column — so reconstruction is a single selection with
// CASTs restoring the logical types, and writes rely on the engine
// coercing into VARCHAR (dates and booleans serialize via their string
// forms). A table wider than the generic width is refused; enabling an
// extension is pure meta-data (new columns occupy the next data-column
// positions; existing rows read NULL there).
func NewUniversalLayout(schema *Schema, width int) (*FragmentLayout, error) {
	l, err := newFragmentLayout("universal", schema)
	if err != nil {
		return nil, err
	}
	if width <= 0 {
		width = DefaultUniversalWidth
	}
	l.create = func(db *engine.DB) error {
		cols := []Column{
			{Name: "Tenant", Type: types.IntType, NotNull: true},
			{Name: "Table", Type: types.IntType, NotNull: true},
			{Name: "Row", Type: types.IntType, NotNull: true},
		}
		for i := 0; i < width; i++ {
			cols = append(cols, Column{Name: dataCol(i), Type: types.ColumnType{Kind: types.KindString}})
		}
		return execAll(db, []string{
			buildCreateTable("Universal", cols),
			"CREATE UNIQUE INDEX universal_ttr ON Universal (Tenant, Table, Row)",
		})
	}
	l.fragments = func(_ *engine.DB, tn *Tenant, table *Table, _ []*fragment) ([]*fragment, error) {
		cols, err := schema.logicalColumns(tn, table)
		if err != nil {
			return nil, err
		}
		if len(cols) > width {
			return nil, fmt.Errorf("core: tenant %d table %s needs %d columns, universal width is %d",
				tn.ID, table.Name, len(cols), width)
		}
		tid, err := l.st.tableID(table.Name)
		if err != nil {
			return nil, err
		}
		f := &fragment{
			table: "Universal",
			meta:  []metaEq{tenantMeta, {"Table", int64(tid)}},
			cols:  make([]fragCol, len(cols)),
		}
		for i, c := range cols {
			f.cols[i] = fragCol{Column: c, phys: dataCol(i), store: types.ColumnType{Kind: types.KindString}}
		}
		return []*fragment{f}, nil
	}
	return l, nil
}

// dataCol names the i-th (0-based) generic data column.
func dataCol(i int) string { return fmt.Sprintf("Col%d", i+1) }
