package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/types"
)

// UniversalLayout (Fig 4c) maps every logical table of every tenant
// into one wide generic table with Tenant, Table, and Row meta-data
// columns and N flexible VARCHAR data columns; the n-th logical column
// of a tenant's table lands in the n-th data column. No reconstruction
// joins are needed, but rows are wide, NULL-heavy, and per-column
// indexing is impossible — the trade-offs §3 discusses.
type UniversalLayout struct {
	s     *state
	width int
}

// DefaultUniversalWidth is the number of generic data columns when the
// option is not set.
const DefaultUniversalWidth = 64

// NewUniversalLayout builds the layout; width is the number of generic
// data columns (DefaultUniversalWidth if <= 0).
func NewUniversalLayout(schema *Schema, width int) (*UniversalLayout, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if width <= 0 {
		width = DefaultUniversalWidth
	}
	return &UniversalLayout{s: newState(schema), width: width}, nil
}

// Name implements Layout.
func (l *UniversalLayout) Name() string { return "universal" }

// Schema implements Layout.
func (l *UniversalLayout) Schema() *Schema { return l.s.schema }

func (l *UniversalLayout) state() *state { return l.s }

// dataCol names the i-th (0-based) generic data column.
func dataCol(i int) string { return fmt.Sprintf("Col%d", i+1) }

// Create implements Layout.
func (l *UniversalLayout) Create(db *engine.DB, tenants []*Tenant) error {
	cols := []Column{
		{Name: "Tenant", Type: types.IntType, NotNull: true},
		{Name: "Table", Type: types.IntType, NotNull: true},
		{Name: "Row", Type: types.IntType, NotNull: true},
	}
	for i := 0; i < l.width; i++ {
		cols = append(cols, Column{Name: dataCol(i), Type: types.ColumnType{Kind: types.KindString}})
	}
	if _, err := db.Exec(buildCreateTable("Universal", cols)); err != nil {
		return err
	}
	if _, err := db.Exec("CREATE UNIQUE INDEX universal_ttr ON Universal (Tenant, Table, Row)"); err != nil {
		return err
	}
	return addTenants(l, db, tenants)
}

// AddTenant implements Layout: meta-data only, after checking every
// logical table fits the generic width.
func (l *UniversalLayout) AddTenant(db *engine.DB, t *Tenant) error {
	return registerTenant(l, db, t)
}

// ExtendTenant enables an extension on-line: pure meta-data (new
// columns occupy the next data-column positions; existing rows read
// NULL there).
func (l *UniversalLayout) ExtendTenant(db *engine.DB, tenantID int64, extName string) error {
	return extendTenant(l, db, tenantID, extName)
}

// Rewrite implements Layout.
func (l *UniversalLayout) Rewrite(tenantID int64, st sql.Statement) (*Rewritten, error) {
	return genericRewrite(l, tenantID, st)
}

// fragments implements reconstructor: one fragment, the tenant's n-th
// logical column in the n-th VARCHAR data column — so reconstruction is
// a single selection with CASTs restoring the logical types, and writes
// rely on the engine coercing into VARCHAR (dates and booleans
// serialize via their string forms).
func (l *UniversalLayout) fragments(_ *engine.DB, tn *Tenant, table *Table, _ []*fragment) ([]*fragment, error) {
	cols, err := l.s.schema.logicalColumns(tn, table)
	if err != nil {
		return nil, err
	}
	if len(cols) > l.width {
		return nil, fmt.Errorf("core: tenant %d table %s needs %d columns, universal width is %d",
			tn.ID, table.Name, len(cols), l.width)
	}
	tid, err := l.s.tableID(table.Name)
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
