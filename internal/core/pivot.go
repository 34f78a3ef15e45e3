package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/types"
)

// PivotLayout (Fig 4d) stores one physical row per logical *cell* in
// typed pivot tables keyed by (Tenant, Table, Col, Row). Reconstructing
// an n-column logical table costs n-1 aligning self-joins — the
// overhead the paper's §6 experiments quantify at chunk width 1.
//
// That is what it is to the rewriter: a chunk layout whose chunks are
// one column wide, with Col as the chunk id. Its one difference is that
// a NULL cell is not stored, so every nullable column is a sparse
// fragment (see fragment.sparse).
//
// Following §3, a separate indexed flavor of each typed pivot table can
// be created; cells of Indexed logical columns are routed there so they
// gain a value index without taxing the rest.
type PivotLayout struct {
	s               *state
	separateIndexed bool
}

// NewPivotLayout builds the layout. separateIndexed enables the
// indexed pivot-table flavors for Indexed logical columns.
func NewPivotLayout(schema *Schema, separateIndexed bool) (*PivotLayout, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	return &PivotLayout{s: newState(schema), separateIndexed: separateIndexed}, nil
}

// Name implements Layout.
func (l *PivotLayout) Name() string { return "pivot" }

// Schema implements Layout.
func (l *PivotLayout) Schema() *Schema { return l.s.schema }

func (l *PivotLayout) state() *state { return l.s }

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

// Create implements Layout.
func (l *PivotLayout) Create(db *engine.DB, tenants []*Tenant) error {
	variants := []string{""}
	if l.separateIndexed {
		variants = append(variants, "_ix")
	}
	for _, k := range []types.Kind{types.KindInt, types.KindFloat, types.KindString} {
		suffix, valCol, valType := storageKind(k)
		for _, variant := range variants {
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
			for _, d := range ddl {
				if _, err := db.Exec(d); err != nil {
					return err
				}
			}
		}
	}
	return addTenants(l, db, tenants)
}

// AddTenant implements Layout: meta-data only.
func (l *PivotLayout) AddTenant(db *engine.DB, t *Tenant) error {
	return registerTenant(l, db, t)
}

// ExtendTenant enables an extension on-line: pure meta-data (a cell
// that was never written reads NULL).
func (l *PivotLayout) ExtendTenant(db *engine.DB, tenantID int64, extName string) error {
	return extendTenant(l, db, tenantID, extName)
}

// Rewrite implements Layout.
func (l *PivotLayout) Rewrite(tenantID int64, st sql.Statement) (*Rewritten, error) {
	return genericRewrite(l, tenantID, st)
}

// fragments implements reconstructor: one fragment per logical column,
// its cells in the typed pivot table (the _ix flavor for an Indexed
// column) under Col = the column's position in the tenant's view. An
// extension's columns come after the base table's and the earlier
// extensions', so placing afresh never renumbers a stored column. A
// nullable column's fragment is sparse: a NULL cell is not stored.
func (l *PivotLayout) fragments(_ *engine.DB, tn *Tenant, table *Table, _ []*fragment) ([]*fragment, error) {
	cols, err := l.s.schema.logicalColumns(tn, table)
	if err != nil {
		return nil, err
	}
	tid, err := l.s.tableID(table.Name)
	if err != nil {
		return nil, err
	}
	out := make([]*fragment, len(cols))
	for i, c := range cols {
		suffix, valCol, valType := storageKind(c.Type.Kind)
		name := "Pivot_" + suffix
		if l.separateIndexed && c.Indexed {
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
