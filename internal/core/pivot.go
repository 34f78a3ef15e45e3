package core

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/types"
)

// PivotLayout (Fig 4d) stores one physical row per logical *cell* in
// typed pivot tables keyed by (Tenant, Table, Col, Row). Reconstructing
// an n-column logical table costs n-1 aligning self-joins — the
// overhead the paper's §6 experiments quantify at chunk width 1.
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

// pivotTableFor names the pivot table holding a column's cells.
func (l *PivotLayout) pivotTableFor(c Column) (name, valCol string) {
	suffix, valCol, _ := storageKind(c.Type.Kind)
	name = "Pivot_" + suffix
	if l.separateIndexed && c.Indexed {
		name += "_ix"
	}
	return name, valCol
}

// castBack wraps a stored value expression with the cast restoring the
// logical type, when they differ.
func castBack(e sql.Expr, c Column) sql.Expr {
	switch c.Type.Kind {
	case types.KindDate, types.KindBool:
		return &sql.CastExpr{X: e, Type: c.Type}
	}
	return e
}

// Create implements Layout.
func (l *PivotLayout) Create(db *engine.DB, tenants []*Tenant) error {
	flavors := []struct {
		suffix, valCol string
		valType        types.ColumnType
	}{
		{"int", "Int", types.IntType},
		{"dbl", "Dbl", types.FloatType},
		{"str", "Str", types.ColumnType{Kind: types.KindString}},
	}
	variants := []bool{false}
	if l.separateIndexed {
		variants = append(variants, true)
	}
	for _, f := range flavors {
		for _, indexed := range variants {
			name := "Pivot_" + f.suffix
			if indexed {
				name += "_ix"
			}
			cols := []Column{
				{Name: "Tenant", Type: types.IntType, NotNull: true},
				{Name: "Table", Type: types.IntType, NotNull: true},
				{Name: "Col", Type: types.IntType, NotNull: true},
				{Name: "Row", Type: types.IntType, NotNull: true},
				{Name: f.valCol, Type: f.valType},
			}
			if _, err := db.Exec(buildCreateTable(name, cols)); err != nil {
				return err
			}
			// The meta-data index: a partitioned B-tree on (Tenant,
			// Table, Col, Row), per §6.1's base-table access argument.
			ddl := fmt.Sprintf("CREATE UNIQUE INDEX %s_tcr ON %s (Tenant, Table, Col, Row)", name, name)
			if _, err := db.Exec(ddl); err != nil {
				return err
			}
			if indexed {
				ddl := fmt.Sprintf("CREATE INDEX %s_val ON %s (Tenant, Table, Col, %s)", name, name, f.valCol)
				if _, err := db.Exec(ddl); err != nil {
					return err
				}
			}
		}
	}
	for _, tn := range tenants {
		if err := l.AddTenant(db, tn); err != nil {
			return err
		}
	}
	return nil
}

// AddTenant implements Layout: meta-data only.
func (l *PivotLayout) AddTenant(_ *engine.DB, t *Tenant) error {
	return l.s.addTenant(t, nil)
}

// ExtendTenant enables an extension on-line: pure meta-data (a cell
// that was never written reads NULL).
func (l *PivotLayout) ExtendTenant(_ *engine.DB, tenantID int64, extName string) error {
	tn, ext, err := l.s.extensible(tenantID, extName)
	if err != nil {
		return err
	}
	return l.s.extend(tn, ext, nil)
}

// Rewrite implements Layout.
func (l *PivotLayout) Rewrite(tenantID int64, st sql.Statement) (*Rewritten, error) {
	return genericRewrite(l, tenantID, st)
}

// colOrdinal returns the pivot Col number of a logical column.
func (l *PivotLayout) colOrdinal(tn *Tenant, table *Table, col string) (int, Column, error) {
	v, err := l.s.view(tn, table)
	if err != nil {
		return 0, Column{}, err
	}
	if i, ok := v.find(col); ok {
		return i, v.cols[i], nil
	}
	return 0, Column{}, fmt.Errorf("core: no column %s in %s for tenant %d", col, table.Name, tn.ID)
}

// reconstruct implements reconstructor: the key column's cell anchors
// the row; every other referenced column contributes one aligning join
// on Row (LEFT for nullable columns, whose cells may be absent).
func (l *PivotLayout) reconstruct(tn *Tenant, table *Table, used []Column, withRow bool) (*sql.SelectStmt, error) {
	tid, err := l.s.tableID(table.Name)
	if err != nil {
		return nil, err
	}
	// The key column must anchor; move it to the front.
	ordered := append([]Column(nil), used...)
	for i, c := range ordered {
		if strings.EqualFold(c.Name, table.Key) {
			ordered[0], ordered[i] = ordered[i], ordered[0]
			break
		}
	}
	if !strings.EqualFold(ordered[0].Name, table.Key) {
		return nil, fmt.Errorf("core: pivot reconstruction of %s lacks key %s", table.Name, table.Key)
	}

	sel := &sql.SelectStmt{}
	var from sql.TableRef
	for i, c := range ordered {
		alias := fmt.Sprintf("p%d", i)
		ord, _, err := l.colOrdinal(tn, table, c.Name)
		if err != nil {
			return nil, err
		}
		phys, valCol := l.pivotTableFor(c)
		meta := and(
			eq(colRef(alias, "Tenant"), intLit(tn.ID)),
			eq(colRef(alias, "Table"), intLit(int64(tid))),
			eq(colRef(alias, "Col"), intLit(int64(ord))),
		)
		ref := &sql.NamedTable{Name: phys, Alias: alias}
		if i == 0 {
			from = ref
			sel.Where = meta
		} else {
			jt := sql.InnerJoin
			if !c.NotNull {
				jt = sql.LeftJoin
			}
			on := and(meta, eq(colRef(alias, "Row"), colRef("p0", "Row")))
			from = &sql.JoinTable{Left: from, Right: ref, Type: jt, On: on}
		}
		sel.Items = append(sel.Items, sql.SelectItem{
			Expr:  castBack(colRef(alias, valCol), c),
			Alias: c.Name,
		})
	}
	// Restore the caller's column order.
	if !strings.EqualFold(used[0].Name, ordered[0].Name) {
		reordered := make([]sql.SelectItem, len(used))
		for i, c := range used {
			for _, it := range sel.Items {
				if strings.EqualFold(it.Alias, c.Name) {
					reordered[i] = it
					break
				}
			}
		}
		sel.Items = reordered
	}
	if withRow {
		sel.Items = append(sel.Items, sql.SelectItem{Expr: colRef("p0", "Row"), Alias: rowCol})
	}
	sel.From = []sql.TableRef{from}
	return sel, nil
}

// cellValue converts a logical value expression for storage: dates and
// booleans become integers.
func cellValue(e sql.Expr, c Column) sql.Expr {
	switch c.Type.Kind {
	case types.KindDate, types.KindBool:
		return &sql.CastExpr{X: e, Type: types.IntType}
	}
	return e
}

// insertRows implements reconstructor: one physical insert per cell,
// batched per pivot table. Literal NULL cells are simply not stored.
func (l *PivotLayout) insertRows(tn *Tenant, table *Table, cols []Column, rows [][]sql.Expr) ([]sql.Statement, error) {
	tid, err := l.s.tableID(table.Name)
	if err != nil {
		return nil, err
	}
	firstRow := l.s.nextRows(tn.ID, table, int64(len(rows)))
	stmts := map[string]*sql.InsertStmt{}
	var order []string
	for ri, row := range rows {
		rowID := firstRow + int64(ri)
		for i, c := range cols {
			if litE, isLit := row[i].(*sql.Literal); isLit && litE.Val.IsNull() {
				continue // pivot tables do not store NULL cells
			}
			ord, _, err := l.colOrdinal(tn, table, c.Name)
			if err != nil {
				return nil, err
			}
			phys, valCol := l.pivotTableFor(c)
			st, ok := stmts[phys]
			if !ok {
				st = &sql.InsertStmt{Table: phys, Columns: []string{"Tenant", "Table", "Col", "Row", valCol}}
				stmts[phys] = st
				order = append(order, phys)
			}
			st.Rows = append(st.Rows, []sql.Expr{
				intLit(tn.ID), intLit(int64(tid)), intLit(int64(ord)), intLit(rowID),
				cellValue(row[i], c),
			})
		}
	}
	var out []sql.Statement
	for _, p := range order {
		out = append(out, stmts[p])
	}
	return out, nil
}

// storedValue converts a computed logical value for cell storage.
func storedValue(v types.Value) types.Value {
	switch v.Kind {
	case types.KindDate, types.KindBool:
		return types.NewInt(v.Int)
	}
	return v
}

// phaseBUpdate implements reconstructor: a cell update is a DELETE of
// the old cell plus an INSERT of the new one (which also handles
// NULL↔value transitions, since NULL cells are absent).
func (l *PivotLayout) phaseBUpdate(tn *Tenant, table *Table, setCols []Column, rows [][]types.Value) []sql.Statement {
	tid, _ := l.s.tableID(table.Name)
	var out []sql.Statement
	for i, c := range setCols {
		ord, _, err := l.colOrdinal(tn, table, c.Name)
		if err != nil {
			continue
		}
		phys, valCol := l.pivotTableFor(c)
		meta := and(
			eq(colRef("", "Tenant"), intLit(tn.ID)),
			eq(colRef("", "Table"), intLit(int64(tid))),
			eq(colRef("", "Col"), intLit(int64(ord))),
		)
		out = append(out, &sql.DeleteStmt{
			Table: phys,
			Where: and(meta, inList(colRef("", "Row"), column(rows, 0))),
		})
		ins := &sql.InsertStmt{Table: phys, Columns: []string{"Tenant", "Table", "Col", "Row", valCol}}
		for _, r := range rows {
			v := r[i+1]
			if v.IsNull() {
				continue
			}
			ins.Rows = append(ins.Rows, []sql.Expr{
				intLit(tn.ID), intLit(int64(tid)), intLit(int64(ord)), lit(r[0]), lit(storedValue(v)),
			})
		}
		if len(ins.Rows) > 0 {
			out = append(out, ins)
		}
	}
	return out
}

// direct implements rowMapping: a logical row's cells are rows of their
// own, so no UPDATE or DELETE is one physical statement.
func (l *PivotLayout) direct(*Tenant, *Table, string, []sql.Assignment, []Column, sql.Expr) sql.Statement {
	return nil
}

// phaseBDelete implements reconstructor: remove every cell of the
// affected rows from every pivot table the tenant's table uses.
func (l *PivotLayout) phaseBDelete(tn *Tenant, table *Table, rows [][]types.Value) []sql.Statement {
	tid, _ := l.s.tableID(table.Name)
	v, err := l.s.view(tn, table)
	if err != nil {
		return nil
	}
	seen := map[string]bool{}
	var out []sql.Statement
	for _, c := range v.cols {
		phys, _ := l.pivotTableFor(c)
		if seen[phys] {
			continue
		}
		seen[phys] = true
		out = append(out, &sql.DeleteStmt{
			Table: phys,
			Where: and(
				eq(colRef("", "Tenant"), intLit(tn.ID)),
				eq(colRef("", "Table"), intLit(int64(tid))),
				inList(colRef("", "Row"), column(rows, 0)),
			),
		})
	}
	return out
}
