package core

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/types"
)

// The paper has one transformation scheme (§6.1 queries, §6.3 DML), and
// in it the parts of a logical row meet only in the Row meta-column
// (§6.4). The Extension, Universal, Chunk, Chunk Folding and Vertical
// layouts are that scheme over different answers to one question: in
// which physical tables does a tenant's logical table live? A fragment
// is one such table's share. A layout answers with a list of fragments
// when a tenant is added or extended; generic.go does everything else.

// metaEq is one meta-data equality: rows of the fragment have val in
// the meta-column col.
type metaEq struct {
	col string
	val int64
}

// fragCol is one logical column as a fragment stores it.
type fragCol struct {
	Column        // the logical column
	phys   string // physical column holding it
	// store is the physical column's type. Where its kind differs from
	// the logical kind, reads cast back and writes convert (see writes).
	store types.ColumnType
}

// fragment is one physical table's share of a tenant's logical table:
// the rows selected by meta, aligned with the other fragments on Row.
type fragment struct {
	table string
	// meta selects the tenant's rows of the logical table, in the order
	// of the table's meta-data index: Tenant, or Tenant, Table[, Chunk].
	meta []metaEq
	// del names the invisibility marker column of a Trashcan fragment
	// (§6.3): rows carry 0 while live, a delete writes 1. "" means rows
	// are deleted for real.
	del  string
	cols []fragCol
}

// chunk returns the value of the fragment's Chunk meta-column, if it
// has one.
func (f *fragment) chunk() (int64, bool) {
	if last := f.meta[len(f.meta)-1]; last.col == "Chunk" {
		return last.val, true
	}
	return 0, false
}

// sameRows reports whether g holds the same physical rows as f.
func (f *fragment) sameRows(g *fragment) bool {
	if !strings.EqualFold(f.table, g.table) || len(f.meta) != len(g.meta) {
		return false
	}
	for i, m := range f.meta {
		if m != g.meta[i] {
			return false
		}
	}
	return true
}

// where builds the meta-data conjuncts over a table alias ("" in DML).
func (f *fragment) where(alias string) []sql.Expr {
	out := make([]sql.Expr, len(f.meta), len(f.meta)+1)
	for i, m := range f.meta {
		out[i] = eq(colRef(alias, m.col), intLit(m.val))
	}
	return out
}

// live is the conjunct that hides trashcanned rows; nil without a
// marker column.
func (f *fragment) live(alias string) sql.Expr {
	if f.del == "" {
		return nil
	}
	return eq(colRef(alias, f.del), intLit(0))
}

// remove is the statement that deletes the fragment's rows where holds:
// a DELETE, or in a Trashcan fragment the UPDATE that marks them (§6.3:
// "mark all chunk tables as deleted").
func (f *fragment) remove(where sql.Expr) sql.Statement {
	if f.del == "" {
		return &sql.DeleteStmt{Table: f.table, Where: where}
	}
	return &sql.UpdateStmt{
		Table: f.table,
		Set:   []sql.Assignment{{Column: f.del, Value: intLit(1)}},
		Where: where,
	}
}

// spine starts an INSERT into the fragment with the columns every row
// has, and spineValues is their values for one logical row; marker goes
// into a Trashcan fragment's marker column (0: live).
func (f *fragment) spine() *sql.InsertStmt {
	ins := &sql.InsertStmt{Table: f.table}
	for _, m := range f.meta {
		ins.Columns = append(ins.Columns, m.col)
	}
	ins.Columns = append(ins.Columns, "Row")
	if f.del != "" {
		ins.Columns = append(ins.Columns, f.del)
	}
	return ins
}

func (f *fragment) spineValues(row, marker sql.Expr, width int) []sql.Expr {
	vals := make([]sql.Expr, 0, width)
	for _, m := range f.meta {
		vals = append(vals, intLit(m.val))
	}
	vals = append(vals, row)
	if f.del != "" {
		vals = append(vals, marker)
	}
	return vals
}

// read is the expression yielding the logical value from a table alias.
func (c *fragCol) read(alias string) sql.Expr {
	var e sql.Expr = colRef(alias, c.phys)
	if c.store.Kind != c.Type.Kind {
		e = &sql.CastExpr{X: e, Type: c.Type}
	}
	return e
}

// writes reports whether a value changes representation on its way in:
// the storage kind differs from the logical one. VARCHAR is excepted —
// it takes any value by assignment.
func (c *fragCol) writes() bool {
	return c.store.Kind != c.Type.Kind && c.store.Kind != types.KindString
}

// conventionalFragment is a table that stores logical columns under
// their own names and types, keyed by (Tenant, Row).
func conventionalFragment(tenantID int64, table string, cols []Column) *fragment {
	f := &fragment{table: table, meta: []metaEq{{"Tenant", tenantID}}, cols: make([]fragCol, len(cols))}
	for i, c := range cols {
		f.cols[i] = fragCol{Column: c, phys: c.Name, store: c.Type}
	}
	return f
}

// unplaced filters cols down to those no fragment stores yet.
func unplaced(cols []Column, have []*fragment) []Column {
	var out []Column
next:
	for _, c := range cols {
		for _, f := range have {
			for i := range f.cols {
				if strings.EqualFold(f.cols[i].Name, c.Name) {
					continue next
				}
			}
		}
		out = append(out, c)
	}
	return out
}

// slot is where a placement stores one logical column.
type slot struct {
	frag *fragment
	col  *fragCol
}

// placement is where one tenant's logical table lives: its fragments in
// write order, the one reconstruction starts from, and every logical
// column's slot. A placement is immutable; extending a tenant installs
// a new one.
type placement struct {
	frags []*fragment
	// anchor stores the table's key column (NOT NULL by Schema.Validate),
	// so it has a row for every logical row.
	anchor *fragment
	slots  map[string]slot // lower-cased logical column name
}

// placementKey identifies a tenant's logical table (by its *Table in
// the layout's schema).
type placementKey struct {
	tenant int64
	table  *Table
}

// reconstructor is a layout that stores logical rows as fragments
// aligned on Row. Saying where is its whole part in rewriting.
type reconstructor interface {
	Layout
	state() *state
	// fragments places tn's view of a logical table: the returned list,
	// in write order, stores every logical column exactly once. have is
	// the table's placement so far (nil for a new tenant) — chunk IDs
	// are only ever appended, so the chunk layouts keep have and place
	// the columns it lacks; the others place afresh. db is for the one
	// layout that provisions a physical table per fragment.
	fragments(db *engine.DB, tn *Tenant, table *Table, have []*fragment) ([]*fragment, error)
}

// place asks the layout where tn's view of a logical table lives,
// indexes the answer and checks it: every logical column stored exactly
// once.
func place(l reconstructor, db *engine.DB, tn *Tenant, table *Table, have []*fragment) (*placement, error) {
	frags, err := l.fragments(db, tn, table, have)
	if err != nil {
		return nil, err
	}
	p := &placement{frags: frags, slots: map[string]slot{}}
	for _, f := range frags {
		for i := range f.cols {
			k := strings.ToLower(f.cols[i].Name)
			if _, dup := p.slots[k]; dup {
				return nil, fmt.Errorf("core: column %s of %s is stored twice", f.cols[i].Name, table.Name)
			}
			p.slots[k] = slot{frag: f, col: &f.cols[i]}
		}
	}
	cols, err := l.state().schema.LogicalColumns(tn, table.Name)
	if err != nil {
		return nil, err
	}
	for _, c := range cols {
		if _, ok := p.slots[strings.ToLower(c.Name)]; !ok {
			return nil, fmt.Errorf("core: column %s of %s is unassigned", c.Name, table.Name)
		}
	}
	p.anchor = p.slots[strings.ToLower(table.Key)].frag
	return p, nil
}

// locate resolves logical columns to the slots the placement stores them in.
func (p *placement) locate(table *Table, cols []Column) ([]slot, error) {
	out := make([]slot, len(cols))
	for i, c := range cols {
		s, ok := p.slots[strings.ToLower(c.Name)]
		if !ok {
			return nil, fmt.Errorf("core: column %s of %s is unassigned", c.Name, table.Name)
		}
		out[i] = s
	}
	return out, nil
}

// touched lists the fragments that store the given columns in order of
// first use, after the anchor if withAnchor is set (a reconstruction
// reads the anchor whether or not a column comes from it).
func (p *placement) touched(slots []slot, withAnchor bool) []*fragment {
	var out []*fragment
	if withAnchor {
		out = append(out, p.anchor)
	}
	for _, s := range slots {
		if indexOf(out, s.frag) < 0 {
			out = append(out, s.frag)
		}
	}
	return out
}

func indexOf(frags []*fragment, f *fragment) int {
	for i, g := range frags {
		if g == f {
			return i
		}
	}
	return -1
}

// registerTenant is AddTenant for a reconstructor: place every logical
// table, then register tenant and placements together.
func registerTenant(l reconstructor, db *engine.DB, t *Tenant) error {
	st := l.state()
	places := make(map[placementKey]*placement, len(st.schema.Tables))
	for _, bt := range st.schema.Tables {
		p, err := place(l, db, t, bt, nil)
		if err != nil {
			return err
		}
		places[placementKey{t.ID, bt}] = p
	}
	return st.addTenant(t, places)
}

// extendTenant is ExtendTenant for a reconstructor: place the table
// again with the extension enabled, give every fragment it did not
// occupy before a spine row (all NULLs, and the anchor's Trashcan
// marker) per existing logical row, so reconstruction joins keep
// matching and the new fragment by itself says which rows are live,
// then publish extension and placement together. No fragment new to the
// table means pure meta-data.
func extendTenant(l reconstructor, db *engine.DB, tenantID int64, extName string) error {
	st := l.state()
	tn, ext, err := st.extensible(tenantID, extName)
	if err != nil {
		return err
	}
	table := st.schema.Table(ext.Base)
	old, err := st.placement(tenantID, table)
	if err != nil {
		return err
	}
	next, err := place(l, db, tn.with(extName), table, old.frags)
	if err != nil {
		return err
	}
	var fresh []*fragment
	for _, f := range next.frags {
		isOld := false
		for _, o := range old.frags {
			isOld = isOld || f.sameRows(o)
		}
		if !isOld {
			fresh = append(fresh, f)
		}
	}
	if len(fresh) > 0 {
		existing := &sql.SelectStmt{
			Items: []sql.SelectItem{{Expr: colRef("", "Row")}},
			From:  []sql.TableRef{&sql.NamedTable{Name: old.anchor.table}},
			Where: and(old.anchor.where("")...),
		}
		if old.anchor.del != "" {
			existing.Items = append(existing.Items, sql.SelectItem{Expr: colRef("", old.anchor.del)})
		}
		rows, err := db.QueryStmt(existing, "")
		if err != nil {
			return err
		}
		for _, f := range fresh {
			if len(rows.Data) == 0 {
				break // no logical rows yet: nothing to back-fill
			}
			ins := f.spine()
			for _, r := range rows.Data {
				marker := intLit(0)
				if len(r) > 1 {
					marker = lit(r[1])
				}
				ins.Rows = append(ins.Rows, f.spineValues(lit(r[0]), marker, len(ins.Columns)))
			}
			if _, err := db.ExecStmt(ins, ""); err != nil {
				return err
			}
		}
	}
	return st.extend(tn, ext, next)
}
