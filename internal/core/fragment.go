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
// (§6.4). Every layout — Basic, Private, Extension, Universal, Chunk,
// Chunk Folding, Vertical and Pivot — is that scheme over its own answer
// to one question: in which physical tables does a tenant's logical table
// live? A fragment is one such table's share. So there is one layout
// type, FragmentLayout, and a technique is a constructor that gives it a
// placement policy (and the DDL of its shared tables): the policy answers
// with a list of fragments when a tenant is added or extended, and
// generic.go does everything else. Basic and Private answer with a single
// fragment, which has nothing to align with and so no Row column.

// metaEq is one meta-data equality: rows of the fragment have val in
// the meta-column col. The Tenant column is the exception (tenantMeta):
// its value is the id of whichever tenant a statement is rewritten for,
// so a placement names no tenant and tenants that see a table alike
// share one (see state).
type metaEq struct {
	col string
	val int64
}

// tenantMeta selects the rewriting tenant's rows.
var tenantMeta = metaEq{col: "Tenant"}

// value is the meta-column's value in the rows of tenant.
func (m metaEq) value(tenant int64) int64 {
	if m.col == tenantMeta.col {
		return tenant
	}
	return m.val
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
	// sparse: the fragment has no row for a logical row whose value in it
	// is NULL (Pivot's cells). It stores exactly one column and is never
	// the anchor (place checks); generic.go reads it in one place per step.
	sparse bool
	// rowless: the fragment has no Row column. Only a placement's one
	// fragment may lack it (place checks): nothing aligns with it, so its
	// rows need no logical row ids (Basic's shared tables, Private's own).
	rowless bool
}

// chunked reports whether the fragment is a chunk: rows selected by a
// Chunk meta-column, last in its meta.
func (f *fragment) chunked() bool {
	n := len(f.meta)
	return n > 0 && f.meta[n-1].col == "Chunk"
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

// where builds the meta-data conjuncts that select tenant's rows, over a
// table alias ("" in DML).
func (f *fragment) where(alias string, tenant int64) []sql.Expr {
	out := make([]sql.Expr, len(f.meta), len(f.meta)+1)
	for i, m := range f.meta {
		out[i] = eq(colRef(alias, m.col), intLit(m.value(tenant)))
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
// has, and spineValues is their values for one of tenant's logical rows;
// marker goes into a Trashcan fragment's marker column (0: live).
func (f *fragment) spine() *sql.InsertStmt {
	ins := &sql.InsertStmt{Table: f.table}
	for _, m := range f.meta {
		ins.Columns = append(ins.Columns, m.col)
	}
	if !f.rowless {
		ins.Columns = append(ins.Columns, "Row")
	}
	if f.del != "" {
		ins.Columns = append(ins.Columns, f.del)
	}
	return ins
}

func (f *fragment) spineValues(tenant int64, row, marker sql.Expr, width int) []sql.Expr {
	vals := make([]sql.Expr, 0, width)
	for _, m := range f.meta {
		vals = append(vals, intLit(m.value(tenant)))
	}
	if !f.rowless {
		vals = append(vals, row)
	}
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

// writeType is the type a value is cast to on its way in, where the
// storage kind differs from the logical one: the storage type — except a
// VARCHAR store, which takes any value by assignment, so the value goes
// through the logical type and one that type refuses fails the write.
func (c *fragCol) writeType() (types.ColumnType, bool) {
	switch c.store.Kind {
	case c.Type.Kind:
		return types.ColumnType{}, false
	case types.KindString:
		return c.Type, true
	}
	return c.store, true
}

// write is e cast for the column (writeType).
func (c *fragCol) write(e sql.Expr) sql.Expr {
	if t, ok := c.writeType(); ok {
		return &sql.CastExpr{X: e, Type: t}
	}
	return e
}

// conventionalFragment is a table that stores logical columns under
// their own names and types, keyed by (Tenant, Row).
func conventionalFragment(table string, cols []Column) *fragment {
	f := &fragment{table: table, meta: []metaEq{tenantMeta}, cols: make([]fragCol, len(cols))}
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

// placement is where a logical table lives for the tenants of one view
// of it: its fragments in write order, the one reconstruction starts
// from, and every logical column's slot. It names no tenant (tenantMeta),
// so one placement serves every tenant that sees the table alike. A
// placement is immutable; extending a tenant installs a new one.
type placement struct {
	frags []*fragment
	// anchor stores the table's key column (NOT NULL by Schema.Validate),
	// so it has a row for every logical row.
	anchor *fragment
	view   *view
	slots  []slot // slots[i] stores view.cols[i]
}

// slot returns where the placement stores a logical column, by name.
func (p *placement) slot(name string) (slot, bool) {
	i, ok := p.view.find(name)
	if !ok {
		return slot{}, false
	}
	return p.slots[i], true
}

// placementKey identifies a tenant's logical table (by its *Table in
// the layout's schema).
type placementKey struct {
	tenant int64
	table  *Table
}

// FragmentLayout is a schema-mapping technique of the paper's Figure 4:
// it stores logical rows as fragments placed by its policy, provisions
// the physical multi-tenant schema and rewrites logical statements into
// physical ones (the paper's query-transformation layer). Every layout
// but LayoutMux, which routes to them, is one; the New…Layout
// constructors build them.
type FragmentLayout struct {
	name string
	st   *state
	// create provisions the shared physical tables; nil where the policy
	// creates tables as it places (Private, Vertical).
	create func(db *engine.DB) error
	// fragments is the placement policy: where tn's view of a logical
	// table lives. The returned list, in write order, stores every
	// logical column exactly once. have is the table's placement so far
	// (nil for a new tenant) — chunk IDs are only ever appended, so the
	// chunk layouts keep have and place the columns it lacks; the others
	// place afresh. db is for the policies that provision physical
	// tables as they place, and an error refuses the tenant or the
	// extension unregistered.
	//
	// The answer may depend on tn only through tn's extensions: tenants
	// that see a table alike share its placement, whichever of them
	// placed it (AddTenant). Private is the exception (own).
	fragments func(db *engine.DB, tn *Tenant, table *Table, have []*fragment) ([]*fragment, error)
	// own: placements name the tenant — Private's tables carry its id —
	// so every tenant's tables are placed for it alone, and RemoveTenant
	// drops them.
	own bool
	// flat emits a SELECT in §6.1's pre-flattened single-block form
	// where its shape allows — the nested form, unnested as the
	// sophisticated optimizer unnests it (chunkflat.go) — for databases
	// whose optimizer cannot unnest derived tables (Test 1's MySQL case);
	// metaFirst puts the meta-data conjuncts first in its WHERE clause,
	// the ordering that cost MySQL a factor of 5.
	flat, metaFirst bool
}

// newFragmentLayout validates a logical schema and starts a layout over
// it; the constructor sets the policy.
func newFragmentLayout(name string, schema *Schema) (*FragmentLayout, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	return &FragmentLayout{name: name, st: newState(schema)}, nil
}

// Name implements Layout: the technique ("chunk", "private", ...).
func (l *FragmentLayout) Name() string { return l.name }

// Schema implements Layout.
func (l *FragmentLayout) Schema() *Schema { return l.st.schema }

// Create implements Layout: the shared tables, then the tenants in
// order.
func (l *FragmentLayout) Create(db *engine.DB, tenants []*Tenant) error {
	if l.create != nil {
		if err := l.create(db); err != nil {
			return err
		}
	}
	for _, tn := range tenants {
		if err := l.AddTenant(db, tn); err != nil {
			return err
		}
	}
	return nil
}

// place asks the policy where the tenants of view v of a logical table
// keep it, tn being one of them, indexes the answer by v's columns and
// checks it: every logical column stored exactly once, and a fragment
// without Row only alone.
func (l *FragmentLayout) place(db *engine.DB, tn *Tenant, table *Table, v *view, have []*fragment) (*placement, error) {
	frags, err := l.fragments(db, tn, table, have)
	if err != nil {
		return nil, err
	}
	p := &placement{frags: frags, view: v, slots: make([]slot, len(v.cols))}
	for _, f := range frags {
		switch {
		case f.sparse && len(f.cols) != 1:
			return nil, fmt.Errorf("core: a sparse fragment of %s stores %d columns, not one", table.Name, len(f.cols))
		case f.rowless && len(frags) > 1:
			return nil, fmt.Errorf("core: a fragment of %s without Row is one of %d", table.Name, len(frags))
		}
		for i := range f.cols {
			at, ok := v.find(f.cols[i].Name)
			switch {
			case !ok:
				return nil, fmt.Errorf("core: %s stores %s, which %s lacks", f.table, f.cols[i].Name, table.Name)
			case p.slots[at].frag != nil:
				return nil, fmt.Errorf("core: column %s of %s is stored twice", f.cols[i].Name, table.Name)
			}
			p.slots[at] = slot{frag: f, col: &f.cols[i]}
		}
	}
	for i, s := range p.slots {
		if s.frag == nil {
			return nil, fmt.Errorf("core: column %s of %s is unassigned", v.cols[i].Name, table.Name)
		}
	}
	key, _ := p.slot(table.Key)
	if p.anchor = key.frag; p.anchor.sparse {
		return nil, fmt.Errorf("core: the key %s of %s is in a sparse fragment", table.Key, table.Name)
	}
	return p, nil
}

// slotsAt lists the slots of the view's columns at the given positions.
func (p *placement) slotsAt(at []int) []slot {
	out := make([]slot, len(at))
	for i, a := range at {
		out[i] = p.slots[a]
	}
	return out
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

// Placement describes, for inspection, where a tenant's logical table
// lives under a layout: each fragment's physical table with the
// meta-data equalities that select the tenant's rows, and the physical
// column behind each logical one. Its first line says whether the
// placement is the table's shared base or the tenant's own — an extended
// table, or any Private table — which is what the tenant costs in
// meta-data. Through a LayoutMux it answers from the layout that serves
// the tenant (Route).
func Placement(l Layout, tenantID int64, table string) (string, error) {
	if x, ok := l.(*LayoutMux); ok {
		l = x.Route(tenantID)
	}
	fl, ok := l.(*FragmentLayout)
	if !ok {
		return "", fmt.Errorf("core: layout %s keeps no placements", l.Name())
	}
	st := fl.st
	lt := st.schema.Table(table)
	if lt == nil {
		return "", fmt.Errorf("core: no logical table %s", table)
	}
	p, err := st.placement(tenantID, lt)
	if err != nil {
		return "", err
	}
	st.mu.RLock()
	whose := "shared base"
	if st.views[placementKey{tenantID, lt}] != nil {
		whose = "tenant's own"
	}
	st.mu.RUnlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s of tenant %d: %s placement, %d fragment(s)\n", lt.Name, tenantID, whose, len(p.frags))
	for _, f := range p.frags {
		fmt.Fprintf(&sb, "  %s", f.table)
		if w := sql.And(f.where("", tenantID)...); w != nil {
			fmt.Fprintf(&sb, " WHERE %s", w)
		}
		switch {
		case f.rowless:
			sb.WriteString(" (no Row)")
		case f.sparse:
			sb.WriteString(" (sparse)")
		}
		sb.WriteString(":")
		for _, c := range f.cols {
			fmt.Fprintf(&sb, " %s=%s", c.Name, c.phys)
		}
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

// AddTenant implements Layout: it places the tables the tenant extends,
// its own, and every other table that has no base placement yet — in a
// layout whose placements are the tenant's own, every table — and
// registers tenant and placements together. A base placement some
// racing registration published first is the same placement, so it
// keeps that one. For most layouts this is meta-data bookkeeping alone;
// Private's policy creates the tenant's tables, and Vertical's any chunk
// table no tenant needed yet.
func (l *FragmentLayout) AddTenant(db *engine.DB, t *Tenant) error {
	st := l.st
	extended := map[*Table]bool{}
	for _, en := range t.Extensions {
		e := st.schema.Extension(en)
		if e == nil {
			return fmt.Errorf("core: tenant %d references unknown extension %s", t.ID, en)
		}
		extended[st.schema.Table(e.Base)] = true
	}
	own, base := map[*Table]*view{}, map[*Table]*view{}
	for _, bt := range st.schema.Tables {
		into := own
		if !l.own && !extended[bt] {
			st.mu.RLock()
			placed := st.base[bt] != nil
			st.mu.RUnlock()
			if placed {
				continue
			}
			into = base
		}
		v, err := st.schema.view(t, bt)
		if err != nil {
			return err
		}
		if v.place, err = l.place(db, t, bt, v, nil); err != nil {
			return err
		}
		into[bt] = v
	}
	return st.addTenant(t, own, base)
}

// ExtendTenant enables an extension for a tenant on-line: place the
// table again with the extension enabled, give every fragment it did not
// occupy before a spine row (all NULLs, and the anchor's Trashcan
// marker) per existing logical row, so reconstruction joins keep
// matching and the new fragment by itself says which rows are live,
// then publish extension and placement together. No fragment new to the
// table — or only sparse ones, where absent is NULL, or one that widens
// in place, same table and meta (Private) — means pure meta-data. A
// policy that refuses the placement (Basic) leaves the tenant as it was.
func (l *FragmentLayout) ExtendTenant(db *engine.DB, tenantID int64, extName string) error {
	st := l.st
	tn, ext, err := st.extensible(tenantID, extName)
	if err != nil {
		return err
	}
	table := st.schema.Table(ext.Base)
	old, err := st.placement(tenantID, table)
	if err != nil {
		return err
	}
	next := tn.with(extName)
	v, err := st.schema.view(next, table)
	if err != nil {
		return err
	}
	if v.place, err = l.place(db, next, table, v, old.frags); err != nil {
		return err
	}
	var fresh []*fragment
	for _, f := range v.place.frags {
		isOld := false
		for _, o := range old.frags {
			isOld = isOld || f.sameRows(o)
		}
		if !isOld && !f.sparse {
			fresh = append(fresh, f)
		}
	}
	if len(fresh) > 0 {
		existing := &sql.SelectStmt{
			Items: []sql.SelectItem{{Expr: colRef("", "Row")}},
			From:  []sql.TableRef{&sql.NamedTable{Name: old.anchor.table}},
			Where: sql.And(old.anchor.where("", tenantID)...),
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
				ins.Rows = append(ins.Rows, f.spineValues(tenantID, lit(r[0]), marker, len(ins.Columns)))
			}
			if _, err := db.ExecStmt(ins, ""); err != nil {
				return err
			}
		}
	}
	st.extend(tn, ext, v)
	return nil
}

// RemoveTenant drops a tenant whose tables are its own (Private): the
// administrative "delete tenant" action of the testbed. A layout whose
// tables the tenants share refuses and drops nothing.
func (l *FragmentLayout) RemoveTenant(db *engine.DB, tenantID int64) error {
	if !l.own {
		return fmt.Errorf("core: %s layout shares its tables among tenants; it cannot drop tenant %d's", l.name, tenantID)
	}
	for _, bt := range l.st.schema.Tables {
		p, err := l.st.placement(tenantID, bt)
		if err != nil {
			return err
		}
		for _, f := range p.frags {
			if _, err := db.Exec("DROP TABLE " + f.table); err != nil {
				return err
			}
		}
	}
	l.st.removeTenant(tenantID)
	return nil
}

// RestoreRows un-deletes trashcanned logical rows (the Trashcan
// mechanism's raison d'être): a placement without marker columns
// refuses.
func (l *FragmentLayout) RestoreRows(db *engine.DB, tenantID int64, table string, rowIDs []types.Value) error {
	lt := l.st.schema.Table(table)
	if lt == nil {
		return fmt.Errorf("core: no logical table %s", table)
	}
	p, err := l.st.placement(tenantID, lt)
	if err != nil {
		return err
	}
	if p.anchor.del == "" {
		return fmt.Errorf("core: trashcan is not enabled")
	}
	for _, f := range p.frags {
		up := &sql.UpdateStmt{
			Table: f.table,
			Set:   []sql.Assignment{{Column: f.del, Value: intLit(0)}},
			Where: sql.And(append(f.where("", tenantID), inList(colRef("", "Row"), rowIDs))...),
		}
		if _, err := db.ExecStmt(up, ""); err != nil {
			return err
		}
	}
	return nil
}
