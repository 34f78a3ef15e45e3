package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sql"
	"repro/internal/types"
)

// rowCol is the synthesized output column carrying the logical row ID
// through phase (a) of the two-phase DML protocol.
const rowCol = "__row"

// genericRewrite dispatches a logical statement of a layout that stores
// rows as fragments: steps 1 and 4 of the paper's §6.1 compilation
// scheme and the §6.3 two-phase protocol here, steps 2–3 and the
// writers in fragmentRows below.
func genericRewrite(l fragmentRows, tenantID int64, st sql.Statement) (*Rewritten, error) {
	tn, err := l.state().tenant(tenantID)
	if err != nil {
		return nil, err
	}
	switch st := st.(type) {
	case *sql.SelectStmt:
		sel, err := genericSelect(l, tn, st)
		if err != nil {
			return nil, err
		}
		return &Rewritten{Query: sel}, nil
	case *sql.InsertStmt:
		return genericInsert(l, tn, st)
	case *sql.UpdateStmt:
		if len(st.Set) == 0 {
			return nil, fmt.Errorf("core: UPDATE %s without SET", st.Table)
		}
		return genericWrite(l, tn, st.Table, st.Alias, st.Set, st.Where)
	case *sql.DeleteStmt:
		return genericWrite(l, tn, st.Table, st.Alias, nil, st.Where)
	}
	return nil, fmt.Errorf("core: %s layout cannot rewrite %T", l.Name(), st)
}

// genericSelect replaces every logical table reference with its
// reconstruction derived table (step 4 of §6.1).
func genericSelect(l fragmentRows, tn *Tenant, sel *sql.SelectStmt) (*sql.SelectStmt, error) {
	usages, err := analyzeSelect(l.state(), tn, sel)
	if err != nil {
		return nil, err
	}
	byRef := map[*sql.NamedTable]*tableUsage{}
	for _, u := range usages {
		byRef[u.ref] = u
	}
	var rewriteRef func(tr sql.TableRef) (sql.TableRef, error)
	rewriteRef = func(tr sql.TableRef) (sql.TableRef, error) {
		switch tr := tr.(type) {
		case *sql.NamedTable:
			u := byRef[tr]
			if u == nil {
				return nil, fmt.Errorf("core: unanalyzed table %s", tr.Name)
			}
			inner, err := l.reconstruct(tn, u.logical, u.usedColumns(), false)
			if err != nil {
				return nil, err
			}
			return &sql.SubqueryTable{Select: inner, Alias: u.alias}, nil
		case *sql.SubqueryTable:
			sub, err := genericSelect(l, tn, tr.Select)
			if err != nil {
				return nil, err
			}
			return &sql.SubqueryTable{Select: sub, Alias: tr.Alias}, nil
		case *sql.JoinTable:
			left, err := rewriteRef(tr.Left)
			if err != nil {
				return nil, err
			}
			right, err := rewriteRef(tr.Right)
			if err != nil {
				return nil, err
			}
			return &sql.JoinTable{Left: left, Right: right, Type: tr.Type, On: tr.On}, nil
		}
		return nil, fmt.Errorf("core: unsupported FROM entry %T", tr)
	}
	out := *sel
	out.From = make([]sql.TableRef, len(sel.From))
	for i, tr := range sel.From {
		out.From[i], err = rewriteRef(tr)
		if err != nil {
			return nil, err
		}
	}
	out.Where, err = rewriteInSubqueries(sel.Where, func(s *sql.SelectStmt) (*sql.SelectStmt, error) {
		return genericSelect(l, tn, s)
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// writeUsage computes the logical columns a write statement touches.
func writeUsage(l fragmentRows, tn *Tenant, table, alias string, exprs []sql.Expr) (*Table, []Column, error) {
	lt := l.state().schema.Table(table)
	if lt == nil {
		return nil, nil, fmt.Errorf("core: no logical table %s", table)
	}
	if alias == "" {
		alias = table
	}
	fake := &sql.SelectStmt{
		From: []sql.TableRef{&sql.NamedTable{Name: lt.Name, Alias: alias}},
	}
	for _, e := range exprs {
		if e != nil {
			fake.Items = append(fake.Items, sql.SelectItem{Expr: e})
		}
	}
	if len(fake.Items) == 0 {
		fake.Items = append(fake.Items, sql.SelectItem{Expr: intLit(1)})
	}
	usages, err := analyzeSelect(l.state(), tn, fake)
	if err != nil {
		return nil, nil, err
	}
	return lt, usages[0].usedColumns(), nil
}

// genericInsert resolves the column list and has insertRows allocate
// logical row IDs and build the physical writes (§6.3: "the application
// logic has to look up all related chunks, collect the meta-data, and
// assign each inserted new row a unique row identifier").
func genericInsert(l fragmentRows, tn *Tenant, st *sql.InsertStmt) (*Rewritten, error) {
	lt := l.state().schema.Table(st.Table)
	if lt == nil {
		return nil, fmt.Errorf("core: no logical table %s", st.Table)
	}
	v, err := l.state().view(tn, lt)
	if err != nil {
		return nil, err
	}
	cols := v.cols
	if len(st.Columns) > 0 {
		cols = make([]Column, len(st.Columns))
		for i, name := range st.Columns {
			at, ok := v.find(name)
			if !ok {
				return nil, fmt.Errorf("core: no column %s in %s for tenant %d", name, lt.Name, tn.ID)
			}
			cols[i] = v.cols[at]
		}
	}
	for _, row := range st.Rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("core: INSERT row has %d values for %d columns", len(row), len(cols))
		}
	}
	stmts, err := l.insertRows(tn, lt, cols, st.Rows)
	if err != nil {
		return nil, err
	}
	return &Rewritten{Direct: stmts, Inserted: int64(len(st.Rows))}, nil
}

// genericWrite implements §6.3 for an UPDATE (set given) or a DELETE (set
// nil) of a tenant's logical table: one direct statement when the layout
// can do without aligning (see fragmentRows.direct), else the two-phase
// protocol — phase (a) collects (__row, new values...) through the
// reconstruction, the engine evaluating SET expressions over the
// logical row, and phase (b) applies per-structure physical writes.
func genericWrite(l fragmentRows, tn *Tenant, table, alias string, set []sql.Assignment, where sql.Expr) (*Rewritten, error) {
	exprs := make([]sql.Expr, 0, len(set)+1)
	for _, a := range set {
		exprs = append(exprs, a.Value)
	}
	lt, used, err := writeUsage(l, tn, table, alias, append(exprs, where))
	if err != nil {
		return nil, err
	}
	if alias == "" {
		alias = lt.Name
	}
	v, err := l.state().view(tn, lt)
	if err != nil {
		return nil, err
	}
	var setCols []Column
	for _, a := range set {
		at, ok := v.find(a.Column)
		if !ok {
			return nil, fmt.Errorf("core: no column %s in %s for tenant %d", a.Column, lt.Name, tn.ID)
		}
		setCols = append(setCols, v.cols[at])
	}
	where, err = rewriteInSubqueries(where, func(s *sql.SelectStmt) (*sql.SelectStmt, error) {
		return genericSelect(l, tn, s)
	})
	if err != nil {
		return nil, err
	}
	if ps := l.direct(tn, lt, alias, set, setCols, where); ps != nil {
		return &Rewritten{Direct: []sql.Statement{ps}, DirectIsCount: true}, nil
	}

	inner, err := l.reconstruct(tn, lt, used, true)
	if err != nil {
		return nil, err
	}
	rowQuery := &sql.SelectStmt{
		Items: []sql.SelectItem{{Expr: colRef(alias, rowCol)}},
		From:  []sql.TableRef{&sql.SubqueryTable{Select: inner, Alias: alias}},
		Where: where,
	}
	for _, a := range set {
		rowQuery.Items = append(rowQuery.Items, sql.SelectItem{Expr: a.Value, Alias: "__set_" + a.Column})
	}
	return &Rewritten{
		RowQuery: rowQuery,
		PhaseB: func(rows [][]types.Value) []sql.Statement {
			switch {
			case len(rows) == 0:
				return nil
			case set == nil:
				return l.phaseBDelete(tn, lt, rows)
			}
			return l.phaseBUpdate(tn, lt, setCols, rows)
		},
	}, nil
}

// column extracts column i from phase-(a) result rows.
func column(rows [][]types.Value, i int) []types.Value {
	out := make([]types.Value, len(rows))
	for j, r := range rows {
		out[j] = r[i]
	}
	return out
}

// constantSets reports whether every SET expression evaluated to the
// same value across all affected rows, enabling batched phase-(b)
// statements (one UPDATE ... WHERE Row IN (...) per structure).
func constantSets(rows [][]types.Value, nSet int) bool {
	for c := 1; c <= nSet; c++ {
		for _, r := range rows[1:] {
			if !sameValue(rows[0][c], r[c]) {
				return false
			}
		}
	}
	return true
}

func sameValue(a, b types.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	return types.Equal(a, b)
}

// --- the one rewriter over fragments -------------------------------------------

// fragmentRows is the rewriter of every reconstructor: the four steps
// written once over the tenant-table's placement. Nothing here knows
// which layout placed the fragments; where a step differs for a sparse
// fragment, it asks the fragment.
type fragmentRows struct{ reconstructor }

// reconstruct builds the inner SELECT that reconstructs a tenant's
// logical table, exposing the used columns (plus the hidden row ID when
// withRow is set): the paper's Q1^Chunk shape. §6.1's reconstruction
// queries "are all flat and consist of conjunctive predicates only": the
// anchor and every other fragment a used column lives in, comma-joined,
// with the aligning Row equi-joins in WHERE — which a sophisticated
// optimizer flattens into the outer block and drives via the meta-data
// indexes. A sparse fragment may lack the row, so it is LEFT-joined onto
// the anchor, its meta-data and Row equalities in ON.
func (m fragmentRows) reconstruct(tn *Tenant, table *Table, used []Column, withRow bool) (*sql.SelectStmt, error) {
	p, err := m.state().placement(tn.ID, table)
	if err != nil {
		return nil, err
	}
	slots, err := p.locate(table, used)
	if err != nil {
		return nil, err
	}
	frags := p.touched(slots, true)
	aliases := fragAliases("f", len(frags))
	sel := &sql.SelectStmt{
		Items: make([]sql.SelectItem, 0, len(used)+1),
		From:  make([]sql.TableRef, 0, len(frags)),
	}
	for i, s := range slots {
		sel.Items = append(sel.Items, sql.SelectItem{
			Expr:  s.col.read(aliases[indexOf(frags, s.frag)]),
			Alias: used[i].Name,
		})
	}
	if withRow {
		sel.Items = append(sel.Items, sql.SelectItem{Expr: colRef(aliases[0], "Row"), Alias: rowCol})
	}
	var conjs []sql.Expr
	for i, f := range frags {
		ref := &sql.NamedTable{Name: f.table, Alias: aliases[i]}
		if i == 0 {
			sel.From = append(sel.From, ref)
			conjs = append(append(conjs, f.where(aliases[0])...), f.live(aliases[0]))
			continue
		}
		aligned := eq(colRef(aliases[i], "Row"), colRef(aliases[0], "Row"))
		if f.sparse {
			on := and(append(f.where(aliases[i]), aligned)...)
			sel.From[0] = &sql.JoinTable{Left: sel.From[0], Right: ref, Type: sql.LeftJoin, On: on}
		} else {
			sel.From = append(sel.From, ref)
			conjs = append(append(conjs, f.where(aliases[i])...), aligned)
		}
	}
	sel.Where = and(conjs...)
	return sel, nil
}

// fragAliases names n table aliases prefix0, prefix1, ...
func fragAliases(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + strconv.Itoa(i)
	}
	return out
}

// insertRows builds the physical inserts for logical rows given as a
// column list and value-expression lists: one batched INSERT per
// fragment. Every fragment of the logical row is written, with NULLs
// where no value was given (a spine), so reconstruction joins are inner —
// except a sparse fragment, which gets a row only for a value that is
// not a literal NULL. A statement left with no rows is dropped.
func (m fragmentRows) insertRows(tn *Tenant, table *Table, cols []Column, rows [][]sql.Expr) ([]sql.Statement, error) {
	p, err := m.state().placement(tn.ID, table)
	if err != nil {
		return nil, err
	}
	slots, err := p.locate(table, cols)
	if err != nil {
		return nil, err
	}
	firstRow := m.state().nextRows(tn.ID, table, int64(len(rows)))

	stmts := make([]*sql.InsertStmt, len(p.frags))
	for i, f := range p.frags {
		stmts[i] = f.spine()
	}
	target := make([]int, len(cols)) // cols[i] goes to stmts[target[i]]
	for i, s := range slots {
		target[i] = indexOf(p.frags, s.frag)
		stmts[target[i]].Columns = append(stmts[target[i]].Columns, s.col.phys)
	}
	for ri, row := range rows {
		rowID := firstRow + int64(ri)
		for i, f := range p.frags {
			if !f.sparse {
				stmts[i].Rows = append(stmts[i].Rows, f.spineValues(intLit(rowID), intLit(0), len(stmts[i].Columns)))
			}
		}
		for i, e := range row {
			st, f := stmts[target[i]], p.frags[target[i]]
			if f.sparse {
				if l, ok := e.(*sql.Literal); ok && l.Val.IsNull() {
					continue
				}
				st.Rows = append(st.Rows, f.spineValues(intLit(rowID), intLit(0), len(st.Columns)))
			}
			if slots[i].col.writes() {
				e = &sql.CastExpr{X: e, Type: slots[i].col.store}
			}
			last := &st.Rows[len(st.Rows)-1]
			*last = append(*last, e)
		}
	}
	out := make([]sql.Statement, 0, len(stmts))
	for _, st := range stmts {
		if len(st.Rows) > 0 {
			out = append(out, st)
		}
	}
	return out, nil
}

// errSpansFragments stops the mapping of an expression onto one fragment
// at a column the fragment does not store.
var errSpansFragments = errors.New("core: statement spans fragments")

// direct builds the one physical statement an UPDATE (set and setCols
// given) or a DELETE (both nil) is when it needs no aligning — where has
// had its IN-subqueries rewritten already — or returns nil: the
// statement takes the two phases. This is the fusion rule. Aligning is
// for statements that span fragments. When every column an UPDATE
// writes, and every column its WHERE and SET expressions read, is stored
// in one fragment f — for a DELETE, when f is the only fragment there is
// — the statement is one UPDATE or DELETE of f's table under f's
// meta-data equalities: logical column references become f's physical
// columns (fragCol.read), written values are cast as insertRows casts
// them, and a Trashcan fragment hides its marked rows and deletes by
// marking. f need not be the anchor: every fragment that is not sparse
// has a row, carrying the marker, for every logical row (insertRows,
// extendTenant, phaseBDelete), so f alone decides which rows exist. A
// sparse f lacks the rows whose value is NULL, which an UPDATE would
// miss, so it never fuses. The rule is a function of the placement and
// the columns used, nothing else; any reference it cannot place in f —
// another fragment's column, an unknown name or qualifier — sends the
// statement through the two phases, which report it as they always have.
func (m fragmentRows) direct(tn *Tenant, table *Table, alias string, set []sql.Assignment, setCols []Column, where sql.Expr) sql.Statement {
	p, err := m.state().placement(tn.ID, table)
	if err != nil {
		return nil
	}
	slots, err := p.locate(table, setCols)
	if err != nil {
		return nil
	}
	// f is where the SET targets live; a DELETE has none and needs the
	// placement to be f alone.
	f := p.frags[0]
	if len(slots) > 0 {
		f = slots[0].frag
	} else if len(p.frags) > 1 {
		return nil
	}
	if f.sparse {
		return nil
	}
	for _, s := range slots {
		if s.frag != f {
			return nil
		}
	}
	inF := func(cr *sql.ColumnRef) (sql.Expr, error) {
		s, ok := p.slots[strings.ToLower(cr.Name)]
		if !ok || s.frag != f || cr.Table != "" && !strings.EqualFold(cr.Table, alias) {
			return nil, errSpansFragments
		}
		return s.col.read(""), nil
	}
	where, err = mapColumnRefs(where, inF)
	if err != nil {
		return nil
	}
	where = and(append(f.where(""), f.live(""), where)...)
	if set == nil {
		return f.remove(where)
	}
	up := &sql.UpdateStmt{Table: f.table, Set: make([]sql.Assignment, len(set)), Where: where}
	for i, a := range set {
		v, err := mapColumnRefs(a.Value, inF)
		if err != nil {
			return nil
		}
		if slots[i].col.writes() {
			v = &sql.CastExpr{X: v, Type: slots[i].col.store}
		}
		up.Set[i] = sql.Assignment{Column: slots[i].col.phys, Value: v}
	}
	return up
}

// phaseBUpdate builds the physical writes for an UPDATE from phase (a)'s
// [__row, set1, set2, ...] tuples, at least one: one UPDATE per fragment
// a SET column lives in (in order of first use) when every row gets the
// same values, else one per fragment and row. A sparse fragment's rows
// are removed instead and its non-NULL new values inserted, which also
// moves a value to or from NULL.
func (m fragmentRows) phaseBUpdate(tn *Tenant, table *Table, setCols []Column, rows [][]types.Value) []sql.Statement {
	p, err := m.state().placement(tn.ID, table)
	if err != nil {
		return nil
	}
	slots, err := p.locate(table, setCols)
	if err != nil {
		return nil
	}
	touched := p.touched(slots, false)
	dense := touched[:0] // the UPDATEs' fragments, filtered in place
	for _, f := range touched {
		if !f.sparse {
			dense = append(dense, f)
		}
	}
	stored := func(s slot, v types.Value) sql.Expr {
		if s.col.writes() && !v.IsNull() {
			if cv, err := types.Cast(v, s.col.store.Kind); err == nil {
				v = cv
			}
		}
		return lit(v)
	}
	update := func(f *fragment, vals []types.Value, rowPred sql.Expr) sql.Statement {
		up := &sql.UpdateStmt{Table: f.table, Where: and(append(f.where(""), rowPred)...)}
		for i, s := range slots {
			if s.frag == f {
				up.Set = append(up.Set, sql.Assignment{Column: s.col.phys, Value: stored(s, vals[i+1])})
			}
		}
		return up
	}
	var out []sql.Statement
	rowIDs := column(rows, 0)
	for i, s := range slots {
		if !s.frag.sparse {
			continue
		}
		f := s.frag
		out = append(out, f.remove(and(append(f.where(""), inList(colRef("", "Row"), rowIDs))...)))
		ins := f.spine()
		ins.Columns = append(ins.Columns, s.col.phys)
		for _, r := range rows {
			if !r[i+1].IsNull() {
				ins.Rows = append(ins.Rows, append(f.spineValues(lit(r[0]), intLit(0), len(ins.Columns)), stored(s, r[i+1])))
			}
		}
		if len(ins.Rows) > 0 {
			out = append(out, ins)
		}
	}
	if constantSets(rows, len(setCols)) {
		for _, f := range dense {
			out = append(out, update(f, rows[0], inList(colRef("", "Row"), rowIDs)))
		}
		return out
	}
	for _, r := range rows {
		for _, f := range dense {
			out = append(out, update(f, r, eq(colRef("", "Row"), lit(r[0]))))
		}
	}
	return out
}

// phaseBDelete builds the physical writes for a DELETE from phase (a)'s
// [__row] tuples, at least one: every fragment of the rows goes —
// removed, or in a Trashcan fragment marked invisible (§6.3: "mark all
// chunk tables as deleted").
func (m fragmentRows) phaseBDelete(tn *Tenant, table *Table, rows [][]types.Value) []sql.Statement {
	p, err := m.state().placement(tn.ID, table)
	if err != nil {
		return nil
	}
	rowIDs := column(rows, 0)
	out := make([]sql.Statement, len(p.frags))
	for i, f := range p.frags {
		out[i] = f.remove(and(append(f.where(""), inList(colRef("", "Row"), rowIDs))...))
	}
	return out
}
