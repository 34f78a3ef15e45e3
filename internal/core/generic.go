package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sql"
	"repro/internal/types"
)

// rowCol is the synthesized output column carrying the logical row ID
// through phase (a) of the two-phase DML protocol.
const rowCol = "__row"

// Rewrite implements Layout: steps 1 and 4 of the paper's §6.1
// compilation scheme and the §6.3 two-phase protocol here, steps 2–3 and
// the writers below over the placement of the table. Nothing here knows
// which policy placed the fragments; where a step differs for a sparse
// fragment, or one without Row, it asks the fragment. A flat layout
// emits a SELECT whose shape allows it pre-flattened: the generic form
// unnested (chunkflat.go).
func (l *FragmentLayout) Rewrite(tenantID int64, st sql.Statement) (*Rewritten, error) {
	s := l.st
	tn, err := s.tenant(tenantID)
	if err != nil {
		return nil, err
	}
	if _, ok := st.(*sql.SelectStmt); !ok {
		// A write's IN subqueries read its tenant's tables, as a query's do.
		if st, err = sql.MapStatement(st, tenantSubqueries(s, tn), nil); err != nil {
			return nil, err
		}
	}
	switch st := st.(type) {
	case *sql.SelectStmt:
		sel, err := genericSelect(s, tn, st)
		if err == nil && l.flat && flattenable(st) {
			sel, err = l.flattened(sel, len(sql.SplitConjuncts(st.Where, nil)))
		}
		if err != nil {
			return nil, err
		}
		return &Rewritten{Query: sel}, nil
	case *sql.InsertStmt:
		return genericInsert(s, tn, st)
	case *sql.UpdateStmt:
		if len(st.Set) == 0 {
			return nil, fmt.Errorf("core: UPDATE %s without SET", st.Table)
		}
		return genericWrite(s, tn, st.Table, st.Alias, st.Set, st.Where)
	case *sql.DeleteStmt:
		return genericWrite(s, tn, st.Table, st.Alias, nil, st.Where)
	}
	return nil, fmt.Errorf("core: %s layout cannot rewrite %T", l.Name(), st)
}

// genericSelect replaces every logical table reference with its
// reconstruction derived table (step 4 of §6.1).
func genericSelect(s *state, tn *Tenant, sel *sql.SelectStmt) (*sql.SelectStmt, error) {
	usages, err := analyzeSelect(s, tn, sel)
	if err != nil {
		return nil, err
	}
	byRef := map[*sql.NamedTable]*tableUsage{}
	for _, u := range usages {
		byRef[u.ref] = u
	}
	out, err := sql.MapStatement(sel, tenantSubqueries(s, tn), func(tr sql.TableRef) (sql.TableRef, error) {
		switch tr := tr.(type) {
		case *sql.NamedTable:
			u := byRef[tr]
			if u == nil {
				return nil, fmt.Errorf("core: unanalyzed table %s", tr.Name)
			}
			return &sql.SubqueryTable{Select: u.view.place.reconstruct(tn.ID, u.usedAt(), false), Alias: u.alias}, nil
		case *sql.SubqueryTable:
			sub, err := genericSelect(s, tn, tr.Select)
			if err != nil {
				return nil, err
			}
			return &sql.SubqueryTable{Select: sub, Alias: tr.Alias}, nil
		}
		return nil, fmt.Errorf("core: unsupported FROM entry %T", tr)
	})
	if err != nil {
		return nil, err
	}
	return out.(*sql.SelectStmt), nil
}

// writeUsage analyzes what a write statement's expressions touch of its
// table, as a SELECT of them would.
func writeUsage(s *state, tn *Tenant, table, alias string, exprs []sql.Expr) (*tableUsage, error) {
	lt := s.schema.Table(table)
	if lt == nil {
		return nil, fmt.Errorf("core: no logical table %s", table)
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
	usages, err := analyzeSelect(s, tn, fake)
	if err != nil {
		return nil, err
	}
	return usages[0], nil
}

// genericInsert resolves the column list and has insertRows build the
// physical writes under freshly allocated logical row IDs (§6.3: "the
// application logic has to look up all related chunks, collect the
// meta-data, and assign each inserted new row a unique row identifier")
// — none where the placement has no Row. The answer names the Row
// literals and can reserve more ids, so a cached INSERT runs again under
// ids of its own (cachedRewrite.bindRows).
func genericInsert(s *state, tn *Tenant, st *sql.InsertStmt) (*Rewritten, error) {
	lt := s.schema.Table(st.Table)
	if lt == nil {
		return nil, fmt.Errorf("core: no logical table %s", st.Table)
	}
	v, err := s.view(tn, lt)
	if err != nil {
		return nil, err
	}
	cols := make([]int, len(v.cols))
	for i := range cols {
		cols[i] = i
	}
	if len(st.Columns) > 0 {
		cols = make([]int, len(st.Columns))
		for i, name := range st.Columns {
			at, ok := v.find(name)
			if !ok {
				return nil, fmt.Errorf("core: no column %s in %s for tenant %d", name, lt.Name, tn.ID)
			}
			cols[i] = at
		}
	}
	for _, row := range st.Rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("core: INSERT row has %d values for %d columns", len(row), len(cols))
		}
	}
	n := int64(len(st.Rows))
	rw := &Rewritten{Inserted: n}
	var firstRow int64
	if p := v.place; !p.anchor.rowless {
		firstRow = s.nextRows(tn.ID, lt, n)
		rw.reserve = func() int64 { return s.nextRows(tn.ID, lt, n) }
	}
	rw.Direct, rw.rowIDs = v.place.insertRows(tn.ID, firstRow, cols, st.Rows)
	return rw, nil
}

// genericWrite implements §6.3 for an UPDATE (set given) or a DELETE (set
// nil) of a tenant's logical table: one direct statement when the
// placement can do without aligning (see placement.direct), else the
// two-phase protocol — phase (a) collects (__row, new values...) through
// the reconstruction, the engine evaluating SET expressions over the
// logical row, and phase (b) applies per-structure physical writes.
func genericWrite(s *state, tn *Tenant, table, alias string, set []sql.Assignment, where sql.Expr) (*Rewritten, error) {
	exprs := make([]sql.Expr, 0, len(set)+1)
	for _, a := range set {
		exprs = append(exprs, a.Value)
	}
	u, err := writeUsage(s, tn, table, alias, append(exprs, where))
	if err != nil {
		return nil, err
	}
	lt, p := u.logical, u.view.place
	if alias == "" {
		alias = lt.Name
	}
	var setAt []int
	for _, a := range set {
		at, ok := u.view.find(a.Column)
		if !ok {
			return nil, fmt.Errorf("core: no column %s in %s for tenant %d", a.Column, lt.Name, tn.ID)
		}
		setAt = append(setAt, at)
	}
	switch ps, err := p.direct(tn, lt, alias, set, setAt, where); {
	case ps != nil:
		return &Rewritten{Direct: []sql.Statement{ps}, DirectIsCount: true}, nil
	case p.anchor.rowless:
		// Nothing to collect Row ids from: what does not fuse cannot run.
		return nil, err
	}

	rowQuery := &sql.SelectStmt{
		Items: []sql.SelectItem{{Expr: colRef(alias, rowCol)}},
		From:  []sql.TableRef{&sql.SubqueryTable{Select: p.reconstruct(tn.ID, u.usedAt(), true), Alias: alias}},
		Where: where,
	}
	for _, a := range set {
		rowQuery.Items = append(rowQuery.Items, sql.SelectItem{Expr: a.Value, Alias: "__set_" + a.Column})
	}
	return &Rewritten{
		RowQuery: rowQuery,
		PhaseB: func(rows [][]types.Value) []sql.Statement {
			// The placement when the rows were collected: an extension
			// published since phase (a) was compiled widens it.
			p, err := s.placement(tn.ID, lt)
			switch {
			case len(rows) == 0 || err != nil:
				return nil
			case set == nil:
				return p.phaseBDelete(tn.ID, rows)
			}
			return p.phaseBUpdate(tn.ID, setAt, rows)
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

// The rewriter's steps, written once over a table's placement. The
// columns they take are positions in the placement's view, so a slot is
// one index away; tenant is the id the Tenant meta-column takes.

// reconstruct builds the inner SELECT that reconstructs a tenant's
// logical table, exposing the used columns (plus the hidden row ID when
// withRow is set): the paper's Q1^Chunk shape. §6.1's reconstruction
// queries "are all flat and consist of conjunctive predicates only": the
// anchor and every other fragment a used column lives in, comma-joined,
// with the aligning Row equi-joins in WHERE — which a sophisticated
// optimizer flattens into the outer block and drives via the meta-data
// indexes. A sparse fragment may lack the row, so it is LEFT-joined onto
// the anchor, its meta-data and Row equalities in ON.
func (p *placement) reconstruct(tenant int64, used []int, withRow bool) *sql.SelectStmt {
	slots := p.slotsAt(used)
	frags := p.touched(slots, true)
	aliases := fragAliases(len(frags))
	sel := &sql.SelectStmt{
		Items: make([]sql.SelectItem, 0, len(used)+1),
		From:  make([]sql.TableRef, 0, len(frags)),
	}
	for i, s := range slots {
		sel.Items = append(sel.Items, sql.SelectItem{
			Expr:  s.col.read(aliases[indexOf(frags, s.frag)]),
			Alias: p.view.cols[used[i]].Name,
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
			conjs = append(append(conjs, f.where(aliases[0], tenant)...), f.live(aliases[0]))
			continue
		}
		aligned := eq(colRef(aliases[i], "Row"), colRef(aliases[0], "Row"))
		if f.sparse {
			on := sql.And(append(f.where(aliases[i], tenant), aligned)...)
			sel.From[0] = &sql.JoinTable{Left: sel.From[0], Right: ref, Type: sql.LeftJoin, On: on}
		} else {
			sel.From = append(sel.From, ref)
			conjs = append(append(conjs, f.where(aliases[i], tenant)...), aligned)
		}
	}
	sel.Where = sql.And(conjs...)
	return sel
}

// fragAliases names n fragment aliases f0, f1, ...
func fragAliases(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "f" + strconv.Itoa(i)
	}
	return out
}

// insertRows builds the physical inserts for logical rows given as a
// column list and value-expression lists, the first under logical row id
// firstRow: one batched INSERT per fragment. Every fragment of the
// logical row is written, with NULLs where no value was given (a spine),
// so reconstruction joins are inner — except a sparse fragment, which
// gets a row only for a value that is not a literal NULL. A statement
// left with no rows is dropped. ids is the Row literal of each logical
// row, in order, which every fragment's row of it shares.
func (p *placement) insertRows(tenant, firstRow int64, cols []int, rows [][]sql.Expr) (stmts []sql.Statement, ids []*sql.Literal) {
	slots := p.slotsAt(cols)
	ins := make([]*sql.InsertStmt, len(p.frags))
	for i, f := range p.frags {
		ins[i] = f.spine()
	}
	target := make([]int, len(cols)) // cols[i] goes to ins[target[i]]
	for i, s := range slots {
		target[i] = indexOf(p.frags, s.frag)
		ins[target[i]].Columns = append(ins[target[i]].Columns, s.col.phys)
	}
	ids = make([]*sql.Literal, len(rows))
	for ri, row := range rows {
		ids[ri] = &sql.Literal{Val: types.NewInt(firstRow + int64(ri))}
		for i, f := range p.frags {
			if !f.sparse {
				ins[i].Rows = append(ins[i].Rows, f.spineValues(tenant, ids[ri], intLit(0), len(ins[i].Columns)))
			}
		}
		for i, e := range row {
			st, f := ins[target[i]], p.frags[target[i]]
			if f.sparse {
				if l, ok := e.(*sql.Literal); ok && l.Val.IsNull() {
					continue
				}
				st.Rows = append(st.Rows, f.spineValues(tenant, ids[ri], intLit(0), len(st.Columns)))
			}
			last := &st.Rows[len(st.Rows)-1]
			*last = append(*last, slots[i].col.write(e))
		}
	}
	stmts = make([]sql.Statement, 0, len(ins))
	for _, st := range ins {
		if len(st.Rows) > 0 {
			stmts = append(stmts, st)
		}
	}
	return stmts, ids
}

// direct builds the one physical statement an UPDATE (set and setAt,
// its targets, given) or a DELETE (both nil) is when it needs no aligning — where has
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
// ExtendTenant, phaseBDelete), so f alone decides which rows exist. A
// sparse f lacks the rows whose value is NULL, which an UPDATE would
// miss, so it never fuses. The rule is a function of the placement and
// the columns used, nothing else; any reference it cannot place in f —
// another fragment's column, an unknown name or qualifier — sends the
// statement through the two phases, which report it as they always have,
// and is the error returned beside nil: the whole answer where the
// placement has no Row to run the two phases on.
func (p *placement) direct(tn *Tenant, table *Table, alias string, set []sql.Assignment, setAt []int, where sql.Expr) (sql.Statement, error) {
	slots := p.slotsAt(setAt)
	// f is where the SET targets live; a DELETE has none and needs the
	// placement to be f alone.
	f := p.frags[0]
	if len(slots) > 0 {
		f = slots[0].frag
	} else if len(p.frags) > 1 {
		return nil, nil
	}
	if f.sparse {
		return nil, nil
	}
	for _, s := range slots {
		if s.frag != f {
			return nil, nil
		}
	}
	inF := func(e sql.Expr) (sql.Expr, error) {
		return sql.Map(e, func(n sql.Expr) (sql.Expr, error) {
			cr, ok := n.(*sql.ColumnRef)
			if !ok {
				return n, nil
			}
			s, ok := p.slot(cr.Name)
			if !ok || s.frag != f || cr.Table != "" && !strings.EqualFold(cr.Table, alias) {
				return nil, fmt.Errorf("core: no column %s in %s for tenant %d", cr, table.Name, tn.ID)
			}
			return s.col.read(""), nil
		})
	}
	where, err := inF(where)
	if err != nil {
		return nil, err
	}
	where = sql.And(append(f.where("", tn.ID), f.live(""), where)...)
	if set == nil {
		return f.remove(where), nil
	}
	up := &sql.UpdateStmt{Table: f.table, Set: make([]sql.Assignment, len(set)), Where: where}
	for i, a := range set {
		v, err := inF(a.Value)
		if err != nil {
			return nil, err
		}
		up.Set[i] = sql.Assignment{Column: slots[i].col.phys, Value: slots[i].col.write(v)}
	}
	return up, nil
}

// phaseBUpdate builds the physical writes for an UPDATE from phase (a)'s
// [__row, set1, set2, ...] tuples, at least one: one UPDATE per fragment
// a SET column lives in (in order of first use) when every row gets the
// same values, else one per fragment and row. A sparse fragment's rows
// are removed instead and its non-NULL new values inserted, which also
// moves a value to or from NULL.
func (p *placement) phaseBUpdate(tenant int64, setAt []int, rows [][]types.Value) []sql.Statement {
	slots := p.slotsAt(setAt)
	touched := p.touched(slots, false)
	dense := touched[:0] // the UPDATEs' fragments, filtered in place
	for _, f := range touched {
		if !f.sparse {
			dense = append(dense, f)
		}
	}
	// A phase (a) value is cast here; one the cast refuses is written as
	// the CAST, which fails the statement.
	stored := func(s slot, v types.Value) sql.Expr {
		if t, ok := s.col.writeType(); ok && !v.IsNull() {
			cv, err := types.Cast(v, t.Kind)
			if err != nil {
				return &sql.CastExpr{X: lit(v), Type: t}
			}
			v = cv
		}
		return lit(v)
	}
	update := func(f *fragment, vals []types.Value, rowPred sql.Expr) sql.Statement {
		up := &sql.UpdateStmt{Table: f.table, Where: sql.And(append(f.where("", tenant), rowPred)...)}
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
		out = append(out, f.remove(sql.And(append(f.where("", tenant), inList(colRef("", "Row"), rowIDs))...)))
		ins := f.spine()
		ins.Columns = append(ins.Columns, s.col.phys)
		for _, r := range rows {
			if !r[i+1].IsNull() {
				ins.Rows = append(ins.Rows, append(f.spineValues(tenant, lit(r[0]), intLit(0), len(ins.Columns)), stored(s, r[i+1])))
			}
		}
		if len(ins.Rows) > 0 {
			out = append(out, ins)
		}
	}
	if constantSets(rows, len(setAt)) {
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
func (p *placement) phaseBDelete(tenant int64, rows [][]types.Value) []sql.Statement {
	rowIDs := column(rows, 0)
	out := make([]sql.Statement, len(p.frags))
	for i, f := range p.frags {
		out[i] = f.remove(sql.And(append(f.where("", tenant), inList(colRef("", "Row"), rowIDs))...))
	}
	return out
}
