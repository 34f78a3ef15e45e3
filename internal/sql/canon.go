// Canonicalization: turning literal-inlined statements into
// parameterized templates. Application code (and the CRM benchmark
// deck) mostly sends SQL with values inlined — `SELECT * FROM Account
// WHERE Id = 7` — which defeats any text-keyed statement cache: every
// distinct value is a distinct cache key. ExtractParams rewrites such a
// statement in place into its template form (`... WHERE Id = ?`) and
// hands back the extracted values, so the rewrite/plan caches key on
// the template while execution binds the original values as ordinary
// positional parameters. LiftParams does the same to the physical
// statements a template rewrites into, so that tenants whose placements
// have one shape run one physical text.
package sql

import "repro/internal/types"

// ExtractParams canonicalizes st in place for SELECT, INSERT, UPDATE,
// and DELETE: every literal in a parameterizable position (WHERE and
// HAVING trees, UPDATE SET values, INSERT VALUES rows — including inside
// IN lists, LIKE patterns, function arguments, and CASTs, but never inside
// subqueries) is replaced by a positional Param, and the displaced values
// are returned in Param index order (the render order). A NULL in a
// VALUES row stays: it is a word of the text, and what an INSERT writes
// may depend on it (a sparse fragment stores no NULL).
//
// It returns (nil, false), leaving st untouched, when st is not a
// candidate: another statement kind (DDL changes the catalog), a
// statement that already carries explicit Params (mixing caller params
// with extracted ones would renumber the caller's indexes), or one with
// no literals to extract.
func ExtractParams(st Statement) ([]types.Value, bool) {
	return extract(st).finish()
}

// extract is ExtractParams' walk; its canonizer holds no slots where st
// is not a candidate.
func extract(st Statement) *canonizer {
	c := &canonizer{}
	if hasParams(st) {
		return c
	}
	switch s := st.(type) {
	case *SelectStmt:
		s.Where = c.walk(s.Where, true)
		s.Having = c.walk(s.Having, true)
	case *InsertStmt:
		c.values(s.Rows)
		for _, r := range s.Rows {
			for i := range r {
				r[i] = c.walk(r[i], true)
			}
		}
	case *UpdateStmt:
		c.update(s)
	case *DeleteStmt:
		s.Where = c.walk(s.Where, true)
	}
	return c
}

// Slot is what a parameter of a lifted statement binds to: parameter
// Param of the original, or, where Param is -1, the value Val of the
// literal Lit, lifted from the statement.
type Slot struct {
	Param int
	Val   types.Value
	Lit   *Literal
}

// LiftParams is ExtractParams for a physical SELECT, INSERT, UPDATE or DELETE,
// done on a copy (st may share subtrees with other statements) and also
// inside derived tables, JOIN … ON and IN subqueries: it lifts the
// literals and renumbers every parameter, st's own included, into render
// order, as Parse(out.String()) numbers them; slots[i] is what out's
// parameter i binds to. Other statements come back as they are.
func LiftParams(st Statement) (out Statement, slots []Slot) {
	c := &canonizer{deep: true}
	switch s := st.(type) {
	case *SelectStmt:
		return c.selectStmt(s), c.slots
	case *InsertStmt:
		cp := *s
		cp.Rows = make([][]Expr, len(s.Rows))
		c.values(s.Rows)
		for i, r := range s.Rows {
			cp.Rows[i] = c.list(r, true)
		}
		return &cp, c.slots
	case *UpdateStmt:
		cp := *s
		cp.Set = append([]Assignment(nil), s.Set...)
		c.update(&cp)
		return &cp, c.slots
	case *DeleteStmt:
		cp := *s
		cp.Where = c.walk(s.Where, true)
		return &cp, c.slots
	}
	return st, nil
}

// canonizer carries one walk's Params, a slot each in render order; a
// deep walk (LiftParams) enters subqueries. keepNull leaves NULL literals
// inline (an INSERT's). Params are cut from slab, a few allocations for
// a statement of many.
type canonizer struct {
	slots    []Slot
	deep     bool
	keepNull bool
	slab     []Param
}

// values readies c for an INSERT's VALUES rows: NULLs stay, and there is
// a slot for about every value.
func (c *canonizer) values(rows [][]Expr) {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	c.keepNull, c.slots = true, make([]Slot, 0, n)
}

func (c *canonizer) finish() ([]types.Value, bool) {
	if len(c.slots) == 0 {
		return nil, false
	}
	vals := make([]types.Value, len(c.slots))
	for i, s := range c.slots {
		vals[i] = s.Val
	}
	return vals, true
}

func (c *canonizer) param(s Slot) Expr {
	c.slots = append(c.slots, s)
	if len(c.slab) == 0 {
		c.slab = make([]Param, min(max(len(c.slots), 4), 256))
	}
	p := &c.slab[0]
	c.slab = c.slab[1:]
	p.Index = len(c.slots) - 1
	return p
}

// update lifts an UPDATE's SET values, then its WHERE, in place.
func (c *canonizer) update(s *UpdateStmt) {
	for i := range s.Set {
		s.Set[i].Value = c.walk(s.Set[i].Value, true)
	}
	s.Where = c.walk(s.Where, true)
}

func (c *canonizer) list(es []Expr, lift bool) []Expr {
	out := append([]Expr(nil), es...)
	for i := range out {
		out[i] = c.walk(out[i], lift)
	}
	return out
}

// selectStmt is the deep walk of one SELECT block, in render order.
// Literals stay inline where nothing is lifted: projections, GROUP BY,
// ORDER BY.
func (c *canonizer) selectStmt(s *SelectStmt) *SelectStmt {
	out := *s
	out.Items = append([]SelectItem(nil), s.Items...)
	for i := range out.Items {
		out.Items[i].Expr = c.walk(out.Items[i].Expr, false)
	}
	out.From = make([]TableRef, len(s.From))
	for i, tr := range s.From {
		out.From[i] = c.tableRef(tr)
	}
	out.Where = c.walk(s.Where, true)
	out.GroupBy = c.list(s.GroupBy, false)
	out.Having = c.walk(s.Having, true)
	out.OrderBy = append([]OrderItem(nil), s.OrderBy...)
	for i := range out.OrderBy {
		out.OrderBy[i].Expr = c.walk(out.OrderBy[i].Expr, false)
	}
	return &out
}

func (c *canonizer) tableRef(tr TableRef) TableRef {
	switch t := tr.(type) {
	case *SubqueryTable:
		return &SubqueryTable{Select: c.selectStmt(t.Select), Alias: t.Alias}
	case *JoinTable:
		l, r := c.tableRef(t.Left), c.tableRef(t.Right)
		return &JoinTable{Left: l, Right: r, Type: t.Type, On: c.walk(t.On, true)}
	}
	return tr
}

// walk replaces Params, and literals where lift is set, with fresh Params
// bottom-up, copying every node above one. Outside a deep walk subqueries
// (IN subqueries here; derived tables never appear below a WHERE) are left
// intact: their literals stay inlined and simply make the template text
// more specific.
func (c *canonizer) walk(e Expr, lift bool) Expr {
	switch e := e.(type) {
	case *Literal:
		if !lift || c.keepNull && e.Val.IsNull() {
			return e
		}
		return c.param(Slot{Param: -1, Val: e.Val, Lit: e})
	case *Param:
		return c.param(Slot{Param: e.Index})
	case *BinaryExpr:
		cp := *e
		cp.L, cp.R = c.walk(e.L, lift), c.walk(e.R, lift)
		return &cp
	case *UnaryExpr:
		cp := *e
		cp.X = c.walk(e.X, lift)
		return &cp
	case *IsNullExpr:
		cp := *e
		cp.X = c.walk(e.X, lift)
		return &cp
	case *InExpr:
		cp := *e
		cp.X, cp.List = c.walk(e.X, lift), c.list(e.List, lift)
		if c.deep && e.Subquery != nil {
			cp.Subquery = c.selectStmt(e.Subquery)
		}
		return &cp
	case *LikeExpr:
		cp := *e
		cp.X, cp.Pattern = c.walk(e.X, lift), c.walk(e.Pattern, lift)
		return &cp
	case *FuncExpr:
		cp := *e
		cp.Args = c.list(e.Args, lift)
		return &cp
	case *CastExpr:
		cp := *e
		cp.X = c.walk(e.X, lift)
		return &cp
	}
	return e
}

// hasParams reports whether any expression anywhere in n, a statement,
// table reference or expression (subqueries and projection lists
// included), is already a Param. Such statements are never
// canonicalized: the caller's positional values bind to the existing
// indexes, and extraction would interleave new indexes with theirs.
func hasParams(n any) bool {
	switch n := n.(type) {
	case *Param:
		return true
	case *SelectStmt:
		for _, it := range n.Items {
			if hasParams(it.Expr) {
				return true
			}
		}
		for _, o := range n.OrderBy {
			if hasParams(o.Expr) {
				return true
			}
		}
		for _, f := range n.From {
			if hasParams(f) {
				return true
			}
		}
		return anyParams(n.GroupBy) || hasParams(n.Where) || hasParams(n.Having)
	case *UpdateStmt:
		for _, a := range n.Set {
			if hasParams(a.Value) {
				return true
			}
		}
		return hasParams(n.Where)
	case *DeleteStmt:
		return hasParams(n.Where)
	case *InsertStmt:
		for _, r := range n.Rows {
			if anyParams(r) {
				return true
			}
		}
		return false
	case *SubqueryTable:
		return hasParams(n.Select)
	case *JoinTable:
		return hasParams(n.Left) || hasParams(n.Right) || hasParams(n.On)
	case *BinaryExpr:
		return hasParams(n.L) || hasParams(n.R)
	case *UnaryExpr:
		return hasParams(n.X)
	case *IsNullExpr:
		return hasParams(n.X)
	case *CastExpr:
		return hasParams(n.X)
	case *LikeExpr:
		return hasParams(n.X) || hasParams(n.Pattern)
	case *InExpr:
		return hasParams(n.X) || anyParams(n.List) || n.Subquery != nil && hasParams(n.Subquery)
	case *FuncExpr:
		return anyParams(n.Args)
	}
	return false
}

func anyParams(es []Expr) bool {
	for _, e := range es {
		if hasParams(e) {
			return true
		}
	}
	return false
}
