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
	if s, ok := st.(*InsertStmt); ok {
		c.values(s.Rows)
	}
	clauses(st, false, func(k clause, e *Expr) {
		if k == clauseValue {
			*e, _ = Map(*e, c.node(true))
		}
	}, func(*TableRef) {})
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
	if s, ok := st.(*InsertStmt); ok {
		c.values(s.Rows)
	}
	return c.lift(st), c.slots
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

// lift is the deep walk of a statement, on a copy, in render order:
// literals stay inline where nothing is lifted (projections, GROUP BY,
// ORDER BY), and derived tables are lifted in place.
func (c *canonizer) lift(st Statement) Statement {
	return clauses(st, true, func(k clause, e *Expr) {
		*e, _ = Map(*e, c.node(k != clauseOutput))
	}, func(t *TableRef) {
		if sub, ok := (*t).(*SubqueryTable); ok {
			*t = &SubqueryTable{Select: c.lift(sub.Select).(*SelectStmt), Alias: sub.Alias}
		}
	})
}

// node is the canonizer's step of Map: it replaces a Param, and a literal
// where lift is set, with a fresh Param. Outside a deep walk IN
// subqueries are left intact: their literals stay inlined and simply make
// the template text more specific.
func (c *canonizer) node(lift bool) func(Expr) (Expr, error) {
	return func(e Expr) (Expr, error) {
		switch e := e.(type) {
		case *Literal:
			if lift && !(c.keepNull && e.Val.IsNull()) {
				return c.param(Slot{Param: -1, Val: e.Val, Lit: e}), nil
			}
		case *Param:
			return c.param(Slot{Param: e.Index}), nil
		case *InExpr:
			if c.deep && e.Subquery != nil {
				e.Subquery = c.lift(e.Subquery).(*SelectStmt) // e is Map's copy
			}
		}
		return e, nil
	}
}

// hasParams reports whether any expression anywhere in st (subqueries
// and projection lists included) is already a Param. Such statements are
// never canonicalized: the caller's positional values bind to the
// existing indexes, and extraction would interleave new indexes with
// theirs.
func hasParams(st Statement) (found bool) {
	WalkStatement(st, func(e Expr) {
		Walk(e, func(n Expr) bool {
			switch n := n.(type) {
			case *Param:
				found = true
			case *InExpr:
				found = found || n.Subquery != nil && hasParams(n.Subquery)
			}
			return !found
		})
	}, func(t TableRef) {
		if sub, ok := t.(*SubqueryTable); ok {
			found = found || hasParams(sub.Select)
		}
	})
	return found
}
