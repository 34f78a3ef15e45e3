package sql

import "slices"

// Walk calls fn on e and, where fn returns true, on e's children,
// pre-order in render order. It does not enter an IN subquery: fn sees
// the InExpr, and a caller that wants the subquery walks it itself.
func Walk(e Expr, fn func(Expr) bool) {
	if e != nil && fn(e) {
		edit(e, false, func(c *Expr) { Walk(*c, fn) })
	}
}

// Map rebuilds e bottom-up: it maps e's children in render order, then
// returns what fn returns for a copy of e holding the mapped children
// (for a leaf, e itself; fn may write a copy, not a leaf). e is never
// written. An IN subquery is not entered: the copy shares it, and fn may
// replace it. The first error stops the map.
func Map(e Expr, fn func(Expr) (Expr, error)) (Expr, error) {
	if e == nil {
		return nil, nil
	}
	var err error
	e = edit(e, true, func(c *Expr) {
		if err == nil {
			*c, err = Map(*c, fn)
		}
	})
	if err != nil {
		return nil, err
	}
	return fn(e)
}

// edit calls fn with a pointer to each child of e in render order and
// returns e — or, with cp set, a copy of e whose children fn is handed,
// so that fn writes the copy and never e.
func edit(e Expr, cp bool, fn func(*Expr)) Expr {
	switch e := e.(type) {
	case *BinaryExpr:
		e = clone(cp, e)
		fn(&e.L)
		fn(&e.R)
		return e
	case *UnaryExpr:
		e = clone(cp, e)
		fn(&e.X)
		return e
	case *IsNullExpr:
		e = clone(cp, e)
		fn(&e.X)
		return e
	case *InExpr:
		if e = clone(cp, e); cp {
			e.List = slices.Clone(e.List)
		}
		fn(&e.X)
		for i := range e.List {
			fn(&e.List[i])
		}
		return e
	case *LikeExpr:
		e = clone(cp, e)
		fn(&e.X)
		fn(&e.Pattern)
		return e
	case *FuncExpr:
		if e = clone(cp, e); cp {
			e.Args = slices.Clone(e.Args)
		}
		for i := range e.Args {
			fn(&e.Args[i])
		}
		return e
	case *CastExpr:
		e = clone(cp, e)
		fn(&e.X)
		return e
	}
	return e
}

// clone returns a copy of *p where cp is set, else p.
func clone[T any](cp bool, p *T) *T {
	if !cp {
		return p
	}
	c := *p
	return &c
}

// A clause is the kind of expression position clauses hands out.
type clause uint8

const (
	clauseOutput clause = iota // a SELECT item, GROUP BY or ORDER BY key
	clauseOn                   // JOIN … ON
	clauseValue                // WHERE, HAVING, an UPDATE SET or INSERT VALUES value
)

// WalkStatement calls expr with each expression position of st (a
// SELECT, INSERT, UPDATE or DELETE; nothing for another statement) and
// from with each FROM entry that is not a join, in render order: a
// SELECT's items, its FROM entries with each JOIN … ON after its right
// side, WHERE, GROUP BY, HAVING and ORDER BY; an UPDATE's SET values and
// WHERE; a DELETE's WHERE; an INSERT's VALUES rows. Derived tables and IN
// subqueries are not entered: from sees the SubqueryTable, expr the
// expression holding the InExpr. Either callback may be nil.
func WalkStatement(st Statement, expr func(Expr), from func(TableRef)) {
	clauses(st, false, func(_ clause, e *Expr) {
		if expr != nil {
			expr(*e)
		}
	}, func(t *TableRef) {
		if from != nil {
			from(*t)
		}
	})
}

// MapStatement returns a copy of st whose expression positions and FROM
// entries are what expr and from return for them, called as
// WalkStatement calls them; a nil callback keeps what it would see. st is
// never written: the copy has slices and join nodes of its own. Another
// statement kind comes back as it is. The first error stops the map.
func MapStatement(st Statement, expr func(Expr) (Expr, error), from func(TableRef) (TableRef, error)) (Statement, error) {
	var err error
	out := clauses(st, true, func(_ clause, e *Expr) {
		if err == nil && expr != nil {
			*e, err = expr(*e)
		}
	}, func(t *TableRef) {
		if err == nil && from != nil {
			*t, err = from(*t)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// clauses is the one list of a statement's expression positions: it
// calls expr with a pointer to each that holds an expression, and from
// with one to each FROM entry that is not a join, in render order (see
// WalkStatement), and returns st — or, with cp set, a copy of st, and of
// the slices and join nodes holding those positions, that the pointers
// point into.
func clauses(st Statement, cp bool, expr func(clause, *Expr), from func(*TableRef)) Statement {
	at := func(k clause, e *Expr) {
		if *e != nil {
			expr(k, e)
		}
	}
	switch s := st.(type) {
	case *SelectStmt:
		if s = clone(cp, s); cp {
			s.Items, s.From = slices.Clone(s.Items), slices.Clone(s.From)
			s.GroupBy, s.OrderBy = slices.Clone(s.GroupBy), slices.Clone(s.OrderBy)
		}
		for i := range s.Items {
			at(clauseOutput, &s.Items[i].Expr)
		}
		for i := range s.From {
			fromEntry(&s.From[i], cp, at, from)
		}
		at(clauseValue, &s.Where)
		for i := range s.GroupBy {
			at(clauseOutput, &s.GroupBy[i])
		}
		at(clauseValue, &s.Having)
		for i := range s.OrderBy {
			at(clauseOutput, &s.OrderBy[i].Expr)
		}
		return s
	case *UpdateStmt:
		if s = clone(cp, s); cp {
			s.Set = slices.Clone(s.Set)
		}
		for i := range s.Set {
			at(clauseValue, &s.Set[i].Value)
		}
		at(clauseValue, &s.Where)
		return s
	case *DeleteStmt:
		s = clone(cp, s)
		at(clauseValue, &s.Where)
		return s
	case *InsertStmt:
		if s = clone(cp, s); cp {
			s.Rows = slices.Clone(s.Rows)
			for i, r := range s.Rows {
				s.Rows[i] = slices.Clone(r)
			}
		}
		for _, r := range s.Rows {
			for i := range r {
				at(clauseValue, &r[i])
			}
		}
		return s
	}
	return st
}

// fromEntry is clauses over one FROM entry: a join's sides, then its ON.
func fromEntry(t *TableRef, cp bool, at func(clause, *Expr), from func(*TableRef)) {
	j, ok := (*t).(*JoinTable)
	if !ok {
		from(t)
		return
	}
	if j = clone(cp, j); cp {
		*t = j
	}
	fromEntry(&j.Left, cp, at, from)
	fromEntry(&j.Right, cp, at, from)
	at(clauseOn, &j.On)
}

// SplitConjuncts appends the conjuncts of e's tree of ANDs to out, left
// to right; a nil e has none.
func SplitConjuncts(e Expr, out []Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return SplitConjuncts(b.R, SplitConjuncts(b.L, out))
	}
	if e != nil {
		out = append(out, e)
	}
	return out
}

// And joins conjuncts into a left-deep tree of ANDs, skipping nils; it
// returns nil where none is left.
func And(conjs ...Expr) Expr {
	var out Expr
	for _, c := range conjs {
		switch {
		case c == nil:
		case out == nil:
			out = c
		default:
			out = &BinaryExpr{Op: OpAnd, L: out, R: c}
		}
	}
	return out
}
