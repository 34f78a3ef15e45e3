package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/sql"
)

// errNotFlattenable signals that a query shape cannot be emitted as a
// flat single block (the paper notes the transformation "is not as
// clean" for complex shapes); the caller falls back to the generic
// nested form.
var errNotFlattenable = errors.New("core: query not flattenable")

// flattenedSelect emits the pre-flattened, predicate-ordered physical
// SQL of §6.1's Test 1: chunk references spliced directly into the
// outer FROM, aligning and meta-data conjuncts merged into WHERE in a
// deliberate order. This is what the transformation layer must produce
// for databases whose optimizer cannot unnest the generic form.
func (l *FragmentLayout) flattenedSelect(tn *Tenant, sel *sql.SelectStmt) (*sql.SelectStmt, error) {
	for _, tr := range sel.From {
		if _, ok := tr.(*sql.NamedTable); !ok {
			return nil, errNotFlattenable
		}
	}
	usages, err := analyzeSelect(l.st, tn, sel)
	if err != nil {
		return nil, err
	}

	type mapped struct {
		u       *tableUsage
		p       *placement
		frags   []*fragment // the fragments the statement reads, anchor first
		aliases []string    // their physical aliases
	}
	var maps []*mapped
	var from []sql.TableRef
	var metaConjs, alignConjs []sql.Expr
	for ui, u := range usages {
		p := u.view.place
		m := &mapped{u: u, p: p, frags: p.touched(p.slotsAt(u.usedAt()), true)}
		m.aliases = fragAliases(fmt.Sprintf("t%dc", ui), len(m.frags))
		refs := make([]sql.TableRef, len(m.frags))
		for gi, f := range m.frags {
			refs[gi] = &sql.NamedTable{Name: f.table, Alias: m.aliases[gi]}
			metaConjs = append(metaConjs, f.where(m.aliases[gi], tn.ID)...)
			if gi == 0 {
				metaConjs = append(metaConjs, f.live(m.aliases[0]))
			} else {
				alignConjs = append(alignConjs, eq(colRef(m.aliases[gi], "Row"), colRef(m.aliases[0], "Row")))
			}
		}
		if l.metaFirst {
			// The "careless" emission of Test 1: chunk references in
			// reverse order, so a FROM-order-driven optimizer starts
			// from a data chunk instead of the selective anchor.
			for i, j := 0, len(refs)-1; i < j; i, j = i+1, j-1 {
				refs[i], refs[j] = refs[j], refs[i]
			}
		}
		from = append(from, refs...)
		maps = append(maps, m)
	}

	// Physical expression for a (usage, column) pair.
	physExpr := func(m *mapped, col string) (sql.Expr, error) {
		s, ok := m.p.slot(col)
		if !ok {
			return nil, fmt.Errorf("core: column %s of %s is unassigned", col, m.u.logical.Name)
		}
		i := indexOf(m.frags, s.frag)
		if i < 0 {
			return nil, fmt.Errorf("core: chunk of column %s not included", col)
		}
		return s.col.read(m.aliases[i]), nil
	}
	provides := func(m *mapped, col string) bool {
		_, ok := m.p.slot(col)
		return ok
	}
	rewrite := func(e sql.Expr) (sql.Expr, error) {
		return mapColumnRefs(e, func(cr *sql.ColumnRef) (sql.Expr, error) {
			if cr.Table != "" {
				for _, m := range maps {
					if strings.EqualFold(m.u.alias, cr.Table) {
						return physExpr(m, cr.Name)
					}
				}
				return nil, fmt.Errorf("core: unknown alias %s", cr.Table)
			}
			var owner *mapped
			for _, m := range maps {
				if provides(m, cr.Name) {
					if owner != nil {
						return nil, fmt.Errorf("core: ambiguous column %s", cr.Name)
					}
					owner = m
				}
			}
			if owner == nil {
				return nil, fmt.Errorf("core: unknown column %s", cr.Name)
			}
			return physExpr(owner, cr.Name)
		})
	}

	out := &sql.SelectStmt{Distinct: sel.Distinct, From: from, Limit: sel.Limit}
	for _, it := range sel.Items {
		if it.Star {
			// Star projections keep the generic nested form, which
			// exposes logical column names naturally.
			return nil, errNotFlattenable
		}
		e, err := rewrite(it.Expr)
		if err != nil {
			return nil, err
		}
		alias := it.Alias
		if alias == "" {
			if cr, ok := it.Expr.(*sql.ColumnRef); ok {
				alias = cr.Name
			}
		}
		out.Items = append(out.Items, sql.SelectItem{Expr: e, Alias: alias})
	}

	var userConjs []sql.Expr
	if sel.Where != nil {
		var raw []sql.Expr
		splitConjunctsCore(sel.Where, &raw)
		for _, c := range raw {
			c, err := rewriteInSubqueries(c, func(s *sql.SelectStmt) (*sql.SelectStmt, error) {
				return genericSelect(l.st, tn, s)
			})
			if err != nil {
				return nil, err
			}
			rc, err := rewrite(c)
			if err != nil {
				return nil, err
			}
			userConjs = append(userConjs, rc)
		}
	}
	if l.metaFirst {
		out.Where = and(append(append(metaConjs, alignConjs...), userConjs...)...)
	} else {
		out.Where = and(append(append(userConjs, metaConjs...), alignConjs...)...)
	}

	for _, g := range sel.GroupBy {
		e, err := rewrite(g)
		if err != nil {
			return nil, err
		}
		out.GroupBy = append(out.GroupBy, e)
	}
	if sel.Having != nil {
		h, err := rewrite(sel.Having)
		if err != nil {
			return nil, err
		}
		out.Having = h
	}
	for _, o := range sel.OrderBy {
		e, err := rewrite(o.Expr)
		if err != nil {
			return nil, err
		}
		out.OrderBy = append(out.OrderBy, sql.OrderItem{Expr: e, Desc: o.Desc})
	}
	return out, nil
}

// splitConjunctsCore flattens AND trees (core-local copy; plan has its
// own unexported version).
func splitConjunctsCore(e sql.Expr, out *[]sql.Expr) {
	if b, ok := e.(*sql.BinaryExpr); ok && b.Op == sql.OpAnd {
		splitConjunctsCore(b.L, out)
		splitConjunctsCore(b.R, out)
		return
	}
	*out = append(*out, e)
}

// mapColumnRefs rebuilds an expression, replacing every column
// reference through fn.
func mapColumnRefs(e sql.Expr, fn func(*sql.ColumnRef) (sql.Expr, error)) (sql.Expr, error) {
	switch e := e.(type) {
	case nil:
		return nil, nil
	case *sql.ColumnRef:
		return fn(e)
	case *sql.Literal, *sql.Param:
		return e, nil
	case *sql.BinaryExpr:
		ln, err := mapColumnRefs(e.L, fn)
		if err != nil {
			return nil, err
		}
		rn, err := mapColumnRefs(e.R, fn)
		if err != nil {
			return nil, err
		}
		return &sql.BinaryExpr{Op: e.Op, L: ln, R: rn}, nil
	case *sql.UnaryExpr:
		x, err := mapColumnRefs(e.X, fn)
		if err != nil {
			return nil, err
		}
		return &sql.UnaryExpr{Op: e.Op, X: x}, nil
	case *sql.IsNullExpr:
		x, err := mapColumnRefs(e.X, fn)
		if err != nil {
			return nil, err
		}
		return &sql.IsNullExpr{X: x, Not: e.Not}, nil
	case *sql.LikeExpr:
		x, err := mapColumnRefs(e.X, fn)
		if err != nil {
			return nil, err
		}
		p, err := mapColumnRefs(e.Pattern, fn)
		if err != nil {
			return nil, err
		}
		return &sql.LikeExpr{X: x, Pattern: p, Not: e.Not}, nil
	case *sql.CastExpr:
		x, err := mapColumnRefs(e.X, fn)
		if err != nil {
			return nil, err
		}
		return &sql.CastExpr{X: x, Type: e.Type}, nil
	case *sql.FuncExpr:
		out := &sql.FuncExpr{Name: e.Name, Star: e.Star}
		for _, a := range e.Args {
			an, err := mapColumnRefs(a, fn)
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, an)
		}
		return out, nil
	case *sql.InExpr:
		x, err := mapColumnRefs(e.X, fn)
		if err != nil {
			return nil, err
		}
		out := &sql.InExpr{X: x, Not: e.Not, Subquery: e.Subquery}
		for _, i := range e.List {
			in, err := mapColumnRefs(i, fn)
			if err != nil {
				return nil, err
			}
			out.List = append(out.List, in)
		}
		return out, nil
	}
	return e, nil
}
