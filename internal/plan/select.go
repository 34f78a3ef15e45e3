package plan

import (
	"fmt"
	"strings"

	"repro/internal/sql"
)

// Values produces literal rows (used for FROM-less SELECTs and INSERT
// sources).
type Values struct {
	Rows [][]Scalar
	Cols []ColInfo
}

// Schema implements Node.
func (v *Values) Schema() []ColInfo { return v.Cols }

// Children implements Node.
func (v *Values) Children() []Node { return nil }

// Label implements Node.
func (v *Values) Label() string { return "VALUES" }

// Detail implements Node.
func (v *Values) Detail() string { return fmt.Sprintf("%d rows", len(v.Rows)) }

// planSelect compiles a SELECT into a physical plan.
func (p *Planner) planSelect(s *sql.SelectStmt) (Node, error) {
	if p.Mode == Sophisticated {
		var err error
		s, err = p.flattenSubqueries(s)
		if err != nil {
			return nil, err
		}
	}
	input, err := p.planFrom(s)
	if err != nil {
		return nil, err
	}
	inScope := &scope{cols: input.Schema()}

	// Expand stars now so the aggregate check sees real expressions.
	items, err := expandStars(s.Items, inScope)
	if err != nil {
		return nil, err
	}

	hasAgg := len(s.GroupBy) > 0 || s.Having != nil
	for _, it := range items {
		if containsAgg(it.Expr) {
			hasAgg = true
		}
	}
	for _, o := range s.OrderBy {
		if containsAgg(o.Expr) {
			hasAgg = true
		}
	}

	var node Node
	var outScope *scope
	var outExprs []Scalar
	var outCols []ColInfo

	if hasAgg {
		node, outScope, err = p.planAggregate(input, inScope, s, items)
		if err != nil {
			return nil, err
		}
		agg := node.(*HashAggregate)
		rw := &aggRewriter{p: p, agg: agg, inScope: inScope}
		// HAVING runs over the aggregate output.
		if s.Having != nil {
			cond, err := rw.rewrite(s.Having)
			if err != nil {
				return nil, err
			}
			node = &Filter{Child: node, Cond: cond}
		}
		for _, it := range items {
			e, err := rw.rewrite(it.Expr)
			if err != nil {
				return nil, err
			}
			outExprs = append(outExprs, e)
			outCols = append(outCols, ColInfo{Name: itemName(it), Type: exprType(it.Expr, inScope)})
		}
		_ = outScope
	} else {
		node = input
		for _, it := range items {
			e, err := p.resolveExpr(it.Expr, inScope)
			if err != nil {
				return nil, err
			}
			outExprs = append(outExprs, e)
			outCols = append(outCols, ColInfo{Name: itemName(it), Type: exprType(it.Expr, inScope)})
		}
	}

	// ORDER BY: keys matching a select item (by alias or printed text)
	// sort the projected output; anything else becomes a hidden
	// projected column that a final projection trims away.
	visible := len(outExprs)
	var sortKeys []SortKey
	for _, o := range s.OrderBy {
		idx := matchSelectItem(o.Expr, items)
		if idx < 0 {
			var e Scalar
			var err error
			if hasAgg {
				rw := &aggRewriter{p: p, agg: node.(aggChildFinder).findAgg(), inScope: inScope}
				e, err = rw.rewrite(o.Expr)
			} else {
				e, err = p.resolveExpr(o.Expr, inScope)
			}
			if err != nil {
				return nil, err
			}
			outExprs = append(outExprs, e)
			outCols = append(outCols, ColInfo{Name: o.Expr.String()})
			idx = len(outExprs) - 1
		}
		sortKeys = append(sortKeys, SortKey{Col: idx, Desc: o.Desc})
	}

	node = &Project{Child: node, Exprs: outExprs, Cols: outCols}
	if s.Distinct {
		node = &Distinct{Child: node}
	}
	if len(sortKeys) > 0 {
		node = &Sort{Child: node, Keys: sortKeys}
	}
	if visible < len(outExprs) {
		trimmed := make([]Scalar, visible)
		for i := 0; i < visible; i++ {
			trimmed[i] = &ColRef{Idx: i, Name: outCols[i].Name}
		}
		node = &Project{Child: node, Exprs: trimmed, Cols: outCols[:visible]}
	}
	if s.Limit != nil {
		node = &Limit{Child: node, N: *s.Limit}
	}
	PruneColumns(node)
	return node, nil
}

// aggChildFinder lets the ORDER BY path locate the aggregate under an
// optional HAVING filter.
type aggChildFinder interface{ findAgg() *HashAggregate }

func (a *HashAggregate) findAgg() *HashAggregate { return a }
func (f *Filter) findAgg() *HashAggregate {
	if ac, ok := f.Child.(aggChildFinder); ok {
		return ac.findAgg()
	}
	return nil
}

func itemName(it sql.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*sql.ColumnRef); ok {
		return cr.Name
	}
	return it.Expr.String()
}

func expandStars(items []sql.SelectItem, sc *scope) ([]sql.SelectItem, error) {
	var out []sql.SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		matched := false
		for _, c := range sc.cols {
			if c.Hidden {
				continue
			}
			if it.StarQualifier != "" && !strings.EqualFold(c.Qual, it.StarQualifier) {
				continue
			}
			out = append(out, sql.SelectItem{
				Expr:  &sql.ColumnRef{Table: c.Qual, Name: c.Name},
				Alias: c.Name,
			})
			matched = true
		}
		if !matched {
			return nil, fmt.Errorf("plan: %s.* matches no columns", it.StarQualifier)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("plan: empty select list")
	}
	return out, nil
}

// matchSelectItem finds the select item an ORDER BY key refers to,
// either by alias or by identical printed text.
func matchSelectItem(e sql.Expr, items []sql.SelectItem) int {
	if cr, ok := e.(*sql.ColumnRef); ok && cr.Table == "" {
		for i, it := range items {
			if strings.EqualFold(itemName(it), cr.Name) {
				return i
			}
		}
	}
	txt := strings.ToLower(e.String())
	for i, it := range items {
		if strings.ToLower(it.Expr.String()) == txt {
			return i
		}
	}
	return -1
}

// planAggregate builds the HashAggregate node: group-by expressions
// resolved against the input, plus every distinct aggregate call found
// in the select list, HAVING, and ORDER BY.
func (p *Planner) planAggregate(input Node, inScope *scope, s *sql.SelectStmt, items []sql.SelectItem) (Node, *scope, error) {
	agg := &HashAggregate{Child: input}
	for _, g := range s.GroupBy {
		e, err := p.resolveExpr(g, inScope)
		if err != nil {
			return nil, nil, err
		}
		agg.GroupBy = append(agg.GroupBy, e)
		name := g.String()
		if cr, ok := g.(*sql.ColumnRef); ok {
			name = cr.Name
		}
		agg.Cols = append(agg.Cols, ColInfo{Name: name, Type: exprType(g, inScope)})
	}
	agg.groupASTs = append(agg.groupASTs, s.GroupBy...)

	var collect func(e sql.Expr) error
	seen := map[string]bool{}
	collect = func(e sql.Expr) error {
		switch e := e.(type) {
		case *sql.FuncExpr:
			f, isAgg := aggFuncs[e.Name]
			if !isAgg {
				return fmt.Errorf("plan: unknown function %s", e.Name)
			}
			key := strings.ToLower(e.String())
			if seen[key] {
				return nil
			}
			seen[key] = true
			spec := AggSpec{Func: f}
			if e.Star {
				if f != AggCount {
					return fmt.Errorf("plan: %s(*) is not valid", e.Name)
				}
				spec.Func = AggCountStar
			} else {
				if len(e.Args) != 1 {
					return fmt.Errorf("plan: %s takes one argument", e.Name)
				}
				arg, err := p.resolveExpr(e.Args[0], inScope)
				if err != nil {
					return err
				}
				spec.Arg = arg
			}
			agg.Aggs = append(agg.Aggs, spec)
			agg.aggASTs = append(agg.aggASTs, e)
			agg.Cols = append(agg.Cols, ColInfo{Name: e.String(), Type: exprType(e, inScope)})
			return nil
		case *sql.BinaryExpr:
			if err := collect(e.L); err != nil {
				return err
			}
			return collect(e.R)
		case *sql.UnaryExpr:
			return collect(e.X)
		case *sql.IsNullExpr:
			return collect(e.X)
		case *sql.CastExpr:
			return collect(e.X)
		case *sql.LikeExpr:
			if err := collect(e.X); err != nil {
				return err
			}
			return collect(e.Pattern)
		case *sql.InExpr:
			if err := collect(e.X); err != nil {
				return err
			}
			for _, i := range e.List {
				if err := collect(i); err != nil {
					return err
				}
			}
		}
		return nil
	}
	walk := func(e sql.Expr) error {
		if e == nil || !containsAgg(e) {
			return nil
		}
		return collect(e)
	}
	for _, it := range items {
		if err := walk(it.Expr); err != nil {
			return nil, nil, err
		}
	}
	if err := walk(s.Having); err != nil {
		return nil, nil, err
	}
	for _, o := range s.OrderBy {
		if err := walk(o.Expr); err != nil {
			return nil, nil, err
		}
	}
	return agg, &scope{cols: agg.Cols}, nil
}

// aggRewriter rewrites post-aggregation expressions: group-by
// expressions and aggregate calls become column references into the
// HashAggregate output; anything else must be composed of those.
type aggRewriter struct {
	p       *Planner
	agg     *HashAggregate
	inScope *scope
}

func (rw *aggRewriter) rewrite(e sql.Expr) (Scalar, error) {
	txt := strings.ToLower(e.String())
	for i, g := range rw.agg.groupASTs {
		if strings.ToLower(g.String()) == txt {
			return &ColRef{Idx: i, Name: rw.agg.Cols[i].Name}, nil
		}
		// An unqualified reference also matches a qualified group key.
		if cr, ok := e.(*sql.ColumnRef); ok && cr.Table == "" {
			if gr, ok := g.(*sql.ColumnRef); ok && strings.EqualFold(gr.Name, cr.Name) {
				return &ColRef{Idx: i, Name: rw.agg.Cols[i].Name}, nil
			}
		}
	}
	for j, a := range rw.agg.aggASTs {
		if strings.ToLower(a.String()) == txt {
			idx := len(rw.agg.GroupBy) + j
			return &ColRef{Idx: idx, Name: rw.agg.Cols[idx].Name}, nil
		}
	}
	switch e := e.(type) {
	case *sql.Literal:
		return &Const{Val: e.Val}, nil
	case *sql.Param:
		return &ParamRef{Idx: e.Index}, nil
	case *sql.BinaryExpr:
		l, err := rw.rewrite(e.L)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewrite(e.R)
		if err != nil {
			return nil, err
		}
		return &Binary{Op: e.Op, L: l, R: r}, nil
	case *sql.UnaryExpr:
		x, err := rw.rewrite(e.X)
		if err != nil {
			return nil, err
		}
		if e.Op == sql.OpNot {
			return &Not{X: x}, nil
		}
		return &Neg{X: x}, nil
	case *sql.IsNullExpr:
		x, err := rw.rewrite(e.X)
		if err != nil {
			return nil, err
		}
		return &IsNull{X: x, Not: e.Not}, nil
	case *sql.CastExpr:
		x, err := rw.rewrite(e.X)
		if err != nil {
			return nil, err
		}
		return &Cast{X: x, Type: e.Type}, nil
	case *sql.ColumnRef:
		return nil, fmt.Errorf("plan: column %s must appear in GROUP BY or inside an aggregate", e)
	}
	return nil, fmt.Errorf("plan: cannot use %s after aggregation", e)
}
