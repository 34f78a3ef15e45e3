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
		s = sql.Unnest(s, p.provides)
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

	// Over an aggregate, HAVING, the items and ORDER BY resolve against
	// its output.
	node, sc := input, inScope
	if hasAgg {
		agg, err := p.planAggregate(input, inScope, s, items)
		if err != nil {
			return nil, err
		}
		node, sc = agg, &scope{agg: agg}
		if s.Having != nil {
			cond, err := p.resolveExpr(s.Having, sc)
			if err != nil {
				return nil, err
			}
			node = &Filter{Child: node, Cond: cond}
		}
	}
	var outExprs []Scalar
	var outCols []ColInfo
	for _, it := range items {
		e, err := p.resolveExpr(it.Expr, sc)
		if err != nil {
			return nil, err
		}
		outExprs = append(outExprs, e)
		outCols = append(outCols, ColInfo{Name: itemName(it), Type: exprType(it.Expr, inScope)})
	}

	// ORDER BY: keys matching a select item (by alias or printed text)
	// sort the projected output; anything else becomes a hidden
	// projected column that a final projection trims away.
	visible := len(outExprs)
	var sortKeys []SortKey
	for _, o := range s.OrderBy {
		idx := matchSelectItem(o.Expr, items)
		if idx < 0 {
			e, err := p.resolveExpr(o.Expr, sc)
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
func (p *Planner) planAggregate(input Node, inScope *scope, s *sql.SelectStmt, items []sql.SelectItem) (*HashAggregate, error) {
	agg := &HashAggregate{Child: input}
	for _, g := range s.GroupBy {
		e, err := p.resolveExpr(g, inScope)
		if err != nil {
			return nil, err
		}
		agg.GroupBy = append(agg.GroupBy, e)
		name := g.String()
		if cr, ok := g.(*sql.ColumnRef); ok {
			name = cr.Name
		}
		agg.Cols = append(agg.Cols, ColInfo{Name: name, Type: exprType(g, inScope)})
	}
	agg.groupASTs = append(agg.groupASTs, s.GroupBy...)

	seen := map[string]bool{}
	var err error
	collect := func(n sql.Expr) bool {
		e, ok := n.(*sql.FuncExpr)
		if !ok || err != nil {
			return err == nil
		}
		f, isAgg := aggFuncs[e.Name]
		if !isAgg {
			err = fmt.Errorf("plan: unknown function %s", e.Name)
			return false
		}
		key := strings.ToLower(e.String())
		if seen[key] {
			return false
		}
		seen[key] = true
		spec := AggSpec{Func: f}
		switch {
		case e.Star && f != AggCount:
			err = fmt.Errorf("plan: %s(*) is not valid", e.Name)
		case e.Star:
			spec.Func = AggCountStar
		case len(e.Args) != 1:
			err = fmt.Errorf("plan: %s takes one argument", e.Name)
		default:
			spec.Arg, err = p.resolveExpr(e.Args[0], inScope)
		}
		agg.Aggs = append(agg.Aggs, spec)
		agg.aggASTs = append(agg.aggASTs, e)
		agg.Cols = append(agg.Cols, ColInfo{Name: e.String(), Type: exprType(e, inScope)})
		return false
	}
	var exprs []sql.Expr
	for _, it := range items {
		exprs = append(exprs, it.Expr)
	}
	exprs = append(exprs, s.Having)
	for _, o := range s.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for _, e := range exprs {
		if containsAgg(e) {
			sql.Walk(e, collect)
		}
	}
	return agg, err
}

// column returns the output column of a that e names — a group key,
// matched by text or, unqualified, by a group key's column name, or an
// aggregate call — or -1.
func (a *HashAggregate) column(e sql.Expr) int {
	txt := strings.ToLower(e.String())
	cr, _ := e.(*sql.ColumnRef)
	for i, g := range a.groupASTs {
		if strings.ToLower(g.String()) == txt {
			return i
		}
		if gr, ok := g.(*sql.ColumnRef); ok && cr != nil && cr.Table == "" && strings.EqualFold(gr.Name, cr.Name) {
			return i
		}
	}
	for j, x := range a.aggASTs {
		if strings.ToLower(x.String()) == txt {
			return len(a.GroupBy) + j
		}
	}
	return -1
}
