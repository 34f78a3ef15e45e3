package plan

import (
	"fmt"
	"strings"

	"repro/internal/sql"
	"repro/internal/types"
)

// scope is the column namespace an expression resolves against. Over an
// aggregate's output (agg set), a group key or aggregate call resolves to
// its column of agg wherever it appears, and any other column reference
// is an error.
type scope struct {
	cols []ColInfo
	agg  *HashAggregate
}

// resolveColumn finds the ordinal of a (possibly qualified) column,
// erroring on unknown or ambiguous names.
func (sc *scope) resolveColumn(qual, name string) (int, error) {
	found := -1
	for i, c := range sc.cols {
		if c.Hidden {
			continue // dropped slot: the name is gone, the position is not
		}
		if qual != "" && !strings.EqualFold(c.Qual, qual) {
			continue
		}
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("plan: ambiguous column %s", displayName(qual, name))
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("plan: unknown column %s", displayName(qual, name))
	}
	return found, nil
}

// has reports whether the scope can resolve the column unambiguously.
func (sc *scope) has(qual, name string) bool {
	_, err := sc.resolveColumn(qual, name)
	return err == nil
}

func displayName(qual, name string) string {
	if qual != "" {
		return qual + "." + name
	}
	return name
}

// resolveExpr turns an AST expression into an executable Scalar.
// Aggregate function calls resolve only over an aggregate's output.
func (p *Planner) resolveExpr(e sql.Expr, sc *scope) (Scalar, error) {
	if sc.agg != nil {
		if i := sc.agg.column(e); i >= 0 {
			return &ColRef{Idx: i, Name: sc.agg.Cols[i].Name}, nil
		}
	}
	switch e := e.(type) {
	case *sql.ColumnRef:
		if sc.agg != nil {
			return nil, fmt.Errorf("plan: column %s must appear in GROUP BY or inside an aggregate", e)
		}
		idx, err := sc.resolveColumn(e.Table, e.Name)
		if err != nil {
			return nil, err
		}
		return &ColRef{Idx: idx, Name: displayName(e.Table, e.Name)}, nil
	case *sql.Literal:
		return &Const{Val: e.Val}, nil
	case *sql.Param:
		return &ParamRef{Idx: e.Index}, nil
	case *sql.BinaryExpr:
		l, err := p.resolveExpr(e.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := p.resolveExpr(e.R, sc)
		if err != nil {
			return nil, err
		}
		return &Binary{Op: e.Op, L: l, R: r}, nil
	case *sql.UnaryExpr:
		x, err := p.resolveExpr(e.X, sc)
		if err != nil {
			return nil, err
		}
		if e.Op == sql.OpNot {
			return &Not{X: x}, nil
		}
		return &Neg{X: x}, nil
	case *sql.IsNullExpr:
		x, err := p.resolveExpr(e.X, sc)
		if err != nil {
			return nil, err
		}
		return &IsNull{X: x, Not: e.Not}, nil
	case *sql.LikeExpr:
		x, err := p.resolveExpr(e.X, sc)
		if err != nil {
			return nil, err
		}
		pat, err := p.resolveExpr(e.Pattern, sc)
		if err != nil {
			return nil, err
		}
		return &Like{X: x, Pattern: pat, Not: e.Not}, nil
	case *sql.CastExpr:
		x, err := p.resolveExpr(e.X, sc)
		if err != nil {
			return nil, err
		}
		return &Cast{X: x, Type: e.Type}, nil
	case *sql.InExpr:
		x, err := p.resolveExpr(e.X, sc)
		if err != nil {
			return nil, err
		}
		if e.Subquery != nil {
			sub, err := p.planSelect(e.Subquery)
			if err != nil {
				return nil, fmt.Errorf("plan: IN subquery: %w", err)
			}
			if len(sub.Schema()) != 1 {
				return nil, fmt.Errorf("plan: IN subquery must return one column")
			}
			return &InSubquery{X: x, Plan: sub, Not: e.Not}, nil
		}
		list := make([]Scalar, len(e.List))
		for i, item := range e.List {
			s, err := p.resolveExpr(item, sc)
			if err != nil {
				return nil, err
			}
			list[i] = s
		}
		return &InList{X: x, List: list, Not: e.Not}, nil
	case *sql.FuncExpr:
		if _, isAgg := aggFuncs[e.Name]; isAgg {
			return nil, fmt.Errorf("plan: aggregate %s not allowed here", e.Name)
		}
		return nil, fmt.Errorf("plan: unknown function %s", e.Name)
	}
	return nil, fmt.Errorf("plan: cannot resolve %T", e)
}

var aggFuncs = map[string]AggFunc{
	"COUNT": AggCount, "SUM": AggSum, "AVG": AggAvg, "MIN": AggMin, "MAX": AggMax,
}

// exprType infers a display type for a resolved output column; best
// effort (used for derived-table schemas).
func exprType(e sql.Expr, sc *scope) types.ColumnType {
	switch e := e.(type) {
	case *sql.ColumnRef:
		if idx, err := sc.resolveColumn(e.Table, e.Name); err == nil {
			return sc.cols[idx].Type
		}
	case *sql.Literal:
		return types.ColumnType{Kind: e.Val.Kind}
	case *sql.CastExpr:
		return e.Type
	case *sql.FuncExpr:
		switch aggFuncs[e.Name] {
		case AggCount, AggCountStar:
			return types.IntType
		case AggAvg:
			return types.FloatType
		}
		if len(e.Args) == 1 {
			return exprType(e.Args[0], sc)
		}
	case *sql.BinaryExpr:
		lt := exprType(e.L, sc)
		rt := exprType(e.R, sc)
		if lt.Kind == types.KindFloat || rt.Kind == types.KindFloat {
			return types.FloatType
		}
		return lt
	}
	return types.ColumnType{Kind: types.KindString}
}

// containsAgg reports whether the AST expression contains an aggregate
// function call.
func containsAgg(e sql.Expr) (found bool) {
	sql.Walk(e, func(n sql.Expr) bool {
		if f, ok := n.(*sql.FuncExpr); ok && !found {
			_, found = aggFuncs[f.Name]
		}
		return !found
	})
	return found
}

// columnRefs lists the column references in e, outside its subqueries
// (resolved in their own scope: uncorrelated).
func columnRefs(e sql.Expr) (refs []*sql.ColumnRef) {
	sql.Walk(e, func(n sql.Expr) bool {
		if cr, ok := n.(*sql.ColumnRef); ok {
			refs = append(refs, cr)
		}
		return true
	})
	return refs
}

// andScalars combines resolved conjuncts (nil if none).
func andScalars(conjs []Scalar) Scalar {
	var out Scalar
	for _, c := range conjs {
		if out == nil {
			out = c
		} else {
			out = &Binary{Op: sql.OpAnd, L: out, R: c}
		}
	}
	return out
}
