package sql

import (
	"fmt"
	"slices"
	"strings"
)

// Unnest splices each derived table of sel's FROM list that is a plain
// select-project-join block into the outer block: its tables join the
// FROM list, each reference to one of its items becomes the expression
// the item names, and its WHERE conjuncts follow the outer ones in one
// flat AND list. This is the unnesting a sophisticated optimizer derives
// from the nested form by itself (Fegaras & Maier rule N8, cited in §6.1
// of the paper), and the flat query a transformation layer must hand an
// optimizer that does not. sel is never written.
//
// A block splices when it has no aggregate or other function call, no
// GROUP BY, HAVING, DISTINCT, ORDER BY, LIMIT or star item, and only
// base tables in FROM; a derived table that does not is unnested inside
// and kept. provides reports whether a base table has a column, so that
// an inner block's unqualified references take their table's alias
// before they move out; with provides nil no base table provides one —
// for inner blocks that qualify every column they read.
func Unnest(sel *SelectStmt, provides func(table, column string) bool) *SelectStmt {
	out := *sel
	out.From = slices.Clone(sel.From)
	// A bare * would take in a derived table's base columns once its
	// tables are spliced: it becomes one qualified star per FROM entry,
	// and over a join tree the query stays as it is.
	if slices.ContainsFunc(sel.Items, isBareStar) && slices.ContainsFunc(sel.From, isDerived) {
		stars := make([]SelectItem, len(sel.From))
		for j, tr := range sel.From {
			if _, join := tr.(*JoinTable); join {
				return &out
			}
			stars[j] = SelectItem{Star: true, StarQualifier: RefAliases(tr)[0]}
		}
		out.Items = nil
		for _, it := range sel.Items {
			if isBareStar(it) {
				out.Items = append(out.Items, stars...)
			} else {
				out.Items = append(out.Items, it)
			}
		}
	}
	for i := 0; i < len(out.From); i++ {
		sub, ok := out.From[i].(*SubqueryTable)
		if !ok {
			continue
		}
		inner := Unnest(sub.Select, provides)
		if !spliceable(inner) {
			out.From[i] = &SubqueryTable{Select: inner, Alias: sub.Alias}
			continue
		}
		out = splice(&out, i, sub.Alias, inner, provides)
		i += len(inner.From) - 1
	}
	return &out
}

func isBareStar(it SelectItem) bool { return it.Star && it.StarQualifier == "" }

func isDerived(tr TableRef) bool { _, ok := tr.(*SubqueryTable); return ok }

// spliceable reports whether a block can be spliced into its outer one.
func spliceable(s *SelectStmt) bool {
	if s.Distinct || len(s.GroupBy) > 0 || s.Having != nil || len(s.OrderBy) > 0 || s.Limit != nil {
		return false
	}
	for _, it := range s.Items {
		if it.Star || callsFunc(it.Expr) {
			return false
		}
	}
	for _, f := range s.From {
		if _, named := f.(*NamedTable); !named {
			return false // a join tree or a derived table kept whole: only base tables move
		}
	}
	return true
}

// callsFunc reports whether e calls a function; the dialect's functions
// are its aggregates.
func callsFunc(e Expr) (found bool) {
	Walk(e, func(n Expr) bool {
		_, f := n.(*FuncExpr)
		found = found || f
		return !found
	})
	return found
}

// splice returns out with its FROM entry i, the derived table alias over
// the spliceable block inner, replaced by inner's tables, and every
// reference to alias by the expression it names.
func splice(out *SelectStmt, i int, alias string, inner *SelectStmt, provides func(string, string) bool) SelectStmt {
	// Inner aliases that collide with outer ones are renamed.
	others := slices.Concat(out.From[:i], out.From[i+1:])
	used := map[string]bool{}
	for _, tr := range others {
		for _, a := range RefAliases(tr) {
			used[strings.ToLower(a)] = true
		}
	}
	renames := map[string]string{}
	innerFrom := make([]TableRef, len(inner.From))
	for j, tr := range inner.From {
		nt := tr.(*NamedTable)
		name := RefAliases(nt)[0]
		newName := name
		for n := 1; used[strings.ToLower(newName)]; n++ {
			newName = fmt.Sprintf("%s_f%d", name, n)
		}
		used[strings.ToLower(newName)] = true
		if !strings.EqualFold(newName, name) {
			renames[strings.ToLower(name)] = newName
		}
		innerFrom[j] = &NamedTable{Name: nt.Name, Alias: newName}
	}
	// moved readies an inner expression for life outside the block:
	// renamed aliases apply, and an unqualified reference takes its
	// providing table's alias so no outer entry can claim it.
	moved := func(e Expr) Expr {
		return mapColumns(e, func(c *ColumnRef) Expr {
			if c.Table != "" {
				if nn, ok := renames[strings.ToLower(c.Table)]; ok {
					return &ColumnRef{Table: nn, Name: c.Name}
				}
				return c
			}
			owner := ""
			for _, tr := range innerFrom {
				if RefProvides(tr, c.Name, provides) {
					if owner != "" {
						return c // ambiguous inside too: left for the resolver
					}
					owner = RefAliases(tr)[0]
				}
			}
			if owner == "" {
				return c
			}
			return &ColumnRef{Table: owner, Name: c.Name}
		})
	}
	subst := map[string]Expr{} // an item's name -> what it stands for
	for _, it := range inner.Items {
		subst[strings.ToLower(itemName(it))] = moved(it.Expr)
	}
	// A reference is the block's if it names alias, or is unqualified
	// and no other outer entry provides it.
	replace := func(e Expr) Expr {
		return mapColumns(e, func(c *ColumnRef) Expr {
			def, ok := subst[strings.ToLower(c.Name)]
			switch {
			case !ok:
			case strings.EqualFold(c.Table, alias):
				return def
			case c.Table == "" && !slices.ContainsFunc(others, func(tr TableRef) bool {
				return RefProvides(tr, c.Name, provides)
			}):
				return def
			}
			return c
		})
	}

	res := *out
	res.Items = make([]SelectItem, 0, len(out.Items))
	for _, it := range out.Items {
		switch {
		case !it.Star:
			// A plain reference keeps its name when it becomes the
			// expression it stands for.
			if cr, ok := it.Expr.(*ColumnRef); ok && it.Alias == "" {
				it.Alias = cr.Name
			}
			it.Expr = replace(it.Expr)
		case strings.EqualFold(it.StarQualifier, alias):
			for _, in := range inner.Items {
				res.Items = append(res.Items, SelectItem{Expr: moved(in.Expr), Alias: itemName(in)})
			}
			continue
		}
		res.Items = append(res.Items, it)
	}
	res.From = slices.Concat(out.From[:i], innerFrom, out.From[i+1:])
	res.Where = And(slices.Concat(SplitConjuncts(replace(out.Where), nil), SplitConjuncts(moved(inner.Where), nil))...)
	res.GroupBy = slices.Clone(out.GroupBy)
	for j, e := range res.GroupBy {
		res.GroupBy[j] = replace(e)
	}
	res.Having = replace(out.Having)
	res.OrderBy = slices.Clone(out.OrderBy)
	for j := range res.OrderBy {
		res.OrderBy[j].Expr = replace(res.OrderBy[j].Expr)
	}
	return res
}

// itemName is the name a SELECT item exports: its alias, or the column
// it reads; "" for an unnamed expression.
func itemName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*ColumnRef); ok {
		return cr.Name
	}
	return ""
}

// mapColumns rebuilds e with fn's answer in place of each column
// reference.
func mapColumns(e Expr, fn func(*ColumnRef) Expr) Expr {
	out, _ := Map(e, func(n Expr) (Expr, error) {
		if c, ok := n.(*ColumnRef); ok {
			return fn(c), nil
		}
		return n, nil
	})
	return out
}

// RefAliases lists the aliases a FROM entry binds.
func RefAliases(tr TableRef) []string {
	switch tr := tr.(type) {
	case *NamedTable:
		if tr.Alias != "" {
			return []string{tr.Alias}
		}
		return []string{tr.Name}
	case *SubqueryTable:
		return []string{tr.Alias}
	case *JoinTable:
		return append(RefAliases(tr.Left), RefAliases(tr.Right)...)
	}
	return nil
}

// RefProvides reports whether a FROM entry can supply a column of the
// given name: a base table where provides says so (never with provides
// nil), a derived table where one of its items has the name.
func RefProvides(tr TableRef, column string, provides func(table, column string) bool) bool {
	switch tr := tr.(type) {
	case *NamedTable:
		return provides != nil && provides(tr.Name, column)
	case *SubqueryTable:
		return slices.ContainsFunc(tr.Select.Items, func(it SelectItem) bool {
			return strings.EqualFold(itemName(it), column)
		})
	case *JoinTable:
		return RefProvides(tr.Left, column, provides) || RefProvides(tr.Right, column, provides)
	}
	return false
}
