package plan

import (
	"fmt"
	"strings"

	"repro/internal/sql"
)

// flattenSubqueries rewrites FROM-clause derived tables into the outer
// query when they are simple select-project-join blocks. This is the
// unnesting DB2's optimizer performs (Fegaras & Maier rule N8, cited in
// §6.1 of the paper); the naive planner skips this pass and pays the
// materialization penalty instead, matching the MySQL behaviour the
// paper observed in Test 1.
//
// A derived table is flattenable when it has no aggregation, grouping,
// HAVING, DISTINCT, ORDER BY, LIMIT, or star projections. Any WHERE
// clause merges conjunctively into the outer WHERE.
func (p *Planner) flattenSubqueries(s *sql.SelectStmt) (*sql.SelectStmt, error) {
	// s may be a cached AST that other sessions are planning or
	// printing right now: work on copies of every slice spliceSubquery
	// writes into.
	out := *s
	out.From = append([]sql.TableRef(nil), s.From...)
	out.Items = append([]sql.SelectItem(nil), s.Items...)
	out.GroupBy = append([]sql.Expr(nil), s.GroupBy...)
	out.OrderBy = append([]sql.OrderItem(nil), s.OrderBy...)
	// A bare `*` would change meaning once a derived table's FROM
	// entries are spliced in (it would expand to the inner physical
	// columns); rewrite it to per-entry qualified stars first.
	bareStar := false
	for _, it := range out.Items {
		if it.Star && it.StarQualifier == "" {
			bareStar = true
		}
	}
	if bareStar {
		var items []sql.SelectItem
		for _, it := range out.Items {
			if !it.Star || it.StarQualifier != "" {
				items = append(items, it)
				continue
			}
			for _, tr := range out.From {
				switch tr := tr.(type) {
				case *sql.NamedTable:
					q := tr.Alias
					if q == "" {
						q = tr.Name
					}
					items = append(items, sql.SelectItem{Star: true, StarQualifier: q})
				case *sql.SubqueryTable:
					items = append(items, sql.SelectItem{Star: true, StarQualifier: tr.Alias})
				default:
					// Join trees keep the bare star; their derived
					// tables are left unflattened below.
					items = append(items, it)
				}
			}
		}
		out.Items = items
		for _, it := range out.Items {
			if it.Star && it.StarQualifier == "" {
				// A join tree keeps the bare star; leave the query
				// unflattened rather than change its meaning.
				return &out, nil
			}
		}
	}
	changed := true
	for changed {
		changed = false
		for i, tr := range out.From {
			sub, ok := tr.(*sql.SubqueryTable)
			if !ok {
				continue
			}
			inner, err := p.flattenSubqueries(sub.Select)
			if err != nil {
				return nil, err
			}
			if !flattenable(inner) {
				out.From[i] = &sql.SubqueryTable{Select: inner, Alias: sub.Alias}
				continue
			}
			if err := p.spliceSubquery(&out, i, sub.Alias, inner); err != nil {
				return nil, err
			}
			changed = true
			break
		}
	}
	return &out, nil
}

func flattenable(s *sql.SelectStmt) bool {
	if s.Distinct || len(s.GroupBy) > 0 || s.Having != nil || len(s.OrderBy) > 0 || s.Limit != nil {
		return false
	}
	for _, it := range s.Items {
		if it.Star || containsAgg(it.Expr) {
			return false
		}
	}
	for _, f := range s.From {
		if _, named := f.(*sql.NamedTable); !named {
			return false // a join tree, or a derived table kept whole: splice moves base tables only
		}
	}
	return true
}

// spliceSubquery merges out.From[idx] (a flattenable subquery with the
// given alias) into out.
func (p *Planner) spliceSubquery(out *sql.SelectStmt, idx int, alias string, inner *sql.SelectStmt) error {
	// Rename inner aliases that collide with outer ones.
	used := map[string]bool{}
	for i, tr := range out.From {
		if i == idx {
			continue
		}
		for _, a := range refAliases(tr) {
			used[strings.ToLower(a)] = true
		}
	}
	renames := map[string]string{}
	innerFrom := make([]sql.TableRef, len(inner.From))
	for i, tr := range inner.From {
		nt := tr.(*sql.NamedTable)
		name := nt.Alias
		if name == "" {
			name = nt.Name
		}
		newName := name
		for n := 1; used[strings.ToLower(newName)]; n++ {
			newName = fmt.Sprintf("%s_f%d", name, n)
		}
		used[strings.ToLower(newName)] = true
		if !strings.EqualFold(newName, name) {
			renames[strings.ToLower(name)] = newName
		}
		innerFrom[i] = &sql.NamedTable{Name: nt.Name, Alias: newName}
	}
	// renameExpr fixes inner references for life outside the subquery:
	// renamed aliases are applied, and unqualified references pick up
	// their providing table's alias so they cannot become ambiguous
	// against the outer FROM entries after splicing.
	renameExpr := func(e sql.Expr) sql.Expr {
		return mapColumns(e, func(c *sql.ColumnRef) sql.Expr {
			if c.Table != "" {
				if nn, ok := renames[strings.ToLower(c.Table)]; ok {
					return &sql.ColumnRef{Table: nn, Name: c.Name}
				}
				return c
			}
			var owner *sql.NamedTable
			for _, tr := range innerFrom {
				nt := tr.(*sql.NamedTable)
				if refProvides(p, nt, c.Name) {
					if owner != nil {
						return c // ambiguous inside too; leave for the resolver
					}
					owner = nt
				}
			}
			if owner == nil {
				return c
			}
			qual := owner.Alias
			if qual == "" {
				qual = owner.Name
			}
			return &sql.ColumnRef{Table: qual, Name: c.Name}
		})
	}

	// Substitution map: name exported by the subquery -> defining expr.
	subst := map[string]sql.Expr{}
	for _, it := range inner.Items {
		name := it.Alias
		if name == "" {
			if cr, ok := it.Expr.(*sql.ColumnRef); ok {
				name = cr.Name
			} else {
				name = it.Expr.String()
			}
		}
		subst[strings.ToLower(name)] = renameExpr(it.Expr)
	}

	// Names the other outer FROM entries could provide, to decide
	// whether an unqualified reference belongs to the subquery.
	otherProvides := func(name string) bool {
		for i, tr := range out.From {
			if i == idx {
				continue
			}
			if refProvides(p, tr, name) {
				return true
			}
		}
		return false
	}

	replace := func(e sql.Expr) sql.Expr {
		return mapColumns(e, func(c *sql.ColumnRef) sql.Expr {
			key := strings.ToLower(c.Name)
			def, ok := subst[key]
			if !ok {
				return c
			}
			if strings.EqualFold(c.Table, alias) {
				return def
			}
			if c.Table == "" && !otherProvides(c.Name) {
				return def
			}
			return c
		})
	}

	for i := range out.Items {
		if !out.Items[i].Star {
			// Keep the user-visible column name when substitution
			// replaces a plain reference with the defining expression.
			if out.Items[i].Alias == "" {
				if cr, ok := out.Items[i].Expr.(*sql.ColumnRef); ok {
					out.Items[i].Alias = cr.Name
				}
			}
			out.Items[i].Expr = replace(out.Items[i].Expr)
		} else if strings.EqualFold(out.Items[i].StarQualifier, alias) {
			// alias.* expands to the subquery's item list.
			expanded := make([]sql.SelectItem, 0, len(inner.Items))
			for _, it := range inner.Items {
				name := it.Alias
				if name == "" {
					if cr, ok := it.Expr.(*sql.ColumnRef); ok {
						name = cr.Name
					}
				}
				expanded = append(expanded, sql.SelectItem{Expr: renameExpr(it.Expr), Alias: name})
			}
			out.Items = append(out.Items[:i], append(expanded, out.Items[i+1:]...)...)
		}
	}
	out.Where = replace(out.Where)
	for i := range out.GroupBy {
		out.GroupBy[i] = replace(out.GroupBy[i])
	}
	out.Having = replace(out.Having)
	for i := range out.OrderBy {
		out.OrderBy[i].Expr = replace(out.OrderBy[i].Expr)
	}

	// Splice FROM and merge WHERE.
	from := append([]sql.TableRef{}, out.From[:idx]...)
	from = append(from, innerFrom...)
	from = append(from, out.From[idx+1:]...)
	out.From = from
	out.Where = sql.And(out.Where, renameExpr(inner.Where))
	return nil
}

// refAliases lists the aliases a FROM entry binds.
func refAliases(tr sql.TableRef) []string {
	switch tr := tr.(type) {
	case *sql.NamedTable:
		if tr.Alias != "" {
			return []string{tr.Alias}
		}
		return []string{tr.Name}
	case *sql.SubqueryTable:
		return []string{tr.Alias}
	case *sql.JoinTable:
		return append(refAliases(tr.Left), refAliases(tr.Right)...)
	}
	return nil
}

// refProvides reports whether the FROM entry can supply a column of the
// given name (consulting the catalog for base tables).
func refProvides(p *Planner, tr sql.TableRef, name string) bool {
	switch tr := tr.(type) {
	case *sql.NamedTable:
		t, err := p.Cat.Table(tr.Name)
		if err != nil {
			return false
		}
		return t.ColIndex(name) >= 0
	case *sql.SubqueryTable:
		for _, it := range tr.Select.Items {
			n := it.Alias
			if n == "" {
				if cr, ok := it.Expr.(*sql.ColumnRef); ok {
					n = cr.Name
				}
			}
			if strings.EqualFold(n, name) {
				return true
			}
		}
	case *sql.JoinTable:
		return refProvides(p, tr.Left, name) || refProvides(p, tr.Right, name)
	}
	return false
}

// mapColumns rebuilds e with fn's answer in place of each column
// reference.
func mapColumns(e sql.Expr, fn func(*sql.ColumnRef) sql.Expr) sql.Expr {
	out, _ := sql.Map(e, func(n sql.Expr) (sql.Expr, error) {
		if c, ok := n.(*sql.ColumnRef); ok {
			return fn(c), nil
		}
		return n, nil
	})
	return out
}
