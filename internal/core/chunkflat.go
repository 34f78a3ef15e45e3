package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/sql"
)

// flattenable reports whether a flat layout emits sel in §6.1's
// pre-flattened single-block form: every FROM entry is a logical table
// and no item is a star (a star keeps the nested form, which names the
// logical columns).
func flattenable(sel *sql.SelectStmt) bool {
	for _, tr := range sel.From {
		if _, ok := tr.(*sql.NamedTable); !ok {
			return false
		}
	}
	return !slices.ContainsFunc(sel.Items, func(it sql.SelectItem) bool { return it.Star })
}

// flattened is the pre-flattened physical SQL of §6.1's Test 1, what a
// transformation layer must hand a database whose optimizer cannot
// unnest: the generic nested form unnested as a sophisticated optimizer
// unnests it (sql.Unnest), so the two forms agree by construction. user
// is the number of the logical WHERE's conjuncts, which lead the flat
// WHERE. With metaFirst it is Test 1's "careless" emission: each table's
// fragment references in reverse order, so a FROM-order-driven optimizer
// starts from a data chunk instead of the selective anchor, and the
// meta-data and aligning conjuncts ahead of the user's.
//
// Every column a reconstruction exposes comes out qualified, so an
// unqualified reference left over is one no logical table provides —
// except an ORDER BY key naming an item. It is refused here, where the
// nested form's derived table would have refused it, before it can read
// a physical column.
func (l *FragmentLayout) flattened(nested *sql.SelectStmt, user int) (*sql.SelectStmt, error) {
	if l.metaFirst {
		for _, tr := range nested.From {
			slices.Reverse(tr.(*sql.SubqueryTable).Select.From) // genericSelect's own copy
		}
	}
	out := sql.Unnest(nested, nil)
	var err error
	refuse := func(items []sql.SelectItem) func(sql.Expr) {
		return func(e sql.Expr) {
			sql.Walk(e, func(n sql.Expr) bool {
				if c, ok := n.(*sql.ColumnRef); ok && c.Table == "" && err == nil && !slices.ContainsFunc(items, func(it sql.SelectItem) bool {
					return strings.EqualFold(it.Alias, c.Name)
				}) {
					err = fmt.Errorf("core: unknown column %s", c.Name)
				}
				return err == nil
			})
		}
	}
	body := *out
	body.OrderBy = nil
	sql.WalkStatement(&body, refuse(nil), nil)
	for _, o := range out.OrderBy {
		refuse(out.Items)(o.Expr)
	}
	if err != nil {
		return nil, err
	}
	if l.metaFirst {
		conjs := sql.SplitConjuncts(out.Where, nil)
		out.Where = sql.And(slices.Concat(conjs[user:], conjs[:user])...)
	}
	return out, nil
}
