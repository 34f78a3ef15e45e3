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
	for _, it := range sel.Items {
		if it.Star {
			// Star projections keep the generic nested form, which
			// exposes logical column names naturally.
			return nil, errNotFlattenable
		}
	}
	// Column references become physical columns, IN subqueries their
	// tenant's rewrite, in every clause.
	st, err := sql.MapStatement(sel, func(e sql.Expr) (sql.Expr, error) {
		return sql.Map(e, func(n sql.Expr) (sql.Expr, error) {
			cr, ok := n.(*sql.ColumnRef)
			switch {
			case !ok:
				return tenantSubquery(l.st, tn, n)
			case cr.Table != "":
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
	}, nil)
	if err != nil {
		return nil, err
	}
	out := st.(*sql.SelectStmt) // MapStatement's copy
	out.From = from
	for i, it := range sel.Items {
		if cr, ok := it.Expr.(*sql.ColumnRef); ok && it.Alias == "" {
			out.Items[i].Alias = cr.Name
		}
	}
	userConjs := sql.SplitConjuncts(out.Where, nil)
	if l.metaFirst {
		out.Where = sql.And(append(append(metaConjs, alignConjs...), userConjs...)...)
	} else {
		out.Where = sql.And(append(append(userConjs, metaConjs...), alignConjs...)...)
	}
	return out, nil
}
