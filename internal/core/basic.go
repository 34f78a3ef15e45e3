package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/types"
)

// BasicLayout is the paper's baseline technique: add a Tenant column to
// every table and share tables among all tenants. Best consolidation,
// no extensibility — tenants with extensions are rejected.
type BasicLayout struct {
	st *state
}

// NewBasicLayout builds the layout for a logical schema.
func NewBasicLayout(schema *Schema) (*BasicLayout, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	return &BasicLayout{st: newState(schema)}, nil
}

// Name implements Layout.
func (l *BasicLayout) Name() string { return "basic" }

// Schema implements Layout.
func (l *BasicLayout) Schema() *Schema { return l.st.schema }

func (l *BasicLayout) state() *state { return l.st }

// Create implements Layout.
func (l *BasicLayout) Create(db *engine.DB, tenants []*Tenant) error {
	for _, t := range l.st.schema.Tables {
		cols := append([]Column{{Name: "Tenant", Type: types.IntType, NotNull: true}}, t.Columns...)
		if _, err := db.Exec(buildCreateTable(t.Name, cols)); err != nil {
			return err
		}
		ddl := fmt.Sprintf("CREATE UNIQUE INDEX %s_tk ON %s (Tenant, %s)", t.Name, t.Name, t.Key)
		if _, err := db.Exec(ddl); err != nil {
			return err
		}
		for _, c := range t.Columns {
			if !c.Indexed || c.Name == t.Key {
				continue
			}
			ddl := fmt.Sprintf("CREATE INDEX %s_%s ON %s (Tenant, %s)", t.Name, c.Name, t.Name, c.Name)
			if _, err := db.Exec(ddl); err != nil {
				return err
			}
		}
	}
	for _, tn := range tenants {
		if err := l.AddTenant(db, tn); err != nil {
			return err
		}
	}
	return nil
}

// AddTenant implements Layout. Pure registration: the shared tables
// already exist.
func (l *BasicLayout) AddTenant(_ *engine.DB, t *Tenant) error {
	if len(t.Extensions) > 0 {
		return fmt.Errorf("core: basic layout cannot represent extensions (tenant %d)", t.ID)
	}
	return l.st.addTenant(t, nil)
}

// Rewrite implements Layout.
func (l *BasicLayout) Rewrite(tenantID int64, st sql.Statement) (*Rewritten, error) {
	tn, err := l.st.tenant(tenantID)
	if err != nil {
		return nil, err
	}
	switch st := st.(type) {
	case *sql.SelectStmt:
		sel, err := l.rewriteSelect(tn, st)
		if err != nil {
			return nil, err
		}
		return &Rewritten{Query: sel}, nil
	case *sql.InsertStmt:
		return l.rewriteInsert(tn, st)
	case *sql.UpdateStmt:
		if l.st.schema.Table(st.Table) == nil {
			return nil, fmt.Errorf("core: no logical table %s", st.Table)
		}
		out := &sql.UpdateStmt{Table: st.Table, Alias: st.Alias, Set: st.Set}
		qual := st.Alias
		where, err := rewriteInSubqueries(st.Where, func(s *sql.SelectStmt) (*sql.SelectStmt, error) {
			return l.rewriteSelect(tn, s)
		})
		if err != nil {
			return nil, err
		}
		out.Where = and(eq(colRef(qual, "Tenant"), intLit(tn.ID)), where)
		return &Rewritten{Direct: []sql.Statement{out}, DirectIsCount: true}, nil
	case *sql.DeleteStmt:
		if l.st.schema.Table(st.Table) == nil {
			return nil, fmt.Errorf("core: no logical table %s", st.Table)
		}
		out := &sql.DeleteStmt{Table: st.Table, Alias: st.Alias}
		where, err := rewriteInSubqueries(st.Where, func(s *sql.SelectStmt) (*sql.SelectStmt, error) {
			return l.rewriteSelect(tn, s)
		})
		if err != nil {
			return nil, err
		}
		out.Where = and(eq(colRef(st.Alias, "Tenant"), intLit(tn.ID)), where)
		return &Rewritten{Direct: []sql.Statement{out}, DirectIsCount: true}, nil
	}
	return nil, fmt.Errorf("core: basic layout cannot rewrite %T", st)
}

// rewriteSelect wraps each logical table reference in a derived table
// that filters on Tenant and exposes exactly the logical columns, so
// SELECT * never leaks the Tenant meta-data column.
func (l *BasicLayout) rewriteSelect(tn *Tenant, sel *sql.SelectStmt) (*sql.SelectStmt, error) {
	usages, err := analyzeSelect(l.st, tn, sel)
	if err != nil {
		return nil, err
	}
	byRef := map[*sql.NamedTable]*tableUsage{}
	for _, u := range usages {
		byRef[u.ref] = u
	}
	out := *sel
	out.From = make([]sql.TableRef, len(sel.From))
	for i, tr := range sel.From {
		nt, err := l.rewriteRef(tn, tr, byRef)
		if err != nil {
			return nil, err
		}
		out.From[i] = nt
	}
	out.Where, err = rewriteInSubqueries(sel.Where, func(s *sql.SelectStmt) (*sql.SelectStmt, error) {
		return l.rewriteSelect(tn, s)
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

func (l *BasicLayout) rewriteRef(tn *Tenant, tr sql.TableRef, byRef map[*sql.NamedTable]*tableUsage) (sql.TableRef, error) {
	switch tr := tr.(type) {
	case *sql.NamedTable:
		u := byRef[tr]
		if u == nil {
			return nil, fmt.Errorf("core: unanalyzed table %s", tr.Name)
		}
		inner := &sql.SelectStmt{
			From:  []sql.TableRef{&sql.NamedTable{Name: u.logical.Name, Alias: "s"}},
			Where: eq(colRef("s", "Tenant"), intLit(tn.ID)),
		}
		for _, c := range u.usedColumns() {
			inner.Items = append(inner.Items, sql.SelectItem{Expr: colRef("s", c.Name), Alias: c.Name})
		}
		return &sql.SubqueryTable{Select: inner, Alias: u.alias}, nil
	case *sql.SubqueryTable:
		sub, err := l.rewriteSelect(tn, tr.Select)
		if err != nil {
			return nil, err
		}
		return &sql.SubqueryTable{Select: sub, Alias: tr.Alias}, nil
	case *sql.JoinTable:
		left, err := l.rewriteRef(tn, tr.Left, byRef)
		if err != nil {
			return nil, err
		}
		right, err := l.rewriteRef(tn, tr.Right, byRef)
		if err != nil {
			return nil, err
		}
		return &sql.JoinTable{Left: left, Right: right, Type: tr.Type, On: tr.On}, nil
	}
	return nil, fmt.Errorf("core: unsupported FROM entry %T", tr)
}

func (l *BasicLayout) rewriteInsert(tn *Tenant, st *sql.InsertStmt) (*Rewritten, error) {
	t := l.st.schema.Table(st.Table)
	if t == nil {
		return nil, fmt.Errorf("core: no logical table %s", st.Table)
	}
	cols := st.Columns
	if len(cols) == 0 {
		cols = make([]string, len(t.Columns))
		for i, c := range t.Columns {
			cols[i] = c.Name
		}
	}
	out := &sql.InsertStmt{Table: t.Name, Columns: append([]string{"Tenant"}, cols...)}
	for _, row := range st.Rows {
		out.Rows = append(out.Rows, append([]sql.Expr{intLit(tn.ID)}, row...))
	}
	return &Rewritten{Direct: []sql.Statement{out}, DirectIsCount: true}, nil
}
