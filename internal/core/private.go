package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/sql"
)

// PrivateLayout gives every tenant private physical tables (Fig 4a).
// The transformation layer only renames tables; extensibility is full
// (extension columns live inline); consolidation is poor because the
// table count grows as tenants × tables, which is exactly the meta-data
// pressure the paper's §5 experiment measures.
type PrivateLayout struct {
	st *state
}

// NewPrivateLayout builds the layout for a logical schema.
func NewPrivateLayout(schema *Schema) (*PrivateLayout, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	return &PrivateLayout{st: newState(schema)}, nil
}

// Name implements Layout.
func (l *PrivateLayout) Name() string { return "private" }

// Schema implements Layout.
func (l *PrivateLayout) Schema() *Schema { return l.st.schema }

func (l *PrivateLayout) state() *state { return l.st }

// physName is the tenant-private physical table name (Account17 style).
func (l *PrivateLayout) physName(tenantID int64, table string) string {
	return fmt.Sprintf("%s_t%d", table, tenantID)
}

// Create implements Layout.
func (l *PrivateLayout) Create(db *engine.DB, tenants []*Tenant) error {
	for _, tn := range tenants {
		if err := l.AddTenant(db, tn); err != nil {
			return err
		}
	}
	return nil
}

// AddTenant implements Layout: issues the tenant's CREATE TABLE and
// CREATE INDEX statements on-line.
func (l *PrivateLayout) AddTenant(db *engine.DB, t *Tenant) error {
	// Registering validates the extension references, before any DDL.
	if err := l.st.addTenant(t, nil); err != nil {
		return err
	}
	for _, bt := range l.st.schema.Tables {
		v, err := l.st.view(t, bt)
		if err != nil {
			return err
		}
		cols := v.cols
		phys := l.physName(t.ID, bt.Name)
		if _, err := db.Exec(buildCreateTable(phys, cols)); err != nil {
			return err
		}
		if _, err := db.Exec(fmt.Sprintf("CREATE UNIQUE INDEX %s_pk ON %s (%s)", phys, phys, bt.Key)); err != nil {
			return err
		}
		for _, c := range cols {
			if !c.Indexed || c.Name == bt.Key {
				continue
			}
			if _, err := db.Exec(fmt.Sprintf("CREATE INDEX %s_%s ON %s (%s)", phys, c.Name, phys, c.Name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// RemoveTenant drops the tenant's private tables (the administrative
// "delete tenant" action of the testbed).
func (l *PrivateLayout) RemoveTenant(db *engine.DB, tenantID int64) error {
	if _, err := l.st.tenant(tenantID); err != nil {
		return err
	}
	for _, bt := range l.st.schema.Tables {
		if _, err := db.Exec("DROP TABLE " + l.physName(tenantID, bt.Name)); err != nil {
			return err
		}
	}
	l.st.mu.Lock()
	delete(l.st.tenants, tenantID)
	for _, bt := range l.st.schema.Tables {
		delete(l.st.views, placementKey{tenantID, bt})
	}
	l.st.mu.Unlock()
	return nil
}

// ExtendTenant enables an extension for a tenant on-line by issuing
// ALTER TABLE ADD COLUMN statements against the private tables.
func (l *PrivateLayout) ExtendTenant(db *engine.DB, tenantID int64, extName string) error {
	tn, ext, err := l.st.extensible(tenantID, extName)
	if err != nil {
		return err
	}
	phys := l.physName(tenantID, ext.Base)
	for _, c := range ext.Columns {
		ddl := fmt.Sprintf("ALTER TABLE %s ADD COLUMN %s %s", phys, c.Name, typeSQL(c.Type))
		if _, err := db.Exec(ddl); err != nil {
			return err
		}
		if c.Indexed {
			ddl := fmt.Sprintf("CREATE INDEX %s_%s ON %s (%s)", phys, c.Name, phys, c.Name)
			if _, err := db.Exec(ddl); err != nil {
				return err
			}
		}
	}
	return l.st.extend(tn, ext, nil)
}

// Rewrite implements Layout: pure table renaming, the paper's "very
// simple" transformation for this layout.
func (l *PrivateLayout) Rewrite(tenantID int64, st sql.Statement) (*Rewritten, error) {
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
		if l.st.schema.Table(st.Table) == nil {
			return nil, fmt.Errorf("core: no logical table %s", st.Table)
		}
		out := *st
		out.Table = l.physName(tn.ID, l.st.schema.Table(st.Table).Name)
		return &Rewritten{Direct: []sql.Statement{&out}, DirectIsCount: true}, nil
	case *sql.UpdateStmt:
		if l.st.schema.Table(st.Table) == nil {
			return nil, fmt.Errorf("core: no logical table %s", st.Table)
		}
		out := *st
		out.Table = l.physName(tn.ID, l.st.schema.Table(st.Table).Name)
		out.Where, err = rewriteInSubqueries(st.Where, func(s *sql.SelectStmt) (*sql.SelectStmt, error) {
			return l.rewriteSelect(tn, s)
		})
		if err != nil {
			return nil, err
		}
		return &Rewritten{Direct: []sql.Statement{&out}, DirectIsCount: true}, nil
	case *sql.DeleteStmt:
		if l.st.schema.Table(st.Table) == nil {
			return nil, fmt.Errorf("core: no logical table %s", st.Table)
		}
		out := *st
		out.Table = l.physName(tn.ID, l.st.schema.Table(st.Table).Name)
		out.Where, err = rewriteInSubqueries(st.Where, func(s *sql.SelectStmt) (*sql.SelectStmt, error) {
			return l.rewriteSelect(tn, s)
		})
		if err != nil {
			return nil, err
		}
		return &Rewritten{Direct: []sql.Statement{&out}, DirectIsCount: true}, nil
	}
	return nil, fmt.Errorf("core: private layout cannot rewrite %T", st)
}

func (l *PrivateLayout) rewriteSelect(tn *Tenant, sel *sql.SelectStmt) (*sql.SelectStmt, error) {
	out := *sel
	out.From = make([]sql.TableRef, len(sel.From))
	var err error
	for i, tr := range sel.From {
		out.From[i], err = l.rewriteRef(tn, tr)
		if err != nil {
			return nil, err
		}
	}
	out.Where, err = rewriteInSubqueries(sel.Where, func(s *sql.SelectStmt) (*sql.SelectStmt, error) {
		return l.rewriteSelect(tn, s)
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

func (l *PrivateLayout) rewriteRef(tn *Tenant, tr sql.TableRef) (sql.TableRef, error) {
	switch tr := tr.(type) {
	case *sql.NamedTable:
		lt := l.st.schema.Table(tr.Name)
		if lt == nil {
			return nil, fmt.Errorf("core: no logical table %s", tr.Name)
		}
		alias := tr.Alias
		if alias == "" {
			// Keep the logical name visible for qualified references.
			alias = tr.Name
		}
		return &sql.NamedTable{Name: l.physName(tn.ID, lt.Name), Alias: alias}, nil
	case *sql.SubqueryTable:
		sub, err := l.rewriteSelect(tn, tr.Select)
		if err != nil {
			return nil, err
		}
		return &sql.SubqueryTable{Select: sub, Alias: tr.Alias}, nil
	case *sql.JoinTable:
		left, err := l.rewriteRef(tn, tr.Left)
		if err != nil {
			return nil, err
		}
		right, err := l.rewriteRef(tn, tr.Right)
		if err != nil {
			return nil, err
		}
		return &sql.JoinTable{Left: left, Right: right, Type: tr.Type, On: tr.On}, nil
	}
	return nil, fmt.Errorf("core: unsupported FROM entry %T", tr)
}
