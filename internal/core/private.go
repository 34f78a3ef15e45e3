package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/sql"
)

// PrivateLayout gives every tenant private physical tables (Fig 4a).
// Extensibility is full (extension columns live inline); consolidation
// is poor because the table count grows as tenants × tables, which is
// exactly the meta-data pressure the paper's §5 experiment measures.
//
// To the rewriter a logical table is one fragment: the tenant's own
// table, with neither meta-data to select by nor a Row column. Its
// placements carry the tenant's id in the table name, so unlike every
// other layout's they are not shared: each tenant has its own.
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
	return addTenants(l, db, tenants)
}

// AddTenant implements Layout: issues the tenant's CREATE TABLE and
// CREATE INDEX statements on-line, then registers the tenant with a
// placement of each table.
func (l *PrivateLayout) AddTenant(db *engine.DB, t *Tenant) error {
	own := make(map[*Table]*view, len(l.st.schema.Tables))
	for _, bt := range l.st.schema.Tables {
		// The view validates the extension references, before any DDL.
		v, err := l.st.schema.view(t, bt)
		if err != nil {
			return err
		}
		phys := l.physName(t.ID, bt.Name)
		ddl := []string{
			buildCreateTable(phys, v.cols),
			fmt.Sprintf("CREATE UNIQUE INDEX %s_pk ON %s (%s)", phys, phys, bt.Key),
		}
		for _, c := range v.cols {
			if c.Indexed && c.Name != bt.Key {
				ddl = append(ddl, fmt.Sprintf("CREATE INDEX %s_%s ON %s (%s)", phys, c.Name, phys, c.Name))
			}
		}
		for _, d := range ddl {
			if _, err := db.Exec(d); err != nil {
				return err
			}
		}
		if v.place, err = place(l, db, t, bt, v, nil); err != nil {
			return err
		}
		own[bt] = v
	}
	return l.st.addTenant(t, own, nil)
}

// RemoveTenant drops the tenant's private tables (the administrative
// "delete tenant" action of the testbed) and its placements.
func (l *PrivateLayout) RemoveTenant(db *engine.DB, tenantID int64) error {
	if _, err := l.st.tenant(tenantID); err != nil {
		return err
	}
	for _, bt := range l.st.schema.Tables {
		if _, err := db.Exec("DROP TABLE " + l.physName(tenantID, bt.Name)); err != nil {
			return err
		}
	}
	l.st.removeTenant(tenantID)
	return nil
}

// ExtendTenant enables an extension for a tenant on-line by issuing
// ALTER TABLE ADD COLUMN statements against the private table, which
// then stores the wider view: the fragment widens in place, with no
// rows to back-fill.
func (l *PrivateLayout) ExtendTenant(db *engine.DB, tenantID int64, extName string) error {
	_, ext, err := l.st.extensible(tenantID, extName)
	if err != nil {
		return err
	}
	phys := l.physName(tenantID, ext.Base)
	for _, c := range ext.Columns {
		ddl := fmt.Sprintf("ALTER TABLE %s ADD COLUMN %s %s", phys, c.Name, c.Type)
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
	return extendTenant(l, db, tenantID, extName)
}

// Rewrite implements Layout.
func (l *PrivateLayout) Rewrite(tenantID int64, st sql.Statement) (*Rewritten, error) {
	return genericRewrite(l, tenantID, st)
}

// fragments implements reconstructor: the tenant's own table, holding
// the tenant's view of the logical table under its own column names.
func (l *PrivateLayout) fragments(_ *engine.DB, tn *Tenant, table *Table, _ []*fragment) ([]*fragment, error) {
	cols, err := l.st.schema.logicalColumns(tn, table)
	if err != nil {
		return nil, err
	}
	f := conventionalFragment(l.physName(tn.ID, table.Name), cols)
	f.meta, f.rowless = nil, true
	return []*fragment{f}, nil
}
