package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/sql"
)

// BasicLayout is the paper's baseline technique: add a Tenant column to
// every table and share tables among all tenants. Best consolidation,
// no extensibility — tenants with extensions are rejected.
//
// To the rewriter a logical table is one fragment: the shared table's
// rows under Tenant, with no Row column, since nothing aligns with them.
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

// Create implements Layout: a shared table per base table, with a
// Tenant column and no Row.
func (l *BasicLayout) Create(db *engine.DB, tenants []*Tenant) error {
	if err := createBaseTables(db, l.st.schema, conventionalMeta()[:1]); err != nil {
		return err
	}
	return addTenants(l, db, tenants)
}

// AddTenant implements Layout. Pure registration: the shared tables
// already exist, and so, after the first tenant, do their placements.
func (l *BasicLayout) AddTenant(db *engine.DB, t *Tenant) error {
	if len(t.Extensions) > 0 {
		return fmt.Errorf("core: basic layout cannot represent extensions (tenant %d)", t.ID)
	}
	return registerTenant(l, db, t)
}

// Rewrite implements Layout.
func (l *BasicLayout) Rewrite(tenantID int64, st sql.Statement) (*Rewritten, error) {
	return genericRewrite(l, tenantID, st)
}

// fragments implements reconstructor: the shared table, without Row.
func (l *BasicLayout) fragments(_ *engine.DB, _ *Tenant, table *Table, _ []*fragment) ([]*fragment, error) {
	f := conventionalFragment(table.Name, table.Columns)
	f.rowless = true
	return []*fragment{f}, nil
}
