package core

import (
	"fmt"

	"repro/internal/engine"
)

// NewBasicLayout builds the paper's baseline technique: add a Tenant
// column to every table and share tables among all tenants. Best
// consolidation, no extensibility — tenants with extensions are
// rejected, and so is enabling one.
//
// To the rewriter a logical table is one fragment: the shared table's
// rows under Tenant, with no Row column, since nothing aligns with them.
func NewBasicLayout(schema *Schema) (*FragmentLayout, error) {
	l, err := newFragmentLayout("basic", schema)
	if err != nil {
		return nil, err
	}
	l.create = func(db *engine.DB) error { return createBaseTables(db, schema, conventionalMeta()[:1]) }
	l.fragments = func(_ *engine.DB, tn *Tenant, table *Table, _ []*fragment) ([]*fragment, error) {
		if len(tn.Extensions) > 0 {
			return nil, fmt.Errorf("core: basic layout cannot represent extensions (tenant %d)", tn.ID)
		}
		f := conventionalFragment(table.Name, table.Columns)
		f.rowless = true
		return []*fragment{f}, nil
	}
	return l, nil
}
