package core

import (
	"fmt"

	"repro/internal/engine"
)

// NewPrivateLayout gives every tenant private physical tables (Fig 4a).
// Extensibility is full (extension columns live inline); consolidation
// is poor because the table count grows as tenants × tables, which is
// exactly the meta-data pressure the paper's §5 experiment measures.
//
// To the rewriter a logical table is one fragment: the tenant's own
// table (Account_t17 style), holding the tenant's view of the logical
// table under its own column names, with neither meta-data to select by
// nor a Row column. Its placements carry the tenant's id in the table
// name, so unlike every other layout's they are not shared: each tenant
// has its own. Placing a new tenant issues its CREATE TABLE and CREATE
// INDEX statements on-line; placing an extension issues ALTER TABLE ADD
// COLUMN against the private table, which then stores the wider view:
// the fragment widens in place, with no rows to back-fill.
func NewPrivateLayout(schema *Schema) (*FragmentLayout, error) {
	l, err := newFragmentLayout("private", schema)
	if err != nil {
		return nil, err
	}
	l.own = true
	l.fragments = func(db *engine.DB, tn *Tenant, table *Table, have []*fragment) ([]*fragment, error) {
		cols, err := schema.logicalColumns(tn, table)
		if err != nil {
			return nil, err
		}
		phys := fmt.Sprintf("%s_t%d", table.Name, tn.ID)
		var ddl []string
		if have == nil {
			ddl = []string{
				buildCreateTable(phys, cols),
				fmt.Sprintf("CREATE UNIQUE INDEX %s_pk ON %s (%s)", phys, phys, table.Key),
			}
		}
		for _, c := range unplaced(cols, have) {
			if have != nil {
				ddl = append(ddl, fmt.Sprintf("ALTER TABLE %s ADD COLUMN %s %s", phys, c.Name, c.Type))
			}
			if c.Indexed && c.Name != table.Key {
				ddl = append(ddl, fmt.Sprintf("CREATE INDEX %s_%s ON %s (%s)", phys, c.Name, phys, c.Name))
			}
		}
		if err := execAll(db, ddl); err != nil {
			return nil, err
		}
		f := conventionalFragment(phys, cols)
		f.meta, f.rowless = nil, true
		return []*fragment{f}, nil
	}
	return l, nil
}
