package core

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/types"
)

// ExtensionLayout (Fig 4b) shares base tables among all tenants and
// splits extensions into shared extension tables. Both carry Tenant and
// Row meta-data columns; logical rows are reconstructed by joining on
// Row. Consolidation is better than Private, but the table count still
// grows with the variety of extensions in use.
type ExtensionLayout struct {
	s *state
}

// NewExtensionLayout builds the layout for a logical schema.
func NewExtensionLayout(schema *Schema) (*ExtensionLayout, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	return &ExtensionLayout{s: newState(schema)}, nil
}

// Name implements Layout.
func (l *ExtensionLayout) Name() string { return "extension" }

// Schema implements Layout.
func (l *ExtensionLayout) Schema() *Schema { return l.s.schema }

func (l *ExtensionLayout) state() *state { return l.s }

// conventionalMeta is the (Tenant, Row) meta-data column pair of tables
// that need no Table or Chunk column to tell whose rows they hold.
func conventionalMeta() []Column {
	return []Column{
		{Name: "Tenant", Type: types.IntType, NotNull: true},
		{Name: "Row", Type: types.IntType, NotNull: true},
	}
}

// createBaseTables provisions one shared table per logical base table
// under the meta-data columns meta — conventionalMeta, or its Tenant
// alone — keyed by (Tenant, Row) where there is a Row and by (Tenant,
// key), with a value index per Indexed column; shared by the Basic,
// Extension and Chunk Folding layouts.
func createBaseTables(db *engine.DB, schema *Schema, meta []Column) error {
	for _, t := range schema.Tables {
		stmts := []string{buildCreateTable(t.Name, append(append([]Column(nil), meta...), t.Columns...))}
		if len(meta) > 1 {
			stmts = append(stmts, fmt.Sprintf("CREATE UNIQUE INDEX %s_tr ON %s (Tenant, Row)", t.Name, t.Name))
		}
		stmts = append(stmts, fmt.Sprintf("CREATE UNIQUE INDEX %s_tk ON %s (Tenant, %s)", t.Name, t.Name, t.Key))
		for _, c := range t.Columns {
			if c.Indexed && c.Name != t.Key {
				stmts = append(stmts, fmt.Sprintf("CREATE INDEX %s_%s ON %s (Tenant, %s)", t.Name, c.Name, t.Name, c.Name))
			}
		}
		for _, ddl := range stmts {
			if _, err := db.Exec(ddl); err != nil {
				return err
			}
		}
	}
	return nil
}

// Create implements Layout: one shared physical table per base table
// and per extension.
func (l *ExtensionLayout) Create(db *engine.DB, tenants []*Tenant) error {
	if err := createBaseTables(db, l.s.schema, conventionalMeta()); err != nil {
		return err
	}
	for _, e := range l.s.schema.Extensions {
		if _, err := db.Exec(buildCreateTable(e.Name, append(conventionalMeta(), e.Columns...))); err != nil {
			return err
		}
		if _, err := db.Exec(fmt.Sprintf("CREATE UNIQUE INDEX %s_tr ON %s (Tenant, Row)", e.Name, e.Name)); err != nil {
			return err
		}
		for _, c := range e.Columns {
			if c.Indexed {
				if _, err := db.Exec(fmt.Sprintf("CREATE INDEX %s_%s ON %s (Tenant, %s)", e.Name, c.Name, e.Name, c.Name)); err != nil {
					return err
				}
			}
		}
	}
	return addTenants(l, db, tenants)
}

// AddTenant implements Layout: pure registration (the shared tables
// already exist), validating the tenant's extension set.
func (l *ExtensionLayout) AddTenant(db *engine.DB, t *Tenant) error {
	return registerTenant(l, db, t)
}

// ExtendTenant enables an extension on-line: meta-data registration
// plus back-filling extension rows (all NULLs) for the tenant's
// existing logical rows.
func (l *ExtensionLayout) ExtendTenant(db *engine.DB, tenantID int64, extName string) error {
	return extendTenant(l, db, tenantID, extName)
}

// Rewrite implements Layout.
func (l *ExtensionLayout) Rewrite(tenantID int64, st sql.Statement) (*Rewritten, error) {
	return genericRewrite(l, tenantID, st)
}

// fragments implements reconstructor: the base table, then one
// extension table per extension the tenant has on it.
func (l *ExtensionLayout) fragments(_ *engine.DB, tn *Tenant, table *Table, _ []*fragment) ([]*fragment, error) {
	out := []*fragment{conventionalFragment(table.Name, table.Columns)}
	for _, en := range tn.Extensions {
		if e := l.s.schema.Extension(en); e != nil && strings.EqualFold(e.Base, table.Name) {
			out = append(out, conventionalFragment(e.Name, e.Columns))
		}
	}
	return out, nil
}
