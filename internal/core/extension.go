package core

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/types"
)

// NewExtensionLayout (Fig 4b) shares base tables among all tenants and
// splits extensions into shared extension tables. Both carry Tenant and
// Row meta-data columns; logical rows are reconstructed by joining on
// Row. Consolidation is better than Private, but the table count still
// grows with the variety of extensions in use.
//
// A logical table is placed as the base table, then one extension table
// per extension the tenant has on it; enabling an extension on-line
// back-fills extension rows (all NULLs) for the tenant's existing
// logical rows.
func NewExtensionLayout(schema *Schema) (*FragmentLayout, error) {
	l, err := newFragmentLayout("extension", schema)
	if err != nil {
		return nil, err
	}
	l.create = func(db *engine.DB) error {
		if err := createBaseTables(db, schema, conventionalMeta()); err != nil {
			return err
		}
		return createExtensionTables(db, schema.Extensions)
	}
	l.fragments = func(_ *engine.DB, tn *Tenant, table *Table, _ []*fragment) ([]*fragment, error) {
		out := []*fragment{conventionalFragment(table.Name, table.Columns)}
		for _, en := range tn.Extensions {
			if e := schema.Extension(en); e != nil && strings.EqualFold(e.Base, table.Name) {
				out = append(out, conventionalFragment(e.Name, e.Columns))
			}
		}
		return out, nil
	}
	return l, nil
}

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
		if err := execAll(db, append(stmts, valueIndexes(t.Name, t.Key, t.Columns)...)); err != nil {
			return err
		}
	}
	return nil
}

// createExtensionTables provisions a shared conventional table per
// extension, keyed by (Tenant, Row), with a value index per Indexed
// column; shared by the Extension and Chunk Folding layouts.
func createExtensionTables(db *engine.DB, exts []*Extension) error {
	for _, e := range exts {
		stmts := []string{
			buildCreateTable(e.Name, append(conventionalMeta(), e.Columns...)),
			fmt.Sprintf("CREATE UNIQUE INDEX %s_tr ON %s (Tenant, Row)", e.Name, e.Name),
		}
		if err := execAll(db, append(stmts, valueIndexes(e.Name, "", e.Columns)...)); err != nil {
			return err
		}
	}
	return nil
}

// valueIndexes is the (Tenant, col) index DDL of a shared table's
// Indexed columns other than key.
func valueIndexes(table, key string, cols []Column) []string {
	var out []string
	for _, c := range cols {
		if c.Indexed && c.Name != key {
			out = append(out, fmt.Sprintf("CREATE INDEX %s_%s ON %s (Tenant, %s)", table, c.Name, table, c.Name))
		}
	}
	return out
}
