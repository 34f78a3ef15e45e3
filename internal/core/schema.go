// Package core implements the paper's contribution: schema-mapping
// techniques for multi-tenant databases. Multiple single-tenant
// *logical* schemas — a shared base schema plus per-tenant extensions —
// are mapped onto one multi-tenant *physical* schema using any of the
// layouts from the paper's Figure 4:
//
//	Basic           shared tables + Tenant column (no extensibility)
//	Private         per-tenant physical tables            (Fig 4a)
//	Extension       shared base + shared extension tables (Fig 4b)
//	Universal       one generic wide table                (Fig 4c)
//	Pivot           one row per cell, typed pivot tables  (Fig 4d)
//	Chunk           typed multi-column chunk tables       (Fig 4e)
//	Chunk Folding   conventional + chunk tables mixed     (Fig 4f)
//	Vertical        one physical table per chunk          (Fig 12 baseline)
//
// The query-transformation layer (§6.1 of the paper) rewrites logical
// SQL into physical SQL; the DML transformation (§6.3) turns logical
// writes into the two-phase row-collection/update protocol.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/types"
)

// Column is a logical column of a base table or extension.
type Column struct {
	Name    string
	Type    types.ColumnType
	NotNull bool
	// Indexed requests a value index on this column in layouts that
	// support per-column indexing (conventional tables, and the
	// indexed flavors of pivot/chunk tables).
	Indexed bool
}

// Table is a logical base table. Key names the entity-ID column, which
// must exist, be NOT NULL, and uniquely identify rows within a tenant —
// the testbed's schema follows this convention (§4.1) and generic
// layouts anchor row reconstruction on it.
type Table struct {
	Name    string
	Key     string
	Columns []Column
}

// Column returns the named column and its ordinal, or nil, -1.
func (t *Table) Column(name string) (*Column, int) {
	for i := range t.Columns {
		if strings.EqualFold(t.Columns[i].Name, name) {
			return &t.Columns[i], i
		}
	}
	return nil, -1
}

// Extension is a named group of extra columns some tenants attach to a
// base table (e.g. the health-care extension of Account in the paper's
// running example).
type Extension struct {
	Name    string
	Base    string
	Columns []Column
}

// Schema is the application's logical schema: base tables shared by all
// tenants plus the catalogue of available extensions.
type Schema struct {
	Tables     []*Table
	Extensions []*Extension
}

// Table returns the named base table.
func (s *Schema) Table(name string) *Table {
	for _, t := range s.Tables {
		if strings.EqualFold(t.Name, name) {
			return t
		}
	}
	return nil
}

// Extension returns the named extension.
func (s *Schema) Extension(name string) *Extension {
	for _, e := range s.Extensions {
		if strings.EqualFold(e.Name, name) {
			return e
		}
	}
	return nil
}

// ExtensionsFor lists the extensions defined on a base table.
func (s *Schema) ExtensionsFor(base string) []*Extension {
	var out []*Extension
	for _, e := range s.Extensions {
		if strings.EqualFold(e.Base, base) {
			out = append(out, e)
		}
	}
	return out
}

// Validate checks structural invariants: non-empty unique names, keys
// present and NOT NULL, extension bases resolvable, and no column
// collisions between a base table and its extensions.
func (s *Schema) Validate() error {
	if len(s.Tables) == 0 {
		return fmt.Errorf("core: schema has no tables")
	}
	seen := map[string]bool{}
	for _, t := range s.Tables {
		k := strings.ToLower(t.Name)
		if t.Name == "" || seen[k] {
			return fmt.Errorf("core: duplicate or empty table name %q", t.Name)
		}
		seen[k] = true
		if len(t.Columns) == 0 {
			return fmt.Errorf("core: table %s has no columns", t.Name)
		}
		cols := map[string]bool{}
		for _, c := range t.Columns {
			ck := strings.ToLower(c.Name)
			if c.Name == "" || cols[ck] {
				return fmt.Errorf("core: duplicate or empty column %q in %s", c.Name, t.Name)
			}
			cols[ck] = true
		}
		if t.Key == "" {
			return fmt.Errorf("core: table %s has no key column", t.Name)
		}
		kc, _ := t.Column(t.Key)
		if kc == nil {
			return fmt.Errorf("core: table %s key %s is not a column", t.Name, t.Key)
		}
		if !kc.NotNull {
			return fmt.Errorf("core: table %s key %s must be NOT NULL", t.Name, t.Key)
		}
	}
	extSeen := map[string]bool{}
	for _, e := range s.Extensions {
		k := strings.ToLower(e.Name)
		if e.Name == "" || extSeen[k] || seen[k] {
			return fmt.Errorf("core: duplicate or empty extension name %q", e.Name)
		}
		extSeen[k] = true
		base := s.Table(e.Base)
		if base == nil {
			return fmt.Errorf("core: extension %s has unknown base %q", e.Name, e.Base)
		}
		if len(e.Columns) == 0 {
			return fmt.Errorf("core: extension %s has no columns", e.Name)
		}
		for _, c := range e.Columns {
			if bc, _ := base.Column(c.Name); bc != nil {
				return fmt.Errorf("core: extension %s column %s collides with base %s", e.Name, c.Name, e.Base)
			}
		}
	}
	// Extension-vs-extension collisions only matter when one tenant
	// enables both; checked per tenant in LogicalColumns.
	return nil
}

// Tenant is one organization with a chosen set of extensions.
type Tenant struct {
	ID         int64
	Extensions []string
}

// HasExtension reports whether the tenant enabled the extension.
func (t *Tenant) HasExtension(name string) bool {
	for _, e := range t.Extensions {
		if strings.EqualFold(e, name) {
			return true
		}
	}
	return false
}

// with returns a copy of the tenant that has one more extension.
func (t *Tenant) with(ext string) *Tenant {
	return &Tenant{ID: t.ID, Extensions: append(append([]string{}, t.Extensions...), ext)}
}

// LogicalColumns returns the columns of a tenant's view of a base
// table: base columns followed by the columns of each enabled extension
// on that base, in the tenant's extension order.
func (s *Schema) LogicalColumns(tn *Tenant, table string) ([]Column, error) {
	t := s.Table(table)
	if t == nil {
		return nil, fmt.Errorf("core: no logical table %s", table)
	}
	return s.logicalColumns(tn, t)
}

func (s *Schema) logicalColumns(tn *Tenant, t *Table) ([]Column, error) {
	out := append([]Column(nil), t.Columns...)
	names := map[string]string{}
	for _, c := range t.Columns {
		names[strings.ToLower(c.Name)] = t.Name
	}
	for _, en := range tn.Extensions {
		e := s.Extension(en)
		if e == nil {
			return nil, fmt.Errorf("core: tenant %d references unknown extension %s", tn.ID, en)
		}
		if !strings.EqualFold(e.Base, t.Name) {
			continue
		}
		for _, c := range e.Columns {
			k := strings.ToLower(c.Name)
			if prev, dup := names[k]; dup {
				return nil, fmt.Errorf("core: tenant %d: column %s of %s collides with %s", tn.ID, c.Name, en, prev)
			}
			names[k] = en
			out = append(out, c)
		}
	}
	return out, nil
}

// view is a tenant's view of one base table: its logical columns in
// order, and where each name sits among them. Views are immutable;
// extending a tenant installs a new one. The name index is two flat
// slices, not a map: a layout keeps a view per base table (1 500 of
// them in the many-tables testbed), and the collector walks every map.
type view struct {
	cols  []Column
	names []string // lower-cased column names, sorted
	at    []uint16 // at[i] is where names[i] sits in cols
}

func newView(cols []Column) *view {
	v := &view{cols: cols, names: make([]string, len(cols)), at: make([]uint16, len(cols))}
	lower := make([]string, len(cols))
	for i, c := range cols {
		lower[i], v.at[i] = strings.ToLower(c.Name), uint16(i)
	}
	sort.Slice(v.at, func(a, b int) bool { return lower[v.at[a]] < lower[v.at[b]] })
	for i, at := range v.at {
		v.names[i] = lower[at]
	}
	return v
}

// find resolves a column name, case-insensitively, to its position.
func (v *view) find(name string) (int, bool) {
	name = strings.ToLower(name)
	if i := sort.SearchStrings(v.names, name); i < len(v.names) && v.names[i] == name {
		return int(v.at[i]), true
	}
	return 0, false
}

// viewSource says what a tenant sees of a base table: a layout's state
// (the views published with its tenants) or a bare Schema (computed on
// the spot, for callers outside any layout).
type viewSource interface {
	Table(name string) *Table
	view(tn *Tenant, table *Table) (*view, error)
}

// view computes tn's view of a base table from LogicalColumns.
func (s *Schema) view(tn *Tenant, table *Table) (*view, error) {
	cols, err := s.logicalColumns(tn, table)
	if err != nil {
		return nil, err
	}
	return newView(cols), nil
}

// TableIDs assigns stable numeric IDs to base tables (sorted by name),
// used as the Table column value in generic structures.
func (s *Schema) TableIDs() map[string]int {
	names := make([]string, 0, len(s.Tables))
	for _, t := range s.Tables {
		names = append(names, t.Name)
	}
	sort.Slice(names, func(i, j int) bool {
		return strings.ToLower(names[i]) < strings.ToLower(names[j])
	})
	out := make(map[string]int, len(names))
	for i, n := range names {
		out[strings.ToLower(n)] = i
	}
	return out
}
