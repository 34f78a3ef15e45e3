package core

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/types"
)

// TestBasicRefusesExtensions: Basic's policy refuses a tenant with an
// extension and an extension enabled on-line. The refused ExtendTenant
// leaves the tenant as it was: its generation stays, so a rewrite cached
// before it still hits and nothing is invalidated.
func TestBasicRefusesExtensions(t *testing.T) {
	l, err := NewBasicLayout(paperSchema())
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(engine.Config{})
	if err := l.Create(db, []*Tenant{{ID: 1}, {ID: 2}}); err != nil {
		t.Fatal(err)
	}
	const refusal = "basic layout cannot represent extensions"
	if err := l.AddTenant(db, &Tenant{ID: 3, Extensions: []string{"HealthcareAccount"}}); err == nil || !strings.Contains(err.Error(), refusal) {
		t.Fatalf("AddTenant with an extension: %v, want %q", err, refusal)
	}
	if _, err := l.st.tenant(3); err == nil {
		t.Error("a refused tenant was registered")
	}

	m := NewMapper(db, l)
	const q = "SELECT * FROM Account"
	queryAll(t, m, 1, q)
	gen, before := l.st.generation(1), m.Cache.Stats()
	if err := l.ExtendTenant(db, 1, "HealthcareAccount"); err == nil || !strings.Contains(err.Error(), refusal) {
		t.Fatalf("ExtendTenant: %v, want %q", err, refusal)
	}
	if got := l.st.generation(1); got != gen {
		t.Errorf("refused ExtendTenant moved the generation %d -> %d", gen, got)
	}
	rows, err := m.Query(1, q)
	if err != nil || len(rows.Columns) != 2 {
		t.Fatalf("SELECT * after the refusal: %v, %v", rows, err)
	}
	if after := m.Cache.Stats(); after.Hits != before.Hits+1 || after.Invalidated != before.Invalidated {
		t.Errorf("refused ExtendTenant staled the cached rewrite: before %+v after %+v", before, after)
	}
	if tn, _ := l.st.tenant(1); len(tn.Extensions) != 0 {
		t.Errorf("refused extension recorded: %v", tn.Extensions)
	}
}

// TestRemoveTenantSharedRefuses: only a layout whose tables are the
// tenant's own can drop them. Every other layout refuses, drops no
// table, and keeps serving the tenant.
func TestRemoveTenantSharedRefuses(t *testing.T) {
	layouts := allLayouts(t, paperSchema())
	layouts["basic"] = basicFor(t, paperSchema(), paperTenants())
	for name, m := range layouts {
		if name == "private" {
			continue
		}
		mustExec(t, m, 35, "INSERT INTO Account (Aid, Name) VALUES (1, 'Ball')", 1)
		before := m.DB.Stats().Tables
		if err := m.Layout.(*FragmentLayout).RemoveTenant(m.DB, 35); err == nil {
			t.Errorf("%s: RemoveTenant of a tenant in shared tables succeeded", name)
		}
		if got := m.DB.Stats().Tables; got != before {
			t.Errorf("%s: tables %d -> %d after a refused RemoveTenant", name, before, got)
		}
		if got := queryAll(t, m, 35, "SELECT Name FROM Account"); len(got) != 1 {
			t.Errorf("%s: tenant 35 after a refused RemoveTenant: %v", name, got)
		}
	}
}

// TestRestoreRowsNeedsTrashcan: RestoreRows on a layout without
// Trashcan marker columns refuses, for a registered tenant and table.
func TestRestoreRowsNeedsTrashcan(t *testing.T) {
	for name, m := range allLayouts(t, paperSchema()) {
		if name == "chunk-trashcan" {
			continue
		}
		loadPaperData(t, m)
		err := m.Layout.(*FragmentLayout).RestoreRows(m.DB, 17, "Account", []types.Value{types.NewInt(1)})
		if err == nil || !strings.Contains(err.Error(), "trashcan is not enabled") {
			t.Errorf("%s: RestoreRows without trashcan: %v", name, err)
		}
	}
}

// TestConventionalExtensionValueIndex: a conventional extension table
// gets a (Tenant, col) value index per Indexed column, in the Extension
// layout and in Chunk Folding alike.
func TestConventionalExtensionValueIndex(t *testing.T) {
	schema := paperSchema()
	schema.Extension("HealthcareAccount").Columns[0].Indexed = true // Hospital
	el, err := NewExtensionLayout(schema)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := NewChunkFoldingLayout(schema, FoldingOptions{ConventionalExtensions: []string{"HealthcareAccount"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []Layout{el, fl} {
		db := engine.Open(engine.Config{})
		if err := l.Create(db, paperTenants()); err != nil {
			t.Fatal(err)
		}
		tbl, err := db.Catalog().Table("HealthcareAccount")
		if err != nil {
			t.Fatal(err)
		}
		var found bool
		for _, ix := range tbl.Indexes {
			found = found || strings.Join(ix.ColNames(tbl), ", ") == "Tenant, Hospital"
		}
		if !found {
			t.Errorf("%s: HealthcareAccount has no (Tenant, Hospital) index", l.Name())
		}
	}
}
