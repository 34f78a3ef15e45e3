package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

// reshaped is l with its placement policy bent by reshape.
func reshaped(l *FragmentLayout, reshape func([]*fragment) []*fragment) *FragmentLayout {
	bent := *l
	bent.fragments = func(db *engine.DB, tn *Tenant, table *Table, have []*fragment) ([]*fragment, error) {
		frags, err := l.fragments(db, tn, table, have)
		if err != nil {
			return nil, err
		}
		return reshape(frags), nil
	}
	return &bent
}

// TestSparsePlacementRejected: place refuses a sparse anchor, a sparse
// fragment of more than one column and a fragment without Row beside
// others, so none can appear by accident.
func TestSparsePlacementRejected(t *testing.T) {
	schema := goldenSchema()
	pv, err := NewPivotLayout(schema)
	if err != nil {
		t.Fatal(err)
	}
	account, tn := schema.Table("Account"), &Tenant{ID: 35}
	for _, c := range []struct {
		name    string
		reshape func([]*fragment) []*fragment
		want    string // "" = placed
	}{
		{"as is", func(fs []*fragment) []*fragment { return fs }, ""},
		{"sparse anchor", func(fs []*fragment) []*fragment {
			fs[0].sparse = true // Aid's
			return fs
		}, "key Aid of Account is in a sparse fragment"},
		{"two-column sparse", func(fs []*fragment) []*fragment {
			fs[1].cols = append(fs[1].cols, fs[2].cols...) // Name and Opened
			return append(fs[:2], fs[3:]...)
		}, "sparse fragment of Account stores 2 columns"},
		{"row-less beside others", func(fs []*fragment) []*fragment {
			fs[0].rowless = true
			return fs
		}, "fragment of Account without Row is one of 4"},
		{"row-less alone", func(fs []*fragment) []*fragment {
			f := conventionalFragment("Account", account.Columns)
			f.rowless = true
			return []*fragment{f}
		}, ""},
	} {
		v, err := schema.view(tn, account)
		if err != nil {
			t.Fatal(err)
		}
		p, err := reshaped(pv, c.reshape).place(nil, tn, account, v, nil)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: placed %v, err %v; want an error naming %q", c.name, p, err, c.want)
		}
	}
}

// TestPivotStoresNonNullCells: through INSERTs with NULLs, UPDATEs from
// value to NULL and back (constant and per-row SETs), a DELETE and an
// on-line extension over existing rows, the Pivot tables hold exactly
// one row per non-NULL logical cell, counted per (Tenant, Table, Col).
// The extension writes no physical row.
func TestPivotStoresNonNullCells(t *testing.T) {
	l, err := NewPivotLayout(goldenSchema())
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(engine.Config{})
	if err := l.Create(db, copyTenants(goldenTenants())); err != nil {
		t.Fatal(err)
	}
	m := NewMapper(db, l)
	stored := func() map[[3]int64]int {
		out := map[[3]int64]int{}
		for _, name := range db.Catalog().TableNames() {
			if !strings.HasPrefix(strings.ToLower(name), "pivot_") {
				continue
			}
			rows, err := db.Query("SELECT Tenant, Table, Col FROM " + name)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows.Data {
				out[[3]int64{r[0].Int, r[1].Int, r[2].Int}]++
			}
		}
		return out
	}
	for _, s := range []struct {
		tenant int64
		sql    string
		want   int64
	}{
		{17, "INSERT INTO Account (Aid, Name, Opened, Active, Hospital, Beds, Dealers, Certified) VALUES " +
			"(1, 'a', NULL, TRUE, NULL, 5, NULL, NULL), (2, NULL, DATE '2008-01-01', NULL, 'h', NULL, 3, FALSE), (3, 'c', NULL, NULL, NULL, NULL, NULL, NULL)", 3},
		{35, "INSERT INTO Account (Aid, Name) VALUES (1, 'x'), (2, NULL)", 2},
		{35, "INSERT INTO Contact VALUES (1, NULL, 'e'), (2, 1, NULL)", 2},
		{17, "UPDATE Account SET Name = NULL WHERE Aid = 1", 1},                                       // value -> NULL, constant
		{17, "UPDATE Account SET Opened = DATE '2009-01-01', Active = FALSE WHERE Opened IS NULL", 2}, // NULL -> value, constant
		{17, "UPDATE Account SET Beds = Dealers, Dealers = Beds", 3},                                  // per row, both ways at once
		{17, "UPDATE Account SET Hospital = Name WHERE Aid > 1", 2},                                   // per row: 'h' -> NULL, NULL -> 'c'
		{17, "DELETE FROM Account WHERE Aid = 3", 1},
	} {
		mustExec(t, m, s.tenant, s.sql, s.want)
	}

	before := stored()
	if err := l.ExtendTenant(db, 35, "HealthcareAccount"); err != nil {
		t.Fatal(err)
	}
	if after := stored(); !reflect.DeepEqual(after, before) {
		t.Fatalf("ExtendTenant wrote physical rows:\nbefore %v\nafter  %v", before, after)
	}
	mustExec(t, m, 35, "UPDATE Account SET Beds = 1 WHERE Aid = 1", 1)
	mustExec(t, m, 35, "UPDATE Account SET Hospital = NULL", 2)

	// Table ids are the base tables' ranks by name: Account 0, Contact 1.
	want := map[[3]int64]int{}
	for _, tenant := range []int64{17, 35, 42} {
		for tid, table := range []string{"Account", "Contact"} {
			rows, err := m.Query(tenant, "SELECT * FROM "+table)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows.Data {
				for col, v := range r {
					if !v.IsNull() {
						want[[3]int64{tenant, int64(tid), int64(col)}]++
					}
				}
			}
		}
	}
	if got := stored(); !reflect.DeepEqual(got, want) {
		t.Errorf("physical cells per (Tenant, Table, Col):\ngot  %v\nwant %v", fmt.Sprint(got), fmt.Sprint(want))
	}
}
