// Package testbed implements the paper's configurable multi-tenant
// database testbed (§4): the 10-table CRM application schema of
// Figure 5, a synthetic data generator, and a Controller/Worker harness
// that deals TPC-C-style action cards with the Figure 6 distribution
// and records per-class response times, from which the §5 metrics —
// baseline compliance, throughput, 95 % response times, buffer-pool hit
// ratios — are computed.
package testbed

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/types"
)

// CRMTables are the ten entities of the paper's Figure 5 schema, a
// DAG with one-to-many child-to-parent relationships:
//
//	Campaign   Account
//	   |      /   |   \------\
//	 Lead  Opportunity  Asset  Contact
//	        |      |      |
//	 LineItem Product   Case  Contract
var CRMTables = []string{
	"Campaign", "Account", "Lead", "Opportunity", "Asset", "Contact",
	"LineItem", "Product", "Case", "Contract",
}

// crmParents maps each child entity to its parent entities (foreign
// keys), following the Figure 5 arrows.
var crmParents = map[string][]string{
	"Lead":        {"Campaign", "Account"},
	"Opportunity": {"Account"},
	"Asset":       {"Account"},
	"Contact":     {"Account"},
	"LineItem":    {"Opportunity"},
	"Product":     {"Opportunity"},
	"Case":        {"Asset", "Contact"},
	"Contract":    {"Contact"},
}

// CRMSchema builds one instance of the Figure 5 schema. The suffix
// distinguishes multiple instances when the testbed raises schema
// variability (§4.1: copies of the 10-table schema that "represent
// logically different sets of entities"); suffix "" is the plain
// schema. Each table has about 20 columns, one of which is the
// entity ID.
func CRMSchema(suffix string) *core.Schema {
	s := &core.Schema{}
	for _, base := range CRMTables {
		name := base + suffix
		t := &core.Table{Name: name, Key: "Id"}
		t.Columns = append(t.Columns,
			core.Column{Name: "Id", Type: types.IntType, NotNull: true, Indexed: true},
		)
		for _, parent := range crmParents[base] {
			t.Columns = append(t.Columns, core.Column{
				Name: parent + "Id", Type: types.IntType, Indexed: true,
			})
		}
		// Entity-specific columns up to ~20 total: a fixed mix of
		// strings, ints, dates, and floats.
		named := map[string][]core.Column{
			"Account": {
				{Name: "Name", Type: types.VarcharType(60), Indexed: true},
				{Name: "Industry", Type: types.VarcharType(30), Indexed: true},
			},
			"Campaign": {
				{Name: "Name", Type: types.VarcharType(60)},
				{Name: "StartDate", Type: types.DateType, Indexed: true},
			},
			"Lead":        {{Name: "Status", Type: types.VarcharType(20), Indexed: true}},
			"Opportunity": {{Name: "Stage", Type: types.VarcharType(20), Indexed: true}, {Name: "CloseDate", Type: types.DateType, Indexed: true}},
			"Asset":       {{Name: "SerialNo", Type: types.VarcharType(40), Indexed: true}},
			"Contact":     {{Name: "LastName", Type: types.VarcharType(40), Indexed: true}, {Name: "FirstName", Type: types.VarcharType(40)}},
			"Case":        {{Name: "Status", Type: types.VarcharType(20), Indexed: true}},
			"Contract":    {{Name: "EndDate", Type: types.DateType, Indexed: true}},
			"LineItem":    {{Name: "Quantity", Type: types.IntType, Indexed: true}},
			"Product":     {{Name: "Sku", Type: types.VarcharType(30), Indexed: true}},
		}
		t.Columns = append(t.Columns, named[base]...)
		for i := 0; len(t.Columns) < 20; i++ {
			var ct types.ColumnType
			switch i % 4 {
			case 0:
				ct = types.VarcharType(40)
			case 1:
				ct = types.IntType
			case 2:
				ct = types.DateType
			default:
				ct = types.FloatType
			}
			t.Columns = append(t.Columns, core.Column{Name: fmt.Sprintf("Attr%02d", i), Type: ct})
		}
		s.Tables = append(s.Tables, t)
	}
	return s
}

// CRMExtensions returns optional per-vertical extensions of the CRM
// schema ("the testbed will eventually offer a set of possible
// extensions for each base table" — we offer them now). The suffix
// matches the schema instance they extend.
func CRMExtensions(suffix string) []*core.Extension {
	return []*core.Extension{
		{Name: "HealthcareAccount" + suffix, Base: "Account" + suffix, Columns: []core.Column{
			{Name: "Hospital", Type: types.VarcharType(60)},
			{Name: "Beds", Type: types.IntType},
		}},
		{Name: "AutomotiveAccount" + suffix, Base: "Account" + suffix, Columns: []core.Column{
			{Name: "Dealers", Type: types.IntType},
		}},
		{Name: "RegulatedCase" + suffix, Base: "Case" + suffix, Columns: []core.Column{
			{Name: "Regulator", Type: types.VarcharType(40)},
			{Name: "DueDate", Type: types.DateType},
		}},
	}
}

// MultiInstanceSchema builds a logical schema containing `instances`
// copies of the CRM schema (plus extensions), the §4.1 mechanism for
// programmatically increasing the number of tables "without making
// them too synthetic".
func MultiInstanceSchema(instances int, withExtensions bool) *core.Schema {
	out := &core.Schema{}
	for i := 0; i < instances; i++ {
		suffix := ""
		if instances > 1 {
			suffix = fmt.Sprintf("_i%d", i)
		}
		s := CRMSchema(suffix)
		out.Tables = append(out.Tables, s.Tables...)
		if withExtensions {
			out.Extensions = append(out.Extensions, CRMExtensions(suffix)...)
		}
	}
	return out
}

// InstanceSuffix returns the table-name suffix of instance i in an
// n-instance schema.
func InstanceSuffix(i, n int) string {
	if n <= 1 {
		return ""
	}
	return fmt.Sprintf("_i%d", i)
}
