// layoutcompare runs an identical multi-tenant workload through every
// schema-mapping layout of the paper's Figure 4 and compares what each
// costs: physical tables (the meta-data budget), total pages, and query
// latency. It makes the paper's §3 trade-off table concrete:
// consolidation vs extensibility vs performance.
//
//	go run ./examples/layoutcompare
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/types"
)

const tenants = 30

func schema() *core.Schema {
	return &core.Schema{
		Tables: []*core.Table{
			{
				Name: "Account",
				Key:  "Aid",
				Columns: []core.Column{
					{Name: "Aid", Type: types.IntType, NotNull: true, Indexed: true},
					{Name: "Name", Type: types.VarcharType(50)},
					{Name: "Industry", Type: types.VarcharType(30)},
					{Name: "Since", Type: types.DateType},
				},
			},
			{
				Name: "Contact",
				Key:  "Cid",
				Columns: []core.Column{
					{Name: "Cid", Type: types.IntType, NotNull: true, Indexed: true},
					{Name: "AccountId", Type: types.IntType, Indexed: true},
					{Name: "LastName", Type: types.VarcharType(40)},
				},
			},
		},
		Extensions: []*core.Extension{
			{Name: "HealthcareAccount", Base: "Account", Columns: []core.Column{
				{Name: "Hospital", Type: types.VarcharType(50)},
				{Name: "Beds", Type: types.IntType},
			}},
			{Name: "AutomotiveAccount", Base: "Account", Columns: []core.Column{
				{Name: "Dealers", Type: types.IntType},
			}},
		},
	}
}

func buildTenants() []*core.Tenant {
	out := make([]*core.Tenant, tenants)
	for i := range out {
		t := &core.Tenant{ID: int64(i + 1)}
		switch i % 3 {
		case 0:
			t.Extensions = []string{"HealthcareAccount"}
		case 1:
			t.Extensions = []string{"AutomotiveAccount"}
		}
		out[i] = t
	}
	return out
}

func main() {
	type build struct {
		name string
		mk   func(*core.Schema) (core.Layout, error)
	}
	builds := []build{
		{"private (4a)", func(s *core.Schema) (core.Layout, error) { return core.NewPrivateLayout(s) }},
		{"extension (4b)", func(s *core.Schema) (core.Layout, error) { return core.NewExtensionLayout(s) }},
		{"universal (4c)", func(s *core.Schema) (core.Layout, error) { return core.NewUniversalLayout(s, 16) }},
		{"pivot (4d)", func(s *core.Schema) (core.Layout, error) { return core.NewPivotLayout(s) }},
		{"chunk (4e)", func(s *core.Schema) (core.Layout, error) {
			return core.NewChunkLayout(s, core.ChunkOptions{})
		}},
		{"chunkfold (4f)", func(s *core.Schema) (core.Layout, error) {
			return core.NewChunkFoldingLayout(s, core.FoldingOptions{ConventionalExtensions: []string{"HealthcareAccount"}})
		}},
		{"vertical (f12)", func(s *core.Schema) (core.Layout, error) { return core.NewVerticalLayout(s, nil) }},
	}

	fmt.Printf("%-16s %8s %8s %12s %12s\n", "layout", "tables", "pages", "point-query", "report-query")
	for _, bl := range builds {
		l, err := bl.mk(schema())
		if err != nil {
			log.Fatalf("%s: %v", bl.name, err)
		}
		db := engine.Open(engine.Config{})
		if err := l.Create(db, buildTenants()); err != nil {
			log.Fatalf("%s create: %v", bl.name, err)
		}
		m := core.NewMapper(db, l)
		// Identical per-tenant data.
		for i := 1; i <= tenants; i++ {
			tid := int64(i)
			for a := 1; a <= 20; a++ {
				q := fmt.Sprintf("INSERT INTO Account (Aid, Name, Industry, Since) VALUES (%d, 'acct%d', 'ind%d', DATE '2008-01-%02d')",
					a, a, a%4, 1+a%28)
				if _, err := m.Exec(tid, q); err != nil {
					log.Fatalf("%s insert: %v", bl.name, err)
				}
				q = fmt.Sprintf("INSERT INTO Contact (Cid, AccountId, LastName) VALUES (%d, %d, 'last%d')", a, a, a%7)
				if _, err := m.Exec(tid, q); err != nil {
					log.Fatalf("%s insert: %v", bl.name, err)
				}
			}
		}
		point := timeQuery(m, "SELECT Name, Industry FROM Account WHERE Aid = 7")
		report := timeQuery(m, "SELECT a.Industry, COUNT(*) FROM Account a, Contact c WHERE c.AccountId = a.Aid GROUP BY a.Industry")
		st := db.Stats()
		fmt.Printf("%-16s %8d %8d %9.0f µs %9.0f µs\n",
			bl.name, st.Tables, db.Disk().NumPages(),
			float64(point)/float64(time.Microsecond), float64(report)/float64(time.Microsecond))
	}
	fmt.Println("\ntables: physical table count after provisioning", tenants, "tenants —")
	fmt.Println("the meta-data budget each layout spends (private grows per tenant,")
	fmt.Println("extension per distinct extension, generic layouts stay constant).")
}

// timeQuery averages the latency of one query across all tenants.
func timeQuery(m *core.Mapper, q string) time.Duration {
	// Warm up.
	if _, err := m.Query(1, q); err != nil {
		log.Fatalf("%s: %v", q, err)
	}
	t0 := time.Now()
	n := 0
	for i := 1; i <= tenants; i++ {
		if _, err := m.Query(int64(i), q); err != nil {
			log.Fatal(err)
		}
		n++
	}
	return time.Since(t0) / time.Duration(n)
}
