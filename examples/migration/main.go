// migration demonstrates the paper's §7 ongoing-work goal: migrating
// tenants from one schema-mapping representation to another on-the-fly.
// A service that started every tenant on Private Tables (fast, simple)
// hits the meta-data wall as tenants multiply (§5); this program moves
// the long tail of small tenants onto Chunk Folding — tenant by tenant,
// verifying each — while big tenants keep their private tables. Both
// representations live in one database behind a core.LayoutMux; a
// core.Mover copies a tenant, verifies it and flips its route (here
// with no concurrent writers; TestMoveTenantUnderTraffic has them).
//
//	go run ./examples/migration
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/types"
)

func schema() *core.Schema {
	return &core.Schema{
		Tables: []*core.Table{{
			Name: "Account",
			Key:  "Aid",
			Columns: []core.Column{
				{Name: "Aid", Type: types.IntType, NotNull: true, Indexed: true},
				{Name: "Name", Type: types.VarcharType(50)},
				{Name: "Balance", Type: types.FloatType},
			},
		}},
		Extensions: []*core.Extension{
			{Name: "HealthcareAccount", Base: "Account", Columns: []core.Column{
				{Name: "Beds", Type: types.IntType},
			}},
		},
	}
}

func main() {
	const tenants = 12
	const big = 3 // tenants 1..big stay on private tables

	// Day 1: everyone on Private Tables.
	private, err := core.NewPrivateLayout(schema())
	fatal(err)
	db := engine.Open(engine.Config{})
	mux := core.NewLayoutMux(private)
	var tns []*core.Tenant
	for i := 1; i <= tenants; i++ {
		tn := &core.Tenant{ID: int64(i)}
		if i%3 == 0 {
			tn.Extensions = []string{"HealthcareAccount"}
		}
		tns = append(tns, tn)
	}
	fatal(mux.Create(db, tns))
	m := core.NewMapper(db, mux)
	for i := 1; i <= tenants; i++ {
		for a := 1; a <= 15; a++ {
			q := fmt.Sprintf("INSERT INTO Account (Aid, Name, Balance) VALUES (%d, 'acct-%d', %d.50)", a, a, a*100)
			if _, err := m.Exec(int64(i), q); err != nil {
				log.Fatal(err)
			}
		}
		if i%3 == 0 {
			if _, err := m.Exec(int64(i), "UPDATE Account SET Beds = Aid * 10 WHERE Aid <= 5"); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("private layout: %d tables for %d tenants\n", db.Stats().Tables, tenants)

	// Day 400: the meta-data budget hurts; fold the long tail. The
	// chunk-folding tables are provisioned once, beside the private
	// ones; a moved tenant registers there on arrival.
	folded, err := core.NewChunkFoldingLayout(schema(), core.FoldingOptions{})
	fatal(err)
	fatal(folded.Create(db, nil))
	mover := &core.Mover{DB: db, Mux: mux, Verify: true}
	for _, tn := range tns[big:] {
		rep, err := mover.Move(tn.ID, folded)
		if err != nil {
			log.Fatalf("tenant %d: %v", tn.ID, err)
		}
		// The tenant is served from the chunk tables from here on; its
		// private tables can go.
		fatal(private.RemoveTenant(db, tn.ID))
		if tn.ID == int64(big)+1 {
			fmt.Printf("tenant %d: %d rows copied in %d round(s), gate held %v\n",
				rep.Tenant, rep.RowsCopied, rep.Rounds, rep.GatePause)
		}
	}
	fmt.Printf("after folding tenants %d..%d: %d tables for the same %d tenants\n",
		big+1, tenants, db.Stats().Tables, tenants)

	// Every tenant keeps answering the same logical SQL through the mux.
	rows, err := m.Query(6, "SELECT Name, Beds FROM Account WHERE Aid = 5")
	fatal(err)
	fmt.Printf("tenant 6 (%s): Name=%v Beds=%v\n", mux.Route(6).Name(), rows.Data[0][0], rows.Data[0][1])
	rows, err = m.Query(1, "SELECT SUM(Balance) FROM Account")
	fatal(err)
	fmt.Printf("tenant 1 (%s): balance sum %v\n", mux.Route(1).Name(), rows.Data[0][0])
	fmt.Println("migration verified: every moved tenant's logical rows were identical in both representations at cutover")
}

func fatal(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
