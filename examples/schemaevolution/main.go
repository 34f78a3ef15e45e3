// schemaevolution demonstrates the on-line schema changes the paper
// requires of a SaaS database (§3: generic structures "allow the
// logical schemas to be modified without changing the physical schema,
// which is important because many databases cannot perform DDL
// operations while they are on-line"):
//
//   - new tenants arrive while queries from other tenants keep running,
//   - an existing tenant enables an extension on-line and immediately
//     reads/writes the new columns,
//   - all of it without any CREATE/ALTER TABLE against the chunk tables.
//
// go run ./examples/schemaevolution
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/types"
)

func main() {
	schema := &core.Schema{
		Tables: []*core.Table{{
			Name: "Ticket",
			Key:  "Tid",
			Columns: []core.Column{
				{Name: "Tid", Type: types.IntType, NotNull: true, Indexed: true},
				{Name: "Title", Type: types.VarcharType(80)},
				{Name: "Opened", Type: types.DateType},
			},
		}},
		Extensions: []*core.Extension{
			{Name: "SLATicket", Base: "Ticket", Columns: []core.Column{
				{Name: "Deadline", Type: types.DateType},
				{Name: "Severity", Type: types.IntType},
			}},
		},
	}
	layout, err := core.NewChunkLayout(schema, core.ChunkOptions{})
	if err != nil {
		log.Fatal(err)
	}
	db := engine.Open(engine.Config{})
	if err := layout.Create(db, []*core.Tenant{{ID: 1}, {ID: 2}}); err != nil {
		log.Fatal(err)
	}
	m := core.NewMapper(db, layout)

	for t := int64(1); t <= 2; t++ {
		for i := 1; i <= 50; i++ {
			q := fmt.Sprintf("INSERT INTO Ticket (Tid, Title, Opened) VALUES (%d, 'ticket %d', DATE '2008-06-%02d')", i, i, 1+i%28)
			if _, err := m.Exec(t, q); err != nil {
				log.Fatal(err)
			}
		}
	}
	tablesBefore := db.Stats().Tables

	// Background load: tenant 1 keeps querying while the schema evolves.
	var stop atomic.Bool
	var queries atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := m.Query(1, "SELECT COUNT(*) FROM Ticket WHERE Opened >= DATE '2008-06-10'"); err != nil {
					log.Fatal(err)
				}
				queries.Add(1)
			}
		}()
	}

	time.Sleep(20 * time.Millisecond)

	// On-line change 1: a new tenant arrives — pure meta-data.
	if err := layout.AddTenant(db, &core.Tenant{ID: 3, Extensions: []string{"SLATicket"}}); err != nil {
		log.Fatal(err)
	}
	if _, err := m.Exec(3, "INSERT INTO Ticket (Tid, Title, Opened, Deadline, Severity) VALUES (1, 'first', DATE '2008-06-12', DATE '2008-06-15', 2)"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("tenant 3 provisioned and writing, while tenant 1 stays on-line")

	// On-line change 2: tenant 2 enables the SLA extension; its
	// existing rows read NULL in the new columns immediately.
	if err := layout.ExtendTenant(db, 2, "SLATicket"); err != nil {
		log.Fatal(err)
	}
	rows, err := m.Query(2, "SELECT Tid, Deadline FROM Ticket WHERE Tid = 1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tenant 2 after ExtendTenant: Tid=%v Deadline=%v (NULL until set)\n",
		rows.Data[0][0], rows.Data[0][1])
	if _, err := m.Exec(2, "UPDATE Ticket SET Deadline = DATE '2008-07-01', Severity = 1 WHERE Tid = 1"); err != nil {
		log.Fatal(err)
	}
	rows, _ = m.Query(2, "SELECT Deadline, Severity FROM Ticket WHERE Tid = 1")
	fmt.Printf("tenant 2 SLA columns now: %v / %v\n", rows.Data[0][0], rows.Data[0][1])

	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	fmt.Printf("background sessions ran %d queries during the schema changes\n", queries.Load())
	fmt.Printf("physical tables before/after: %d/%d — no DDL was needed\n",
		tablesBefore, db.Stats().Tables)
	asg, _ := core.Placement(layout, 2, "Ticket")
	fmt.Print("tenant 2 placement after evolution:\n", asg)
}
