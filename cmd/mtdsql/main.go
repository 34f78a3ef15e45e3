// Command mtdsql is a small multi-tenant SQL shell over the paper's
// running example (Figure 4): it provisions the Account schema with the
// health-care and automotive extensions under a chosen layout, loads
// the example rows, and executes logical SQL for a tenant — showing the
// rewritten physical SQL and, on request, the physical plan.
//
// Statements run through one interactive session, so transaction
// control works across statements: BEGIN (or START TRANSACTION),
// COMMIT, ROLLBACK, SAVEPOINT name, and ROLLBACK TO name. Statements
// between BEGIN and COMMIT see the transaction's snapshot and commit or
// roll back atomically — including every physical statement a logical
// DML rewrites into.
//
// Usage:
//
//	mtdsql -layout chunk -tenant 17 "SELECT Beds FROM Account WHERE Hospital = 'State'"
//	echo "SELECT * FROM Account" | mtdsql -layout pivot -tenant 42 -explain
//	mtdsql -tenant 17 "BEGIN" "UPDATE Account SET Beds = 200 WHERE Aid = 1" "ROLLBACK"
//	mtdsql -layout chunkfold ".placement 42 Account"
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
)

func main() { os.Exit(run()) }

// run executes the shell and returns the process exit code: 0 only if
// every statement succeeded. The mapper's session is always closed on
// the way out — end of arguments, stdin EOF, or an early error — which
// rolls back any transaction left open.
func run() (code int) {
	var (
		layoutName = flag.String("layout", "chunk", "schema-mapping layout")
		tenant     = flag.Int64("tenant", 17, "tenant ID (17, 35, or 42)")
		explain    = flag.Bool("explain", false, "also print the physical plan")
	)
	flag.Parse()

	schema := core.PaperSchema()
	layout, err := core.LayoutByName(*layoutName, schema)
	fatalIf(err)
	db := engine.Open(engine.Config{})
	fatalIf(layout.Create(db, []*core.Tenant{
		{ID: 17, Extensions: []string{"HealthcareAccount"}},
		{ID: 35},
		{ID: 42, Extensions: []string{"AutomotiveAccount"}},
	}))
	m := core.NewSessionMapper(db, layout)
	defer func() {
		if m.Session != nil {
			m.Session.Close()
		}
	}()
	// fail marks the run as failed (non-zero exit) but keeps the shell
	// processing the remaining statements, like sqlite3 does.
	fail := func(err error) {
		fmt.Println("error:", err)
		code = 1
	}
	load := []struct {
		tenant int64
		q      string
	}{
		{17, "INSERT INTO Account (Aid, Name, Hospital, Beds) VALUES (1, 'Acme', 'St. Mary', 135), (2, 'Gump', 'State', 1042)"},
		{35, "INSERT INTO Account (Aid, Name) VALUES (1, 'Ball')"},
		{42, "INSERT INTO Account (Aid, Name, Dealers) VALUES (1, 'Big', 65)"},
	}
	for _, l := range load {
		if _, err := m.Exec(l.tenant, l.q); err != nil {
			fail(err)
			return
		}
	}

	var stmts []string
	if flag.NArg() > 0 {
		stmts = flag.Args()
	} else {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line != "" {
				stmts = append(stmts, line)
			}
		}
	}
	var img *engine.CrashImage
	for _, stmt := range stmts {
		fmt.Printf("tenant %d> %s\n", *tenant, stmt)
		// Meta-commands for the durability subsystem: `.crash` kills the
		// volatile state (buffer pool and WAL tail), `.recover` rebuilds
		// the database from the durable log + disk image.
		if strings.HasPrefix(stmt, ".") {
			fields := strings.Fields(stmt)
			switch fields[0] {
			case ".schema":
				// `.schema <physical-table>`: the engine catalog's version
				// chain for one table — every live schema version with its
				// commit stamp and column list (dropped slots marked), i.e.
				// what an online ALTER has published and what old snapshots
				// may still be reading under.
				if img != nil {
					fail(fmt.Errorf("crashed (use .recover)"))
					continue
				}
				if len(fields) != 2 {
					fail(fmt.Errorf("usage: .schema <physical-table>"))
					continue
				}
				tab, err := db.Catalog().Table(fields[1])
				if err != nil {
					fail(fmt.Errorf("%w (physical tables: %s)", err, strings.Join(db.Catalog().TableNames(), ", ")))
					continue
				}
				for _, v := range tab.Schemas.Versions() {
					fmt.Printf("  version %d (commit ts %d):\n", v.Ver, v.CommitTS)
					for _, c := range v.Cols {
						note := ""
						if c.Dropped {
							note = "  -- dropped"
						}
						fmt.Printf("    %s %s%s\n", c.Name, c.Type, note)
					}
				}
			case ".placement":
				// `.placement <tenant> <table>`: where a tenant's logical
				// table lives under the layout — fragments, meta-data,
				// columns — and whether the tenant shares that placement
				// with every tenant that sees the table alike or has it to
				// itself, which is what it costs in meta-data.
				if len(fields) != 3 {
					fail(fmt.Errorf("usage: .placement <tenant> <table>"))
					continue
				}
				id, err := strconv.ParseInt(fields[1], 10, 64)
				if err != nil {
					fail(err)
					continue
				}
				p, err := core.Placement(layout, id, fields[2])
				if err != nil {
					fail(err)
					continue
				}
				fmt.Print(p)
			case ".migrate-status":
				// `.migrate-status`: background backfill progress for every
				// table an online ALTER has touched. A stuck migration (idle
				// passes piling up with stale rows left) fails the run so
				// scripts can gate on it.
				if img != nil {
					fail(fmt.Errorf("crashed (use .recover)"))
					continue
				}
				db.NudgeBackfill()
				status := db.BackfillStatus()
				if len(status) == 0 {
					fmt.Println("  no migrations")
					continue
				}
				for _, p := range status {
					state := "migrating"
					switch {
					case p.Done:
						state = "done"
					case p.Stuck():
						state = "STUCK"
					}
					fmt.Printf("  %s: %s (passes %d, scanned %d, rewritten %d, skipped %d, residual %d)\n",
						p.Table, state, p.Passes, p.Scanned, p.Rewritten, p.Skipped, p.Residual)
					if p.Stuck() {
						fail(fmt.Errorf("migration of %s is stuck", p.Table))
					}
				}
			case ".crash":
				if img != nil {
					fail(fmt.Errorf("already crashed (use .recover)"))
					continue
				}
				img = db.Crash()
				fmt.Println("  crashed: buffer pool and WAL tail dropped")
			case ".recover":
				if img == nil {
					img = db.Crash()
				}
				db2, rep, err := engine.Recover(img)
				if err != nil {
					fail(fmt.Errorf("recover: %w", err))
					return
				}
				db, img = db2, nil
				m = core.NewSessionMapper(db, layout)
				fmt.Printf("  recovered: %d durable records, %d statements committed, %d replayed, %d skipped\n",
					rep.DurableRecords, rep.Committed, rep.Replayed, rep.Skipped)
			case ".checkpoint":
				if img != nil {
					fail(fmt.Errorf("crashed (use .recover)"))
					continue
				}
				if err := db.Checkpoint(); err != nil {
					fail(err)
					continue
				}
				fmt.Println("  checkpoint written, log truncated")
			default:
				fail(fmt.Errorf("unknown meta-command %q (.schema <table>, .placement <tenant> <table>, .migrate-status, .crash, .recover, .checkpoint)", stmt))
			}
			continue
		}
		if img != nil {
			fail(fmt.Errorf("database is crashed (use .recover)"))
			continue
		}
		// ALTER is physical DDL: it targets an engine table by its
		// physical name (like .schema does) and bypasses tenant
		// rewriting — the layouts own the logical-to-physical column
		// mapping, the engine owns the online evolution of the physical
		// tables underneath. The statement returns as soon as the new
		// schema version is published; rows migrate lazily and in the
		// background (.migrate-status shows the backfill).
		if strings.EqualFold(firstWord(stmt), "ALTER") {
			if _, err := db.Exec(stmt); err != nil {
				fail(err)
			} else {
				fmt.Println("  ok (new schema version published; rows migrate lazily)")
			}
			continue
		}
		// Transaction control runs through the mapper's session as-is —
		// no tenant rewriting, and subsequent statements join the open
		// transaction until COMMIT or ROLLBACK.
		if isTxnControl(stmt) {
			if _, err := m.Exec(*tenant, stmt); err != nil {
				fail(err)
			} else {
				fmt.Println("  ok")
			}
			continue
		}
		phys, err := m.RewriteSQL(*tenant, stmt)
		if err != nil {
			fail(err)
			continue
		}
		for _, p := range phys {
			fmt.Println("  physical:", p)
		}
		if strings.HasPrefix(strings.ToUpper(strings.TrimSpace(stmt)), "SELECT") {
			if *explain {
				plan, err := m.Explain(*tenant, stmt)
				if err == nil {
					fmt.Println("  plan:")
					for _, line := range strings.Split(strings.TrimRight(plan, "\n"), "\n") {
						fmt.Println("    " + line)
					}
				}
			}
			rows, err := m.Query(*tenant, stmt)
			if err != nil {
				fail(err)
				continue
			}
			fmt.Println("  " + strings.Join(rows.Columns, " | "))
			for _, r := range rows.Data {
				cells := make([]string, len(r))
				for i, v := range r {
					cells[i] = v.String()
				}
				fmt.Println("  " + strings.Join(cells, " | "))
			}
		} else {
			res, err := m.Exec(*tenant, stmt)
			if err != nil {
				fail(err)
				continue
			}
			fmt.Printf("  %d row(s) affected\n", res.RowsAffected)
		}
	}
	return code
}

// firstWord returns the first whitespace-delimited token of stmt.
func firstWord(stmt string) string {
	f := strings.Fields(stmt)
	if len(f) == 0 {
		return ""
	}
	return f[0]
}

// isTxnControl reports whether stmt is BEGIN/COMMIT/ROLLBACK/SAVEPOINT
// (including ROLLBACK TO), which bypass tenant rewriting.
func isTxnControl(stmt string) bool {
	word := strings.ToUpper(firstWord(stmt))
	switch word {
	case "BEGIN", "COMMIT", "ROLLBACK", "SAVEPOINT", "START":
		return true
	}
	return false
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
