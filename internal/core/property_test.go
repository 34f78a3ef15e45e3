package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sql"
)

// TestRewriteRoundTripProperty: for random predicates, every layout's
// rewritten SQL must (a) re-parse — the transformation layer emits SQL
// text in real deployments — and (b) return the same rows as the
// reference, plainTenants.
func TestRewriteRoundTripProperty(t *testing.T) {
	schema := paperSchema()
	layouts := allLayouts(t, schema)
	ref := newPlainTenants(t, schema, paperTenants())
	load := func(m logicalDB) {
		loadPaperData(t, m)
		// Extra rows for more interesting predicates.
		for i := 10; i < 30; i++ {
			q := fmt.Sprintf("INSERT INTO Account (Aid, Name, Hospital, Beds) VALUES (%d, 'n%d', 'h%d', %d)",
				i, i, i%4, i*37%900)
			if _, err := m.Exec(17, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	load(ref)
	for _, m := range layouts {
		load(m)
	}

	predicates := func(r *rand.Rand) string {
		var conjs []string
		n := 1 + r.Intn(3)
		for i := 0; i < n; i++ {
			switch r.Intn(5) {
			case 0:
				conjs = append(conjs, fmt.Sprintf("Aid > %d", r.Intn(30)))
			case 1:
				conjs = append(conjs, fmt.Sprintf("Beds < %d", r.Intn(1200)))
			case 2:
				conjs = append(conjs, fmt.Sprintf("Name LIKE 'n%d%%'", r.Intn(3)))
			case 3:
				conjs = append(conjs, fmt.Sprintf("Hospital = 'h%d'", r.Intn(4)))
			default:
				conjs = append(conjs, "Beds IS NOT NULL")
			}
		}
		return strings.Join(conjs, " AND ")
	}
	projections := []string{
		"Aid, Name",
		"Aid, Beds, Hospital",
		"COUNT(*), SUM(Beds)",
		"Hospital, COUNT(*)",
	}

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		proj := projections[r.Intn(len(projections))]
		q := fmt.Sprintf("SELECT %s FROM Account WHERE %s", proj, predicates(r))
		if strings.HasPrefix(proj, "Hospital, COUNT") {
			q += " GROUP BY Hospital"
		}
		want := queryAll(t, ref, 17, q)
		for name, m := range layouts {
			// (a) The rewritten SQL re-parses.
			phys, err := m.RewriteSQL(17, q)
			if err != nil {
				t.Logf("%s: rewrite %q: %v", name, q, err)
				return false
			}
			for _, p := range phys {
				if _, err := sql.Parse(p); err != nil {
					t.Logf("%s: physical SQL does not re-parse: %q: %v", name, p, err)
					return false
				}
			}
			// (b) Results agree with the reference layout.
			got := queryAll(t, m, 17, q)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Logf("%s diverges on %q:\nwant %v\ngot  %v", name, q, want, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
