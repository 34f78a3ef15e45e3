package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/types"
)

// shareMix is the template mix of TestTenantsSharePlans: point reads, a
// join, an aggregate, an IN subquery, a caller's parameter, and writes
// that stay in the base tables (direct on every layout, so no phase-(b)
// statement, which is literal, reaches the plan cache). %[1]d is a
// value that varies between executions (mixText).
var shareMix = []string{
	"SELECT * FROM Account WHERE Aid = %[1]d",
	"SELECT a.Name, c.Email FROM Account a, Contact c WHERE a.Aid = c.Aid AND a.Aid = %[1]d",
	"SELECT COUNT(*) FROM Contact WHERE Aid > %[1]d",
	"SELECT Aid, Name FROM Account WHERE Aid IN (SELECT Aid FROM Contact WHERE Cid < %[1]d)",
	"SELECT Name FROM Account WHERE Aid = ?",
	"UPDATE Account SET Name = 'n%[1]d' WHERE Aid = %[1]d",
	"UPDATE Contact SET Email = 'e%[1]d' WHERE Cid = %[1]d",
}

func mixText(q string, v int) string {
	if !strings.Contains(q, "%") {
		return q
	}
	return fmt.Sprintf(q, v)
}

// TestTenantsSharePlans: 32 tenants run the mix through concurrent
// session Mappers, on Basic and on Chunk Folding where a third of them
// have both extensions, a third the folded one and a third none. The
// engine compiles one statement per physical shape — its plan-cache
// misses are the distinct keys the tenants' cached rewrites carry, and
// tenants of one extension set carry the same keys — and every result
// equals the uncached reference's on a twin database. The layout holds
// a placement per table and one per tenant with an extension, the only
// ones a tenant has to itself. In a second round
// one Chunk Folding tenant without extensions enables one while the other
// sessions run: only its keys move, to a shape no tenant had, and the
// engine compiles those alone.
func TestTenantsSharePlans(t *testing.T) {
	const tenants, sessions, rows = 32, 4, 6
	extSets := [][]string{{"HealthcareAccount", "AutomotiveAccount"}, nil, {"AutomotiveAccount"}}
	for _, name := range []string{"basic", "chunkfold"} {
		tns := make([]*Tenant, tenants)
		for i := range tns {
			tns[i] = &Tenant{ID: int64(i + 1)}
			if name == "chunkfold" {
				tns[i].Extensions = extSets[i%len(extSets)]
			}
		}
		bed := func() *Mapper {
			var l Layout
			var err error
			if name == "basic" {
				l, err = NewBasicLayout(goldenSchema())
			} else {
				l, err = NewChunkFoldingLayout(goldenSchema(), FoldingOptions{ConventionalExtensions: []string{"HealthcareAccount"}})
			}
			if err != nil {
				t.Fatal(err)
			}
			db := engine.Open(engine.Config{})
			if err := l.Create(db, copyTenants(tns)); err != nil {
				t.Fatal(err)
			}
			m := NewMapper(db, l)
			for _, tn := range tns {
				for aid := 1; aid <= rows; aid++ {
					mustExec(t, m, tn.ID, fmt.Sprintf("INSERT INTO Account (Aid, Name) VALUES (%d, 'a%d')", aid, aid), 1)
					mustExec(t, m, tn.ID, fmt.Sprintf("INSERT INTO Contact (Cid, Aid, Email) VALUES (%d, %d, 'c%d')", aid, aid, aid), 1)
				}
			}
			return m
		}
		m, ref := bed(), bed()
		// A placement per table, and one per (tenant, table it extends).
		extended := 0
		for _, tn := range tns {
			if len(tn.Extensions) > 0 {
				extended++ // the extensions are all on Account
			}
		}
		if n := placements(m.Layout); n != 2+extended {
			t.Errorf("%s: %d placements for 2 tables and %d extended tenants", name, n, extended)
		}
		// moved is the tenant that enables an extension in round 1.
		moved := int64(0)
		if name == "chunkfold" {
			moved = 2 // tenant index 1: no extensions
		}

		// keys lists, per tenant, the plan-cache keys of its cached rewrites
		// of the mix.
		keys := func() map[int64][]string {
			out := map[int64][]string{}
			for _, tn := range tns {
				for _, q := range shareMix {
					cr, _, _, err := m.Cache.lookup(tn.ID, mixText(q, 1))
					if err != nil {
						t.Fatal(err)
					}
					for _, ps := range cr.stmts {
						out[tn.ID] = append(out[tn.ID], ps.key)
					}
				}
			}
			return out
		}
		// run has the sessions share the tenants out and run the mix for
		// each, comparing every result with the reference's; it returns the
		// plan-cache misses the engine had, less those of the extension.
		run := func(round int) int64 {
			before := m.DB.Stats().PlanCacheMisses
			var extendMisses int64
			var wg sync.WaitGroup
			for s := 0; s < sessions; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					sm := NewSessionMapper(m.DB, m.Layout)
					defer sm.Session.Close()
					for i, tn := range tns {
						if i%sessions != s {
							continue
						}
						for j, q := range shareMix {
							if tn.ID == moved && round == 1 && j == 0 {
								before := m.DB.Stats().PlanCacheMisses
								for _, x := range []*Mapper{m, ref} {
									if err := x.Layout.(*FragmentLayout).ExtendTenant(x.DB, moved, "HealthcareAccount"); err != nil {
										t.Error(err)
										return
									}
								}
								extendMisses = m.DB.Stats().PlanCacheMisses - before
							}
							v := 1 + (i+j+round)%rows
							q := mixText(q, v)
							param := types.NewInt(int64(v))
							res, got, err := sm.Do(tn.ID, q, param)
							wres, want, werr := uncached(ref, tn.ID, bindText(q, []types.Value{param}))
							if err != nil || werr != nil {
								t.Errorf("%s, tenant %d, %q: %v, reference %v", name, tn.ID, q, err, werr)
								return
							}
							if got != nil && fmt.Sprint(sortedRows(got)) != fmt.Sprint(sortedRows(want)) ||
								got == nil && res.RowsAffected != wres.RowsAffected {
								t.Errorf("%s, tenant %d, %q: %v %v, reference %v %v", name, tn.ID, q, res, got, wres, want)
							}
						}
					}
				}(s)
			}
			wg.Wait()
			return m.DB.Stats().PlanCacheMisses - before - extendMisses
		}

		misses := run(0)
		k0 := keys()
		shapes := map[string]bool{}
		byExt := map[string][]string{}
		for _, tn := range tns {
			for _, k := range k0[tn.ID] {
				shapes[k] = true
			}
			ext := strings.Join(tn.Extensions, ",")
			if prev, ok := byExt[ext]; ok && fmt.Sprint(prev) != fmt.Sprint(k0[tn.ID]) {
				t.Errorf("%s: tenants with extensions %q run different statements:\n%q\n%q", name, ext, prev, k0[tn.ID])
			}
			byExt[ext] = k0[tn.ID]
		}
		if misses != int64(len(shapes)) || len(shapes) > len(byExt)*len(shareMix) {
			t.Errorf("%s: %d plan-cache misses for %d physical shapes of %d templates over %d extension sets",
				name, misses, len(shapes), len(shareMix), len(byExt))
		}

		misses = run(1)
		k1 := keys()
		var fresh []string
		for _, tn := range tns {
			moves := fmt.Sprint(k1[tn.ID]) != fmt.Sprint(k0[tn.ID])
			if moves != (tn.ID == moved) {
				t.Errorf("%s: tenant %d changed shape: %v, want %v", name, tn.ID, moves, tn.ID == moved)
			}
			for _, k := range k1[tn.ID] {
				if !shapes[k] {
					shapes[k] = true
					fresh = append(fresh, k)
				}
			}
		}
		if misses != int64(len(fresh)) || (moved != 0) != (len(fresh) > 0) {
			sort.Strings(fresh)
			t.Errorf("%s: round 1 had %d plan-cache misses for the new shapes %q", name, misses, fresh)
		}
	}
}
