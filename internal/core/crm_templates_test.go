package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/testbed"
)

// TestCRMTemplatesAgainstLiterals holds the CRM deck's SELECT and UPDATE
// statements, every template for every tenant, to the literal statements
// a fresh rewrite gives (core.CheckAgainstLiterals): on Basic, as
// crm_wire_mixed runs it, and on Chunk Folding with extensions, as
// crm_wire_writes does.
func TestCRMTemplatesAgainstLiterals(t *testing.T) {
	folding := func(s *core.Schema) (core.Layout, error) { return core.NewChunkFoldingLayout(s, core.FoldingOptions{}) }
	for _, cfg := range []testbed.Config{
		{Tenants: 8, RowsPerTable: 4},
		{Tenants: 8, RowsPerTable: 4, WithExtensions: true, NewLayout: folding},
	} {
		bed, err := testbed.Setup(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bed.Workload.UpdateHeavyBatch = 2
		r := rand.New(rand.NewSource(2008))
		for tenant := 0; tenant < cfg.Tenants; tenant++ {
			for _, class := range []testbed.ActionClass{testbed.SelectLight, testbed.SelectHeavy, testbed.UpdateLight, testbed.UpdateHeavy} {
				for round := 0; round < 12; round++ { // enough to draw every SelectHeavy variant
					a := bed.Workload.NextActionFor(r, class, tenant, nil)
					for _, q := range append(a.Queries, a.Execs...) {
						core.CheckAgainstLiterals(t, bed.Mapper, a.Tenant, q)
					}
				}
			}
		}
	}
}
