package modeltest

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/types"
)

// The differential workload through the query-transformation layer: the
// same generator, model and checks, with every statement a tenant's
// logical statement that a session Mapper rewrites — sessions sharing
// their layout's RewriteCache, as a server's do. The bed is Chunk Folding with the
// three columns in the conventional base table, one fragment, so every
// UPDATE and DELETE the generator knows (by key, by key range, by the
// column it writes, without a WHERE) takes core's fusion rule and runs
// as one direct physical statement. The model then holds the rule to
// the engine's own semantics: rows affected, first-updater-wins and the
// aborts it forces, savepoints, what a snapshot sees, committed state.
//
// A placement of several fragments is not held to this model, and not
// because of fusion: first-updater-wins is decided per physical row, so
// two transactions writing different fragments of one logical row do not
// conflict, and outside a transaction a two-phase statement's physical
// writes commit one by one. Those placements are checked against the
// Private layout statement by statement in core's TestLayoutEquivalence.

const fusedTenant = 7

// tenantSession is a session Mapper as the harness's session.
type tenantSession struct{ m *core.Mapper }

func (s tenantSession) Exec(q string, params ...types.Value) (engine.Result, error) {
	return s.m.Exec(fusedTenant, q, params...)
}

func (s tenantSession) Query(q string, params ...types.Value) (*engine.Rows, error) {
	return s.m.Query(fusedTenant, q, params...)
}

func (s tenantSession) Close() error { return s.m.Session.Close() }

// foldedBed is acct1 and acct2 as one tenant's logical tables under
// Chunk Folding; cache receives the sessions' shared rewrite cache.
func foldedBed(cache **core.RewriteCache) bed {
	return func(db *engine.DB) (func(*engine.DB) session, error) {
		schema := &core.Schema{}
		for _, name := range []string{"acct1", "acct2"} {
			schema.Tables = append(schema.Tables, &core.Table{Name: name, Key: "k", Columns: []core.Column{
				{Name: "k", Type: types.IntType, NotNull: true, Indexed: true},
				{Name: "v", Type: types.VarcharType(100)},
				{Name: "bal", Type: types.IntType},
			}})
		}
		l, err := core.NewChunkFoldingLayout(schema, core.FoldingOptions{})
		if err != nil {
			return nil, err
		}
		if err := l.Create(db, []*core.Tenant{{ID: fusedTenant}}); err != nil {
			return nil, err
		}
		*cache = core.SharedRewriteCache(l)
		return func(db *engine.DB) session {
			return tenantSession{core.NewSessionMapper(db, l)}
		}, nil
	}
}

// TestDifferentialFused runs two seeds, at least 1000 transactions each,
// with every write statement fused.
func TestDifferentialFused(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var cache *core.RewriteCache
			runSeedBed(t, seed, 1000, 0, false, engine.Config{}, foldedBed(&cache))
			if st := cache.Stats(); st.DirectDML == 0 || st.TwoPhaseDML != 0 {
				t.Errorf("seed %d: %d direct and %d two-phase executions; the bed is one fragment", seed, st.DirectDML, st.TwoPhaseDML)
			}
		})
	}
}
