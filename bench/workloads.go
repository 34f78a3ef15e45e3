package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/client"
	"repro/internal/chunkexp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/testbed"
	"repro/internal/types"
)

// classQ2 labels the chunk workload's single action class next to the
// Figure 6 classes of the CRM workloads.
const classQ2 = testbed.Admin + 1

func className(c testbed.ActionClass) string {
	if c == classQ2 {
		return "Q2"
	}
	return c.String()
}

// stmt is one logical statement of an action. want is the row count a
// query must return (-1: any).
type stmt struct {
	sql    string
	query  bool
	params []types.Value
	want   int
}

// action is one pre-generated unit of work: the program only ever sees
// these, never the seed.
type action struct {
	class  testbed.ActionClass
	tenant int64
	stmts  []stmt
	// pipe is stmts as one wire batch (wire workloads only).
	pipe []client.PipelineStmt
	// table and inserted are the action's ledger entry: logical rows it
	// adds to tenant's table.
	table    string
	inserted int
	// addTenant marks the Administrative card (in-process only).
	addTenant *core.Tenant
}

func (a *action) txn() bool { return len(a.stmts) > 0 && a.stmts[0].sql == "BEGIN" }

// spec is one workload. The four instances below are the benchmark;
// their names are cited by later issues and must not change.
type spec struct {
	name string
	why  string
	// wire: actions travel over TCP through client.Conn.Pipeline and
	// every DML action is one BEGIN…COMMIT; otherwise they run in
	// process through an uncached core.Mapper and autocommit.
	wire bool
	// rate is the closed-loop action rate two clients reach on the
	// 2-core sandbox. It only sizes the generated action list (with
	// headroom) and the warm-up; the measured window is timed.
	rate float64

	crm *crmSpec // nil for the chunk workload
	// parents is the chunk workload's scale: parent rows, each with
	// chunkChildren children.
	parents int
}

// crmSpec is what differs between the three CRM workloads.
type crmSpec struct {
	tenants, instances, rows int
	memory                   int64
	readLatency              time.Duration
	folding                  bool // Chunk Folding with extensions on half the tenants; else Basic
	// deal maps a Figure 6 card to the class this workload runs, or
	// reports false to drop the card from the deck.
	deal func(testbed.ActionClass) (testbed.ActionClass, bool)
}

// Chunk workload shape: §6.2 Q2 at scale 30 over Chunk6.
const (
	chunkChildren = 10
	chunkWidth    = 6
	chunkScale    = 30
)

var specs = []*spec{
	{
		name: "crm_wire_mixed",
		why:  "Figure 6 deck over TCP, Basic layout, all data in the pool: protocol, server and the rewrite and plan caches do the work, storage almost none",
		wire: true, rate: 5500,
		crm: &crmSpec{
			tenants: 32, instances: 1, rows: 64, memory: 64 << 20,
			deal: func(c testbed.ActionClass) (testbed.ActionClass, bool) {
				if c == testbed.Admin {
					// Tenant provisioning is not on the wire protocol.
					return testbed.SelectLight, true
				}
				return c, true
			},
		},
	},
	{
		name: "crm_tables_cold",
		why:  "paper section 5 at variability 1.0: 1500 tables, pool smaller than the data, 1 ms misses, no rewrite cache: eviction and uncached parse-rewrite-plan dominate",
		rate: 800,
		crm: &crmSpec{
			tenants: 150, instances: 150, rows: 32, memory: 12 << 20,
			readLatency: time.Millisecond,
			deal:        func(c testbed.ActionClass) (testbed.ActionClass, bool) { return c, true },
		},
	},
	{
		name: "chunk_q2_join",
		why:  "section 6.2 Q2 at scale 30 over Chunk6, warm and read-only: ten aligning joins put plan, exec and btree on the blocking path with no wire, WAL or misses",
		rate: 1050, parents: 300,
	},
	{
		name: "crm_wire_writes",
		why:  "write classes only over TCP on Chunk Folding with extensions: two-phase DML, mvcc, btree inserts and WAL commit, so a read-path gain that taxes writes shows",
		wire: true, rate: 2000,
		crm: &crmSpec{
			tenants: 32, instances: 1, rows: 64, memory: 64 << 20, folding: true,
			deal: func(c testbed.ActionClass) (testbed.ActionClass, bool) {
				return c, c >= testbed.InsertLight && c <= testbed.UpdateHeavy
			},
		},
	},
}

// shrunk returns the workload at a fifth of its population, for the
// smoke run: every code path and check, none of the numbers.
func (sp *spec) shrunk() *spec {
	small := *sp
	small.parents /= 5
	if sp.crm != nil {
		c := *sp.crm
		c.tenants /= 5
		if c.instances > 1 {
			c.instances = c.tenants
			c.memory /= 5 // keep the pool smaller than the data
		}
		small.crm = &c
	}
	return &small
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// figure6 is the paper's card deck: the share of each action class in
// 10,000 cards. (testbed.BuildDeck deals the same counts, but from a
// map, so its shuffle is not a function of the seed alone.)
var figure6 = []struct {
	class testbed.ActionClass
	cards int
}{
	{testbed.SelectLight, 5000},
	{testbed.SelectHeavy, 1500},
	{testbed.InsertLight, 959},
	{testbed.InsertHeavy, 30},
	{testbed.UpdateLight, 1760},
	{testbed.UpdateHeavy, 750},
	{testbed.Admin, 1},
}

func buildDeck(r *rand.Rand, deal func(testbed.ActionClass) (testbed.ActionClass, bool)) []testbed.ActionClass {
	var deck []testbed.ActionClass
	for _, f := range figure6 {
		if c, ok := deal(f.class); ok {
			for i := 0; i < f.cards; i++ {
				deck = append(deck, c)
			}
		}
	}
	r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// bed is one provisioned system under test.
type bed struct {
	spec   *spec
	db     *engine.DB
	layout core.Layout
	crm    *testbed.Bed // CRM workloads
	srv    *server.Server
	addr   string
	// conv is the conventional two-table instance the chunk workload's
	// results and times are compared against.
	conv *chunkexp.Instance
}

// newBed provisions the schema and loads the tenants. The data is a
// function of seed alone.
func newBed(sp *spec, seed int64) (*bed, error) {
	b := &bed{spec: sp}
	if sp.crm == nil {
		cfg := chunkexp.Config{Parents: sp.parents, ChildrenPerParent: chunkChildren}
		chunk, err := chunkexp.NewChunk(cfg, chunkWidth, false)
		if err != nil {
			return nil, err
		}
		if err := chunk.Load(); err != nil {
			return nil, err
		}
		if b.conv, err = chunkexp.NewConventional(cfg); err != nil {
			return nil, err
		}
		if err := b.conv.Load(); err != nil {
			return nil, err
		}
		// chunkexp keeps its layout private. Registering a tenant in a
		// chunk layout is meta-data only, so a second layout built from
		// the same definitions rewrites exactly as the loader's did.
		layout, err := core.NewChunkLayout(chunkexp.Schema(), core.ChunkOptions{Defs: chunkexp.ChunkDefs(chunkWidth)})
		if err != nil {
			return nil, err
		}
		if err := layout.AddTenant(nil, &core.Tenant{ID: 1}); err != nil {
			return nil, err
		}
		b.db, b.layout = chunk.DB, layout
		return b, nil
	}

	c := sp.crm
	cfg := testbed.Config{
		Tenants: c.tenants, Instances: c.instances, RowsPerTable: c.rows,
		Seed: seed, MemoryBytes: c.memory,
	}
	if c.folding {
		cfg.WithExtensions = true
		cfg.NewLayout = func(s *core.Schema) (core.Layout, error) {
			return core.NewChunkFoldingLayout(s, core.FoldingOptions{})
		}
	}
	crm, err := testbed.Setup(cfg)
	if err != nil {
		return nil, err
	}
	// The device latency is the workload's, not the loader's: set-up
	// time should measure provisioning work, not sleeps.
	crm.DB.Disk().ReadLatency = c.readLatency
	b.crm, b.db, b.layout = crm, crm.DB, crm.Layout
	return b, nil
}

// serve puts the bed behind a server on a loopback port (wire
// workloads; a no-op otherwise).
func (b *bed) serve() error {
	if !b.spec.wire {
		return nil
	}
	srv, err := server.New(server.Config{DB: b.db, Layout: b.layout})
	if err != nil {
		return err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	b.srv, b.addr = srv, addr.String()
	return nil
}

func (b *bed) close() {
	if b.srv != nil {
		b.srv.Close()
	}
}

// generate deals n actions from seed in one goroutine. The sequence
// does not depend on the client count; deal splits it afterwards.
func (b *bed) generate(seed int64, n int) []action {
	r := rand.New(rand.NewSource(seed))
	out := make([]action, 0, n)
	if b.crm == nil {
		q2 := chunkexp.Q2(chunkScale)
		for i := 0; i < n; i++ {
			id := int64(1 + r.Intn(b.spec.parents))
			out = append(out, action{class: classQ2, tenant: 1, stmts: []stmt{
				{sql: q2, query: true, params: []types.Value{types.NewInt(id)}, want: chunkChildren},
			}})
		}
		return out
	}
	w := b.crm.Workload
	var adminSeq int64
	var deck []testbed.ActionClass
	for i := 0; i < n; i++ {
		if len(deck) == 0 {
			deck = buildDeck(r, b.spec.crm.deal)
		}
		class := deck[0]
		deck = deck[1:]
		ta := w.NextActionFor(r, class, r.Intn(b.spec.crm.tenants), &adminSeq)
		a := action{class: class, tenant: ta.Tenant, addTenant: ta.AddTenant}
		for _, q := range ta.Queries {
			want := -1
			if class == testbed.SelectLight {
				want = 1 // entity detail page of a base row that is never deleted
			}
			a.stmts = append(a.stmts, stmt{sql: q, query: true, want: want})
		}
		if len(ta.Execs) > 0 {
			if b.spec.wire {
				a.stmts = append(a.stmts, stmt{sql: "BEGIN"})
			}
			for _, e := range ta.Execs {
				a.stmts = append(a.stmts, stmt{sql: e})
			}
			if b.spec.wire {
				a.stmts = append(a.stmts, stmt{sql: "COMMIT"})
			}
		}
		switch class {
		case testbed.InsertLight:
			a.inserted = 1
		case testbed.InsertHeavy:
			a.inserted = w.InsertHeavyBatch
		}
		if a.inserted > 0 {
			a.table = strings.Fields(ta.Execs[0])[2] // INSERT INTO <table> (
		}
		if b.spec.wire {
			a.pipe = make([]client.PipelineStmt, len(a.stmts))
			for j, s := range a.stmts {
				a.pipe[j] = client.PipelineStmt{Query: s.query, SQL: s.sql, Params: s.params}
			}
		}
		out = append(out, a)
	}
	return out
}

// deal splits the generated sequence among clients. CRM clients own
// disjoint tenant sets, so two clients never write the same row and
// any conflict is a failure; the read-only chunk queries alternate.
func (b *bed) deal(actions []action, clients int) [][]action {
	lists := make([][]action, clients)
	for i := range actions {
		c := i % clients
		if b.crm != nil {
			c = int(actions[i].tenant) % clients
		}
		lists[c] = append(lists[c], actions[i])
	}
	return lists
}

// tables lists every (tenant, logical table) of the bed with the row
// count the loader gave it: the ledger's starting point.
func (b *bed) tables() []ledgerKey {
	if b.crm == nil {
		return []ledgerKey{{1, "parent"}, {1, "child"}}
	}
	var out []ledgerKey
	for t := 0; t < b.spec.crm.tenants; t++ {
		for _, base := range testbed.CRMTables {
			out = append(out, ledgerKey{int64(t + 1), b.crm.Workload.TableFor(t, base)})
		}
	}
	return out
}

func (b *bed) loadedRows(k ledgerKey) int {
	switch {
	case b.crm != nil:
		return b.spec.crm.rows
	case k.table == "parent":
		return b.spec.parents
	default:
		return b.spec.parents * chunkChildren
	}
}

type ledgerKey struct {
	tenant int64
	table  string
}

func (k ledgerKey) String() string { return fmt.Sprintf("tenant %d table %s", k.tenant, k.table) }
