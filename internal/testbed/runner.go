package testbed

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Config parameterizes one testbed run (the System Under Test plus the
// Worker/Controller harness of §4).
type Config struct {
	// Tenants is the tenant population (the paper used 10,000).
	Tenants int
	// Instances is the number of CRM schema copies (schema variability
	// × tenants, Table 1).
	Instances int
	// RowsPerTable is the per-tenant base population of each of the 10
	// tables (stands in for the paper's 1.4 MB per tenant).
	RowsPerTable int
	// Sessions is the number of concurrent client sessions (the paper
	// used 40).
	Sessions int
	// Actions is the total number of action cards to execute.
	Actions int
	// Seed drives every random choice; runs are reproducible.
	Seed int64

	// MemoryBytes, ReadLatency, InsertMode configure the engine.
	MemoryBytes int64
	ReadLatency time.Duration
	InsertMode  storage.InsertMode
	Optimizer   plan.Mode

	// NewLayout builds the schema-mapping layout under test; nil means
	// the Basic shared-table layout (the §5 experiment's configuration:
	// base tables shared via a Tenant column, no extensions).
	NewLayout func(*core.Schema) (core.Layout, error)

	// WithExtensions enables the §7 "more complete setting": the schema
	// carries the CRM extensions, extensionFraction of the tenants
	// enable them, and the workload reads and writes extension columns.
	// Requires a NewLayout that supports extensibility (not Basic).
	WithExtensions bool
}

// extensionFraction is the share of tenants enabling extensions when
// Config.WithExtensions is set.
const extensionFraction = 0.5

func (c *Config) fill() {
	if c.Tenants == 0 {
		c.Tenants = 20
	}
	if c.Instances == 0 {
		c.Instances = 1
	}
	if c.RowsPerTable == 0 {
		c.RowsPerTable = 20
	}
	if c.Sessions == 0 {
		c.Sessions = 4
	}
	if c.Actions == 0 {
		c.Actions = 200
	}
	if c.MemoryBytes == 0 {
		c.MemoryBytes = 64 << 20
	}
}

// VariabilityConfig computes Table 1's instance count for a schema
// variability in [0, 1]: 0 → one shared instance, 1 → one instance per
// tenant.
func VariabilityConfig(variability float64, tenants int) (instances int) {
	instances = int(variability*float64(tenants) + 0.5)
	if instances < 1 {
		instances = 1
	}
	if instances > tenants {
		instances = tenants
	}
	return instances
}

// Bed is a fully provisioned testbed: database, layout, mapper,
// workload generator.
type Bed struct {
	Cfg      Config
	DB       *engine.DB
	Layout   core.Layout
	Mapper   *core.Mapper
	Workload *Workload

	adminSeq int64
}

// Setup builds the schema (Instances copies of the CRM schema),
// provisions the layout, registers tenants, and loads the synthetic
// dataset.
func Setup(cfg Config) (*Bed, error) {
	cfg.fill()
	schema := MultiInstanceSchema(cfg.Instances, cfg.WithExtensions)
	db := engine.Open(engine.Config{
		MemoryBytes: cfg.MemoryBytes,
		ReadLatency: cfg.ReadLatency,
		InsertMode:  cfg.InsertMode,
		Optimizer:   cfg.Optimizer,
	})
	var layout core.Layout
	var err error
	if cfg.NewLayout != nil {
		layout, err = cfg.NewLayout(schema)
	} else {
		layout, err = core.NewBasicLayout(schema)
	}
	if err != nil {
		return nil, err
	}
	tenants := make([]*core.Tenant, cfg.Tenants)
	for i := range tenants {
		tenants[i] = &core.Tenant{ID: int64(i + 1)}
		if cfg.WithExtensions && float64(i%100) < extensionFraction*100 {
			sfx := InstanceSuffix(TenantInstance(i, cfg.Tenants, cfg.Instances), cfg.Instances)
			if i%2 == 0 {
				tenants[i].Extensions = []string{"HealthcareAccount" + sfx}
			} else {
				tenants[i].Extensions = []string{"AutomotiveAccount" + sfx, "RegulatedCase" + sfx}
			}
		}
	}
	if err := layout.Create(db, tenants); err != nil {
		return nil, err
	}
	bed := &Bed{
		Cfg:      cfg,
		DB:       db,
		Layout:   layout,
		Mapper:   core.NewMapper(db, layout),
		Workload: NewWorkload(cfg.Tenants, cfg.Instances, cfg.RowsPerTable),
	}
	bed.Workload.SetTenants(tenants)
	for i := 0; i < cfg.Tenants; i++ {
		if err := bed.Workload.LoadTenant(bed.Mapper, i, cfg.Seed+int64(i)); err != nil {
			return nil, err
		}
	}
	return bed, nil
}

// Result aggregates one run's measurements.
type Result struct {
	Durations  [numClasses][]time.Duration
	Errors     int64
	Elapsed    time.Duration
	Statements int64        // SQL statements completed (queries + DML per action)
	Stats      engine.Stats // post-run counters (reset at run start)
}

// Quantile returns the q-quantile (0 < q <= 1) response time of a
// class, or 0 if the class never ran.
func (r *Result) Quantile(class ActionClass, q float64) time.Duration {
	ds := append([]time.Duration(nil), r.Durations[class]...)
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := int(q*float64(len(ds))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ds) {
		idx = len(ds) - 1
	}
	return ds[idx]
}

// TotalActions counts completed actions.
func (r *Result) TotalActions() int {
	n := 0
	for _, ds := range r.Durations {
		n += len(ds)
	}
	return n
}

// Throughput returns completed actions per minute.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.TotalActions()) / r.Elapsed.Minutes()
}

// StatementsPerSec returns completed SQL statements per second (the
// multi-session scaling metric: actions bundle a variable number of
// statements, so statements are the fairer unit of work).
func (r *Result) StatementsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Statements) / r.Elapsed.Seconds()
}

// Baseline is the per-class 95 %-quantile response times of the
// reference configuration (schema variability 0); baseline compliance
// of any run is the share of its actions that finish within the
// baseline of their class (§5: "per definition, the baseline compliance
// of the schema variability 0.0 configuration is 95 %").
type Baseline [numClasses]time.Duration

// BaselineOf extracts the 95 % quantiles of a reference run.
func BaselineOf(r *Result) Baseline {
	var b Baseline
	for c := ActionClass(0); c < numClasses; c++ {
		b[c] = r.Quantile(c, 0.95)
	}
	return b
}

// Compliance computes the percentage of actions within the baseline.
func (r *Result) Compliance(b Baseline) float64 {
	total, within := 0, 0
	for c := ActionClass(0); c < numClasses; c++ {
		if b[c] == 0 {
			continue
		}
		for _, d := range r.Durations[c] {
			total++
			if d <= b[c] {
				within++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(within) / float64(total)
}

// Run executes cfg.Actions cards across cfg.Sessions worker sessions.
// The Controller shuffles decks and deals; each Worker session runs in
// its own goroutine with its own connection-equivalent (the Mapper is
// safe for concurrent use).
func (b *Bed) Run() (*Result, error) {
	cfg := b.Cfg
	cards := make(chan Action, cfg.Sessions*2)
	res := &Result{}
	var mu sync.Mutex
	var firstErr error
	var errCount int64

	b.DB.ResetStats()
	start := time.Now()

	// Controller: build decks, deal cards.
	go func() {
		r := rand.New(rand.NewSource(cfg.Seed * 31))
		dealt := 0
		for dealt < cfg.Actions {
			deck := BuildDeck(r)
			for _, class := range deck {
				if dealt >= cfg.Actions {
					break
				}
				cards <- b.Workload.NextAction(r, class, &b.adminSeq)
				dealt++
			}
		}
		close(cards)
	}()

	var wg sync.WaitGroup
	for s := 0; s < cfg.Sessions; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range cards {
				t0 := time.Now()
				stmts, err := b.runAction(a)
				d := time.Since(t0)
				mu.Lock()
				res.Statements += stmts
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					errCount++
				} else {
					res.Durations[a.Class] = append(res.Durations[a.Class], d)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	mu.Lock()
	res.Errors = errCount
	mu.Unlock()
	res.Stats = b.DB.Stats()
	if firstErr != nil {
		return res, fmt.Errorf("testbed: %d actions failed, first: %w", errCount, firstErr)
	}
	return res, nil
}

// runAction executes one card and reports how many SQL statements
// completed (the Admin card counts as one: tenant provisioning is a
// single logical operation however many physical statements it emits).
func (b *Bed) runAction(a Action) (int64, error) {
	if a.AddTenant != nil {
		if err := b.Layout.AddTenant(b.DB, a.AddTenant); err != nil {
			return 0, err
		}
		return 1, nil
	}
	var stmts int64
	for _, q := range a.Queries {
		if _, err := b.Mapper.Query(a.Tenant, q); err != nil {
			return stmts, fmt.Errorf("%s: %q: %w", a.Class, q, err)
		}
		stmts++
	}
	for _, e := range a.Execs {
		if _, err := b.Mapper.Exec(a.Tenant, e); err != nil {
			return stmts, fmt.Errorf("%s: %q: %w", a.Class, e, err)
		}
		stmts++
	}
	return stmts, nil
}
