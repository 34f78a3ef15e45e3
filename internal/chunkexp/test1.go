package chunkexp

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
)

// Test1Variant is one configuration of the paper's §6.2 Test 1 matrix:
// an optimizer capability level crossed with a transformation style.
type Test1Variant struct {
	Name string
	// Optimizer capability (Sophisticated models DB2, Naive models
	// MySQL).
	Optimizer plan.Mode
	// Flattened emission vs the generic nested form.
	Flattened bool
	// MetadataFirst: the careless predicate/reference ordering that
	// cost MySQL a factor of five.
	MetadataFirst bool
}

// Test1Variants is the experiment matrix.
func Test1Variants() []Test1Variant {
	return []Test1Variant{
		{Name: "db2-nested", Optimizer: plan.Sophisticated, Flattened: false},
		{Name: "db2-flattened", Optimizer: plan.Sophisticated, Flattened: true},
		{Name: "mysql-nested", Optimizer: plan.Naive, Flattened: false},
		{Name: "mysql-flat-ordered", Optimizer: plan.Naive, Flattened: true},
		{Name: "mysql-flat-metafirst", Optimizer: plan.Naive, Flattened: true, MetadataFirst: true},
	}
}

// Test1Result is one variant's measurement.
type Test1Result struct {
	Variant  Test1Variant
	WarmTime time.Duration
	// LogicalReads and RowsScanned are per warm execution: page
	// fetches, and rows produced by base-table access (a materialized
	// derived table scans its chunks whole; an unnested one probes them
	// by index).
	LogicalReads int64
	RowsScanned  int64
	Plan         string
	// Materialized reports whether the plan contains a TEMP operator
	// (the naive optimizer's failure to unnest, §6.2 Test 1).
	Materialized bool
}

// NewTest1Instance provisions a chunk-width-6 configuration under one
// variant.
func NewTest1Instance(cfg Config, v Test1Variant) (*Instance, error) {
	cfg.fill()
	db := engine.Open(engine.Config{
		MemoryBytes: cfg.MemoryBytes, ReadLatency: cfg.ReadLatency, Optimizer: v.Optimizer,
	})
	l, err := core.NewChunkLayout(Schema(), core.ChunkOptions{
		Defs: ChunkDefs(6), Flattened: v.Flattened, MetadataFirst: v.MetadataFirst,
	})
	if err != nil {
		return nil, err
	}
	if err := l.Create(db, []*core.Tenant{{ID: 1}}); err != nil {
		return nil, err
	}
	return &Instance{Name: v.Name, Width: 6, DB: db,
		mapper: core.NewMapper(db, l), cfg: cfg}, nil
}

// RunTest1 loads each variant and measures Q2 at the given scale.
func RunTest1(cfg Config, scale, runs int) ([]Test1Result, error) {
	var out []Test1Result
	for _, v := range Test1Variants() {
		in, err := NewTest1Instance(cfg, v)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.Name, err)
		}
		if err := in.Load(); err != nil {
			return nil, fmt.Errorf("%s load: %w", v.Name, err)
		}
		m, err := in.MeasureQ2(Q2(scale), runs, 2)
		if err != nil {
			return nil, fmt.Errorf("%s measure: %w", v.Name, err)
		}
		planText, err := in.Explain(Q2(scale))
		if err != nil {
			return nil, err
		}
		out = append(out, Test1Result{
			Variant:      v,
			WarmTime:     m.WarmTime,
			LogicalReads: m.LogicalReads,
			RowsScanned:  m.RowsScanned,
			Plan:         planText,
			Materialized: strings.Contains(planText, "TEMP"),
		})
	}
	return out, nil
}

// FormatTest1 renders the Test 1 comparison.
func FormatTest1(results []Test1Result) string {
	var sb strings.Builder
	sb.WriteString("Test 1 (transformation and nesting):\n")
	for _, r := range results {
		mat := ""
		if r.Materialized {
			mat = "  [materializes derived table]"
		}
		fmt.Fprintf(&sb, "  %-22s %10.3f ms %8d rows scanned %8d logical reads%s\n", r.Variant.Name,
			float64(r.WarmTime)/float64(time.Millisecond), r.RowsScanned, r.LogicalReads, mat)
	}
	return sb.String()
}
