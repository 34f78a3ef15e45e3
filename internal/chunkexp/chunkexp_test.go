package chunkexp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/types"
)

func smallCfg() Config {
	return Config{Parents: 10, ChildrenPerParent: 4, MemoryBytes: 8 << 20}
}

func TestSchemaAndQ2(t *testing.T) {
	s := Schema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Tables[0].Columns) != DataCols+1 || len(s.Tables[1].Columns) != DataCols+2 {
		t.Errorf("column counts: %d %d", len(s.Tables[0].Columns), len(s.Tables[1].Columns))
	}
	for _, scale := range []int{3, 45, 90} {
		if err := ParseQ2(scale); err != nil {
			t.Errorf("Q2(%d): %v", scale, err)
		}
	}
	if !strings.Contains(Q2(3), "p.id = c.parent") {
		t.Error("Q2 must join on the foreign key")
	}
}

func TestChunkDefs(t *testing.T) {
	defs := ChunkDefs(6)
	if len(defs) != 2 {
		t.Fatalf("defs: %d", len(defs))
	}
	if !defs[0].ValueIndex || len(defs[0].Cols) != 1 {
		t.Errorf("ChunkIndex def: %+v", defs[0])
	}
	if len(defs[1].Cols) != 6 {
		t.Errorf("ChunkData width: %d", len(defs[1].Cols))
	}
	// The Chunk6 def of the paper: int1 int2 date1 date2 str1 str2 (by
	// generated names).
	phys := defs[1].PhysCols()
	if phys[0] != "Int1" || phys[1] != "Date1" || phys[2] != "Str1" {
		t.Errorf("phys names: %v", phys)
	}
}

// TestEquivalenceAcrossConfigurations loads the same dataset into the
// conventional, chunked (several widths, both transformation modes),
// and vertical configurations and checks Q2 returns identical results.
func TestEquivalenceAcrossConfigurations(t *testing.T) {
	cfg := smallCfg()
	conv, err := NewConventional(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := conv.Load(); err != nil {
		t.Fatal(err)
	}
	want := map[int]string{}
	for _, scale := range []int{3, 12} {
		rows, err := conv.Query(Q2(scale), types.NewInt(3))
		if err != nil {
			t.Fatal(err)
		}
		want[scale] = dump(rows.Data)
		if len(rows.Data) != cfg.ChildrenPerParent {
			t.Fatalf("conventional rows: %d", len(rows.Data))
		}
	}

	mk := func(name string, in *Instance, err error) *Instance {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := in.Load(); err != nil {
			t.Fatalf("%s load: %v", name, err)
		}
		return in
	}
	c3, e3 := NewChunk(cfg, 3, false)
	c6f, e6f := NewChunk(cfg, 6, true)
	c90, e90 := NewChunk(cfg, 90, false)
	v6, ev6 := NewVertical(cfg, 6)
	insts := []*Instance{
		mk("chunk3", c3, e3),
		mk("chunk6-flat", c6f, e6f),
		mk("chunk90", c90, e90),
		mk("vertical6", v6, ev6),
	}
	for _, in := range insts {
		for _, scale := range []int{3, 12} {
			rows, err := in.Query(Q2(scale), types.NewInt(3))
			if err != nil {
				t.Fatalf("%s scale %d: %v", in.Name, scale, err)
			}
			if got := dump(rows.Data); got != want[scale] {
				t.Errorf("%s scale %d diverges:\nwant %s\ngot  %s", in.Name, scale, want[scale], got)
			}
		}
	}
}

func dump(data [][]types.Value) string {
	var rows []string
	for _, r := range data {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		rows = append(rows, strings.Join(parts, "|"))
	}
	// Sort-insensitive comparison.
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			if rows[j] < rows[i] {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
	}
	return strings.Join(rows, "\n")
}

// TestFig8PlanShape checks the chunked Q2 plan contains the operator
// regions of the paper's Figure 8: index scans on the chunk meta-data
// index, FETCH-backed NL joins for the aligning joins, and a join for
// the foreign key.
func TestFig8PlanShape(t *testing.T) {
	cfg := smallCfg()
	in, err := NewChunk(cfg, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Load(); err != nil {
		t.Fatal(err)
	}
	ex, err := in.Explain(Q2(3))
	if err != nil {
		t.Fatal(err)
	}
	ops := PlanOperators(ex)
	if ops["NLJOIN"] == 0 {
		t.Errorf("expected index NL joins in plan:\n%s", ex)
	}
	if !strings.Contains(ex, "ChunkIndexT") || !strings.Contains(ex, "ChunkData") {
		t.Errorf("plan must touch both chunk tables:\n%s", ex)
	}
	if !strings.Contains(ex, "_tcr") && !strings.Contains(ex, "_v") {
		t.Errorf("plan should use the meta-data or value indexes:\n%s", ex)
	}
}

// TestScalingJoinCount verifies the Test 2 property: higher Q2 scale
// factors touch more chunks, visible as more join operators.
func TestScalingJoinCount(t *testing.T) {
	cfg := smallCfg()
	in, err := NewChunk(cfg, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Load(); err != nil {
		t.Fatal(err)
	}
	ex3, _ := in.Explain(Q2(3))
	ex30, _ := in.Explain(Q2(30))
	j3 := PlanOperators(ex3)["NLJOIN"] + PlanOperators(ex3)["HSJOIN"]
	j30 := PlanOperators(ex30)["NLJOIN"] + PlanOperators(ex30)["HSJOIN"]
	if j30 <= j3 {
		t.Errorf("scale 30 should need more aligning joins: %d vs %d", j30, j3)
	}
}

func TestMeasureQ2(t *testing.T) {
	cfg := smallCfg()
	in, err := NewChunk(cfg, 15, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Load(); err != nil {
		t.Fatal(err)
	}
	m, err := in.MeasureQ2(Q2(6), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != cfg.ChildrenPerParent {
		t.Errorf("rows: %d", m.Rows)
	}
	if m.WarmTime <= 0 || m.ColdTime <= 0 || m.LogicalReads <= 0 {
		t.Errorf("measurement incomplete: %+v", m)
	}
}

func TestGroupingQuery(t *testing.T) {
	cfg := smallCfg()
	conv, _ := NewConventional(cfg)
	if err := conv.Load(); err != nil {
		t.Fatal(err)
	}
	in, err := NewChunk(cfg, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Load(); err != nil {
		t.Fatal(err)
	}
	q := Q2Grouping(6)
	w, err := conv.Query(q, types.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	g, err := in.Query(q, types.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	if dump(w.Data) != dump(g.Data) {
		t.Errorf("grouping query diverges:\n%s\nvs\n%s", dump(w.Data), dump(g.Data))
	}
}

// TestFig12Shape checks the Figure 12 direction under buffer pressure:
// chunk folding beats vertical partitioning on cold-cache response time
// at narrow widths, because a logical row's chunks share heap pages in
// the folded tables.
func TestFig12Shape(t *testing.T) {
	cfg := Config{Parents: 60, ChildrenPerParent: 8, MemoryBytes: 1 << 20}
	f, err := NewChunk(cfg, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Load(); err != nil {
		t.Fatal(err)
	}
	v, err := NewVertical(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Load(); err != nil {
		t.Fatal(err)
	}
	mf, err := f.MeasureQ2(Q2(30), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := v.MeasureQ2(Q2(30), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic locality check: a logical row's chunks share heap
	// pages when folded, so a cold execution faults fewer pages.
	if mf.PhysicalReads >= mv.PhysicalReads {
		t.Errorf("folded cold faults %d pages, vertical %d — folding should fault fewer",
			mf.PhysicalReads, mv.PhysicalReads)
	}
	t.Logf("fig12 width 3 scale 30: cold improvement %.1f%% (folded %v vs vertical %v; %d vs %d page faults)",
		Improvement(mf, mv), mf.ColdTime, mv.ColdTime, mf.PhysicalReads, mv.PhysicalReads)
}

// TestTest1OptimizerNesting reproduces §6.2 Test 1: the sophisticated
// optimizer (DB2) handles the generic nested transformation as well as
// the flattened one; the naive optimizer (MySQL) materializes the
// nested form and needs the flattened, correctly ordered emission; the
// careless metadata-first ordering costs it a large factor. The
// assertions are on plan shape and on counts that repeat exactly —
// rows scanned and logical page reads per execution — not on wall time.
func TestTest1OptimizerNesting(t *testing.T) {
	cfg := Config{Parents: 80, ChildrenPerParent: 8, MemoryBytes: 16 << 20}
	rs, err := RunTest1(cfg, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Test1Result{}
	for _, r := range rs {
		byName[r.Variant.Name] = r
	}
	// DB2: the nested form unnests into the flattened form's plan.
	dn, df := byName["db2-nested"], byName["db2-flattened"]
	if dn.Materialized {
		t.Error("sophisticated optimizer must unnest the generic form")
	}
	if got, want := fmt.Sprint(PlanOperators(dn.Plan)), fmt.Sprint(PlanOperators(df.Plan)); got != want {
		t.Errorf("sophisticated nested plan %s should have the flattened plan's operators %s", got, want)
	}
	if dn.RowsScanned != df.RowsScanned || dn.LogicalReads != df.LogicalReads {
		t.Errorf("sophisticated nested (%d rows, %d reads) should cost what flattened costs (%d rows, %d reads)",
			dn.RowsScanned, dn.LogicalReads, df.RowsScanned, df.LogicalReads)
	}
	// MySQL: the nested form is materialized — every chunk row of both
	// tables — and the flattened, ordered emission avoids that.
	mn, mf := byName["mysql-nested"], byName["mysql-flat-ordered"]
	if !mn.Materialized || PlanOperators(mn.Plan)["TEMP"] != 2 {
		t.Errorf("naive optimizer must materialize both derived tables of the generic form:\n%s", mn.Plan)
	}
	if mf.Materialized {
		t.Error("the flattened emission has nothing to materialize")
	}
	if mf.RowsScanned >= mn.RowsScanned || mf.LogicalReads >= mn.LogicalReads {
		t.Errorf("naive flattened (%d rows, %d reads) should beat naive nested (%d rows, %d reads)",
			mf.RowsScanned, mf.LogicalReads, mn.RowsScanned, mn.LogicalReads)
	}
	// MySQL: ordering matters by a large factor (paper: 5x).
	bad := byName["mysql-flat-metafirst"]
	if bad.RowsScanned < 5*mf.RowsScanned || bad.LogicalReads < 5*mf.LogicalReads {
		t.Errorf("metadata-first ordering (%d rows, %d reads) should cost several times the correct ordering (%d rows, %d reads)",
			bad.RowsScanned, bad.LogicalReads, mf.RowsScanned, mf.LogicalReads)
	}
	t.Log("\n" + FormatTest1(rs))
}

// TestChunkIndexPages loads Chunk6 at chunk_q2_join's scale (300
// parents, 10 children each). The load appends to ChunkData's
// (Tenant, Table, Chunk, Row) index at one point per (table, chunk), so
// every leaf a run leaves behind must be full, its keys stored after the
// prefix its fences share, and a full leaf evens out with a sibling
// that has room before it splits: at most 71 pages (81 before that; 134
// before leaves stored a prefix, 202 when every leaf split also cut at
// the byte midpoint).
func TestChunkIndexPages(t *testing.T) {
	in, err := NewChunk(Config{Parents: 300, ChildrenPerParent: 10}, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Load(); err != nil {
		t.Fatal(err)
	}
	tab, err := in.DB.Catalog().Table("ChunkData")
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range tab.Indexes {
		ids, err := ix.Tree.Pages()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d pages", ix.Name, len(ids))
		if ix.Name == "ChunkData_tcr" && len(ids) > 71 {
			t.Errorf("%s takes %d pages, at most 71", ix.Name, len(ids))
		}
	}
}
