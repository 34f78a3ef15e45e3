// Package chunkexp implements the paper's §6.2 experiment apparatus:
// the Parent/Child test schema with 90 typed data columns each, the Q2
// query family, physical configurations for the conventional layout and
// Chunk Table layouts of every width (plus the vertical-partitioning
// baseline of Figure 12), and the warm-cache / cold-cache / logical-
// page-read measurements behind Figures 9, 10, 11, and 12.
package chunkexp

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// DataCols is the number of data columns per table in the paper's test
// schema (§6.2: "90 data columns evenly distributed between the types
// INTEGER, DATE, and VARCHAR(100)").
const DataCols = 90

// Config scales the experiment. The paper loaded 10,000 parents with
// 100 children each on DB2; the defaults here are laptop-scale, and the
// cmd/chunkbench flags raise them arbitrarily.
type Config struct {
	Parents           int
	ChildrenPerParent int
	MemoryBytes       int64
	ReadLatency       time.Duration
	Optimizer         plan.Mode
}

func (c *Config) fill() {
	if c.Parents == 0 {
		c.Parents = 200
	}
	if c.ChildrenPerParent == 0 {
		c.ChildrenPerParent = 10
	}
	if c.MemoryBytes == 0 {
		c.MemoryBytes = 64 << 20
	}
}

// colType returns the type of data column i (1-based), cycling
// INTEGER, DATE, VARCHAR(100) as in the paper.
func colType(i int) types.ColumnType {
	switch (i - 1) % 3 {
	case 0:
		return types.IntType
	case 1:
		return types.DateType
	default:
		return types.VarcharType(100)
	}
}

// colName names data column i (1-based).
func colName(i int) string { return fmt.Sprintf("col%d", i) }

// Schema builds the logical Parent/Child schema.
func Schema() *core.Schema {
	parent := &core.Table{Name: "parent", Key: "id"}
	parent.Columns = append(parent.Columns, core.Column{Name: "id", Type: types.IntType, NotNull: true, Indexed: true})
	child := &core.Table{Name: "child", Key: "id"}
	child.Columns = append(child.Columns,
		core.Column{Name: "id", Type: types.IntType, NotNull: true, Indexed: true},
		core.Column{Name: "parent", Type: types.IntType, NotNull: true, Indexed: true},
	)
	for i := 1; i <= DataCols; i++ {
		parent.Columns = append(parent.Columns, core.Column{Name: colName(i), Type: colType(i)})
		child.Columns = append(child.Columns, core.Column{Name: colName(i), Type: colType(i)})
	}
	return &core.Schema{Tables: []*core.Table{parent, child}}
}

// ChunkDefs builds the §6.2 chunk-table shapes for one width: a
// single-int indexed ChunkIndex (holding id and parent, mimicking the
// conventional key/foreign-key indexes) and a ChunkData table with
// `width` data columns in the same INTEGER/DATE/VARCHAR pattern so
// conventional groups pack tightly.
func ChunkDefs(width int) []*core.ChunkTableDef {
	data := &core.ChunkTableDef{Name: "ChunkData"}
	for i := 1; i <= width; i++ {
		data.Cols = append(data.Cols, colType(i))
	}
	return []*core.ChunkTableDef{
		{Name: "ChunkIndexT", Cols: []types.ColumnType{types.IntType}, ValueIndex: true},
		data,
	}
}

// Q2 builds the paper's test query at a given scale factor: the
// parent/child foreign-key join with a selective parent-id parameter,
// projecting `scale` data columns from each side.
//
//	SELECT p.id, p.col1, ..., c.col1, ...
//	FROM parent p, child c
//	WHERE p.id = c.parent AND p.id = ?
func Q2(scale int) string {
	var sb strings.Builder
	sb.WriteString("SELECT p.id")
	for i := 1; i <= scale; i++ {
		fmt.Fprintf(&sb, ", p.%s", colName(i))
	}
	for i := 1; i <= scale; i++ {
		fmt.Fprintf(&sb, ", c.%s", colName(i))
	}
	sb.WriteString(" FROM parent p, child c WHERE p.id = c.parent AND p.id = ?")
	return sb.String()
}

// Q2Grouping is the "additional tests" roll-up variant: aggregation
// over the join instead of plain projection.
func Q2Grouping(scale int) string {
	var sb strings.Builder
	sb.WriteString("SELECT p.id")
	for i := 1; i <= scale; i = i + 3 {
		fmt.Fprintf(&sb, ", SUM(c.%s)", colName(i)) // INTEGER columns only
	}
	sb.WriteString(" FROM parent p, child c WHERE p.id = c.parent AND p.id = ? GROUP BY p.id")
	return sb.String()
}

// valueLiteral renders the deterministic synthetic value for (row, col).
func valueLiteral(row int64, col int) string {
	switch colType(col).Kind {
	case types.KindInt:
		return fmt.Sprintf("%d", row*7+int64(col))
	case types.KindDate:
		return fmt.Sprintf("DATE '2008-%02d-%02d'", 1+(int(row)+col)%12, 1+(int(row)*3+col)%28)
	default:
		return fmt.Sprintf("'r%dc%d-%s'", row, col, strings.Repeat("x", 20))
	}
}

// Instance is one physical configuration under test.
type Instance struct {
	Name   string
	Width  int // 0 = conventional
	DB     *engine.DB
	mapper *core.Mapper // nil for conventional
	cfg    Config
}

// NewConventional provisions the conventional two-table layout with the
// paper's indexes (primary keys plus (parent, id) on child).
func NewConventional(cfg Config) (*Instance, error) {
	cfg.fill()
	db := engine.Open(engine.Config{
		MemoryBytes: cfg.MemoryBytes, ReadLatency: cfg.ReadLatency, Optimizer: cfg.Optimizer,
	})
	for _, t := range []string{"parent", "child"} {
		var sb strings.Builder
		fmt.Fprintf(&sb, "CREATE TABLE %s (id INTEGER NOT NULL", t)
		if t == "child" {
			sb.WriteString(", parent INTEGER NOT NULL")
		}
		for i := 1; i <= DataCols; i++ {
			fmt.Fprintf(&sb, ", %s %s", colName(i), colType(i))
		}
		sb.WriteString(")")
		if _, err := db.Exec(sb.String()); err != nil {
			return nil, err
		}
	}
	if _, err := db.Exec("CREATE UNIQUE INDEX parent_pk ON parent (id)"); err != nil {
		return nil, err
	}
	if _, err := db.Exec("CREATE UNIQUE INDEX child_pk ON child (id)"); err != nil {
		return nil, err
	}
	if _, err := db.Exec("CREATE INDEX child_fk ON child (parent, id)"); err != nil {
		return nil, err
	}
	return &Instance{Name: "conventional", DB: db, cfg: cfg}, nil
}

// NewChunk provisions a Chunk Table layout of the given width.
// flattened selects the pre-flattened transformation mode.
func NewChunk(cfg Config, width int, flattened bool) (*Instance, error) {
	cfg.fill()
	db := engine.Open(engine.Config{
		MemoryBytes: cfg.MemoryBytes, ReadLatency: cfg.ReadLatency, Optimizer: cfg.Optimizer,
	})
	l, err := core.NewChunkLayout(Schema(), core.ChunkOptions{
		Defs: ChunkDefs(width), Flattened: flattened,
	})
	if err != nil {
		return nil, err
	}
	if err := l.Create(db, []*core.Tenant{{ID: 1}}); err != nil {
		return nil, err
	}
	return &Instance{
		Name: fmt.Sprintf("chunk%d", width), Width: width,
		DB: db, mapper: core.NewMapper(db, l), cfg: cfg,
	}, nil
}

// NewVertical provisions the Figure 12 baseline: the same chunks, each
// in its own physical table.
func NewVertical(cfg Config, width int) (*Instance, error) {
	cfg.fill()
	db := engine.Open(engine.Config{
		MemoryBytes: cfg.MemoryBytes, ReadLatency: cfg.ReadLatency, Optimizer: cfg.Optimizer,
	})
	l, err := core.NewVerticalLayout(Schema(), ChunkDefs(width))
	if err != nil {
		return nil, err
	}
	if err := l.Create(db, []*core.Tenant{{ID: 1}}); err != nil {
		return nil, err
	}
	return &Instance{
		Name: fmt.Sprintf("vertical%d", width), Width: width,
		DB: db, mapper: core.NewMapper(db, l), cfg: cfg,
	}, nil
}

// Load populates the instance with the synthetic dataset: cfg.Parents
// parent rows, cfg.ChildrenPerParent children each, equivalent data in
// every configuration.
func (in *Instance) Load() error {
	cfg := in.cfg
	insert := func(table string, first, count int64, mkRow func(row int64) string) error {
		const batch = 20
		for done := int64(0); done < count; {
			n := count - done
			if n > batch {
				n = batch
			}
			var sb strings.Builder
			fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", table)
			for i := int64(0); i < n; i++ {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(mkRow(first + done + i))
			}
			if err := in.exec(sb.String()); err != nil {
				return err
			}
			done += n
		}
		return nil
	}
	parentRow := func(row int64) string {
		var sb strings.Builder
		fmt.Fprintf(&sb, "(%d", row)
		for c := 1; c <= DataCols; c++ {
			sb.WriteString(", " + valueLiteral(row, c))
		}
		sb.WriteString(")")
		return sb.String()
	}
	childRow := func(row int64) string {
		parent := (row-1)/int64(cfg.ChildrenPerParent) + 1
		var sb strings.Builder
		fmt.Fprintf(&sb, "(%d, %d", row, parent)
		for c := 1; c <= DataCols; c++ {
			sb.WriteString(", " + valueLiteral(row*31, c))
		}
		sb.WriteString(")")
		return sb.String()
	}
	if err := insert("parent", 1, int64(cfg.Parents), parentRow); err != nil {
		return err
	}
	return insert("child", 1, int64(cfg.Parents)*int64(cfg.ChildrenPerParent), childRow)
}

func (in *Instance) exec(q string) error {
	if in.mapper != nil {
		_, err := in.mapper.Exec(1, q)
		return err
	}
	_, err := in.DB.Exec(q)
	return err
}

// Query runs a logical query with params.
func (in *Instance) Query(q string, params ...types.Value) (*engine.Rows, error) {
	if in.mapper != nil {
		return in.mapper.Query(1, q, params...)
	}
	return in.DB.Query(q, params...)
}

// Explain returns the physical plan of a logical query (Figure 8).
func (in *Instance) Explain(q string) (string, error) {
	if in.mapper != nil {
		return in.mapper.Explain(1, q)
	}
	return in.DB.Explain(q)
}

// RewriteSQL shows the transformed physical SQL.
func (in *Instance) RewriteSQL(q string) (string, error) {
	if in.mapper == nil {
		return q, nil
	}
	sqls, err := in.mapper.RewriteSQL(1, q)
	if err != nil {
		return "", err
	}
	return strings.Join(sqls, ";\n"), nil
}

// Measurement is one cell of the Figure 9/10/11 series.
type Measurement struct {
	WarmTime      time.Duration // Fig 9: average warm-cache response time
	ColdTime      time.Duration // Fig 11: average cold-cache response time
	LogicalReads  int64         // Fig 10: logical page reads per execution
	IndexReads    int64         // the index pages among them ("74–80 % of reads are index accesses")
	RowsScanned   int64         // rows produced by base-table access per warm execution
	PhysicalReads int64         // pages faulted per cold execution
	Rows          int           // result cardinality sanity check
}

// MeasureQ2 runs Q2 at the given scale. Warm runs reuse one parent id
// ("for all of them we used the same values for parameter ? so the data
// was in memory", Test 3); cold runs flush the buffer pool between
// executions (Test 5); logical reads are averaged over the warm runs
// (Test 4).
func (in *Instance) MeasureQ2(query string, runs int, parentID int64) (Measurement, error) {
	if runs <= 0 {
		runs = 5
	}
	var m Measurement
	param := types.NewInt(parentID)

	// Warm-up, then timed warm runs with logical-read accounting.
	rows, err := in.Query(query, param)
	if err != nil {
		return m, err
	}
	m.Rows = len(rows.Data)
	in.DB.ResetStats()
	t0 := time.Now()
	for i := 0; i < runs; i++ {
		if _, err := in.Query(query, param); err != nil {
			return m, err
		}
	}
	m.WarmTime = time.Since(t0) / time.Duration(runs)
	stats := in.DB.Stats()
	m.LogicalReads = stats.Pool.TotalLogicalReads() / int64(runs)
	m.IndexReads = stats.Pool.LogicalReads[storage.CatIndex] / int64(runs)
	m.RowsScanned = stats.Exec.RowsScanned / int64(runs)

	// Cold runs: drop caches before each execution.
	var coldTotal time.Duration
	in.DB.ResetStats()
	for i := 0; i < runs; i++ {
		if err := in.DB.DropCaches(); err != nil {
			return m, err
		}
		t0 := time.Now()
		if _, err := in.Query(query, param); err != nil {
			return m, err
		}
		coldTotal += time.Since(t0)
	}
	m.ColdTime = coldTotal / time.Duration(runs)
	m.PhysicalReads = in.DB.Stats().Pool.TotalPhysicalReads() / int64(runs)
	return m, nil
}

// Improvement returns the Figure 12 response-time improvement of chunk
// folding over vertical partitioning, in percent (positive = folding
// faster). It is computed on the cold-cache times: the paper's testbed
// dataset exceeded its buffer pool, so its "response time" reflects the
// cache-locality effect that folding buys — a logical row's chunks
// share heap pages in the folded tables but live on one page per table
// under vertical partitioning (§6.2 Test 6). The paper itself places
// realistic response times "between the cold cache case and the warm
// cache case".
func Improvement(folded, vertical Measurement) float64 {
	if vertical.ColdTime == 0 {
		return 0
	}
	return 100 * (1 - float64(folded.ColdTime)/float64(vertical.ColdTime))
}

// PlanOperators extracts the distinct operator labels of an EXPLAIN
// tree (used by the Figure 8 shape assertions).
func PlanOperators(explain string) map[string]int {
	out := map[string]int{}
	for _, line := range strings.Split(explain, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		op := line
		if i := strings.IndexAny(line, " ["); i > 0 {
			op = line[:i]
		}
		out[op]++
	}
	return out
}

// ParseQ2 is a helper for tests: it validates the query text parses.
func ParseQ2(scale int) error {
	_, err := sql.Parse(Q2(scale))
	return err
}
