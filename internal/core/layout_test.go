package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/types"
)

func paperSchema() *Schema { return PaperSchema() }

func paperTenants() []*Tenant {
	return []*Tenant{
		{ID: 17, Extensions: []string{"HealthcareAccount"}},
		{ID: 35},
		{ID: 42, Extensions: []string{"AutomotiveAccount"}},
	}
}

// allLayouts builds every layout (with extension support) over a fresh
// database each, for the paper's three tenants.
func allLayouts(t *testing.T, schema *Schema) map[string]*Mapper {
	t.Helper()
	return layoutsFor(t, schema, paperTenants())
}

// layoutsFor is allLayouts for a chosen tenant set.
func layoutsFor(t *testing.T, schema *Schema, tenants []*Tenant) map[string]*Mapper {
	t.Helper()
	return layoutsOn(t, schema, tenants, engine.Config{})
}

// layoutsOn is layoutsFor on databases opened with cfg.
func layoutsOn(t *testing.T, schema *Schema, tenants []*Tenant, cfg engine.Config) map[string]*Mapper {
	t.Helper()
	out := map[string]*Mapper{}
	add := func(name string, l Layout, err error) {
		if err != nil {
			t.Fatalf("layout %s: %v", name, err)
		}
		db := engine.Open(cfg)
		if err := l.Create(db, copyTenants(tenants)); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		out[name] = NewMapper(db, l)
	}
	pl, err := NewPrivateLayout(schema)
	add("private", pl, err)
	el, err := NewExtensionLayout(schema)
	add("extension", el, err)
	ul, err := NewUniversalLayout(schema, 16)
	add("universal", ul, err)
	pv, err := NewPivotLayout(schema)
	add("pivot", pv, err)
	ch, err := NewChunkLayout(schema, ChunkOptions{})
	add("chunk", ch, err)
	chf, err := NewChunkLayout(schema, ChunkOptions{Flattened: true})
	add("chunk-flat", chf, err)
	cht, err := NewChunkLayout(schema, ChunkOptions{Trashcan: true})
	add("chunk-trashcan", cht, err)
	vl, err := NewVerticalLayout(schema, nil)
	add("vertical", vl, err)
	fl, err := NewChunkFoldingLayout(schema, FoldingOptions{
		ConventionalExtensions: []string{"HealthcareAccount"},
	})
	add("chunkfold", fl, err)
	fla, err := NewChunkFoldingLayout(schema, FoldingOptions{})
	add("chunkfold-allfolded", fla, err)
	return out
}

// basicFor is a Basic layout over a fresh database for tenants with
// their extensions dropped: Basic cannot represent any.
func basicFor(t *testing.T, schema *Schema, tenants []*Tenant) *Mapper {
	t.Helper()
	l, err := NewBasicLayout(schema)
	if err != nil {
		t.Fatal(err)
	}
	plain := make([]*Tenant, len(tenants))
	for i, tn := range tenants {
		plain[i] = &Tenant{ID: tn.ID}
	}
	db := engine.Open(engine.Config{})
	if err := l.Create(db, plain); err != nil {
		t.Fatal(err)
	}
	return NewMapper(db, l)
}

// logicalDB runs a tenant's logical SQL: a Mapper, or plainTenants.
type logicalDB interface {
	Exec(tenant int64, q string, params ...types.Value) (engine.Result, error)
	Query(tenant int64, q string, params ...types.Value) (*engine.Rows, error)
}

func nameOf(m logicalDB) string {
	if m, ok := m.(*Mapper); ok {
		return m.Layout.Name()
	}
	return "reference"
}

// plainTenants is the semantics reference the layouts are held to: a
// plain engine database per tenant, holding its logical tables as they
// are, where logical SQL runs verbatim and enabling an extension is an
// ALTER TABLE. No rewriter is involved.
type plainTenants struct {
	schema *Schema
	dbs    map[int64]*engine.DB
}

func newPlainTenants(t *testing.T, schema *Schema, tenants []*Tenant) *plainTenants {
	t.Helper()
	p := &plainTenants{schema: schema, dbs: map[int64]*engine.DB{}}
	for _, tn := range tenants {
		db := engine.Open(engine.Config{})
		for _, bt := range schema.Tables {
			cols, err := schema.LogicalColumns(tn, bt.Name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Exec(buildCreateTable(bt.Name, cols)); err != nil {
				t.Fatal(err)
			}
		}
		p.dbs[tn.ID] = db
	}
	return p
}

func (p *plainTenants) Exec(tenant int64, q string, params ...types.Value) (engine.Result, error) {
	return p.dbs[tenant].Exec(q, params...)
}

func (p *plainTenants) Query(tenant int64, q string, params ...types.Value) (*engine.Rows, error) {
	return p.dbs[tenant].Query(q, params...)
}

// extend enables an extension for a tenant of m: on-line through a
// Mapper's layout, or in the reference by adding the extension's columns
// to the tenant's table.
func extend(m logicalDB, tenant int64, ext string) error {
	if m, ok := m.(*Mapper); ok {
		return m.Layout.(*FragmentLayout).ExtendTenant(m.DB, tenant, ext)
	}
	p := m.(*plainTenants)
	e := p.schema.Extension(ext)
	for _, c := range e.Columns {
		if _, err := p.dbs[tenant].Exec(fmt.Sprintf("ALTER TABLE %s ADD COLUMN %s %s", e.Base, c.Name, c.Type)); err != nil {
			return err
		}
	}
	return nil
}

// placements counts the placements a layout holds: one per table seen
// alike, and one per (tenant, table) a tenant has to itself.
func placements(l Layout) int {
	st := l.(*FragmentLayout).st
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.base) + len(st.views)
}

// copyTenants copies a tenant list: layouts keep the *Tenant they are
// given and ExtendTenant appends to it, so layouts must not share them.
func copyTenants(in []*Tenant) []*Tenant {
	out := make([]*Tenant, len(in))
	for i, t := range in {
		out[i] = &Tenant{ID: t.ID, Extensions: append([]string(nil), t.Extensions...)}
	}
	return out
}

// loadPaperData inserts the Figure 4 example rows through the mapper.
func loadPaperData(t *testing.T, m logicalDB) {
	t.Helper()
	steps := []struct {
		tenant int64
		q      string
	}{
		{17, "INSERT INTO Account (Aid, Name, Hospital, Beds) VALUES (1, 'Acme', 'St. Mary', 135), (2, 'Gump', 'State', 1042)"},
		{35, "INSERT INTO Account (Aid, Name) VALUES (1, 'Ball')"},
		{42, "INSERT INTO Account (Aid, Name, Dealers) VALUES (1, 'Big', 65)"},
	}
	for _, s := range steps {
		if _, err := m.Exec(s.tenant, s.q); err != nil {
			t.Fatalf("%s load: %v", nameOf(m), err)
		}
	}
}

// sortedRows canonicalizes a result set for comparison.
func sortedRows(rows *engine.Rows) []string {
	out := make([]string, 0, len(rows.Data))
	for _, r := range rows.Data {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.Kind.String() + ":" + v.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

func queryAll(t *testing.T, m logicalDB, tenant int64, q string, params ...types.Value) []string {
	t.Helper()
	rows, err := m.Query(tenant, q, params...)
	if err != nil {
		t.Fatalf("%s: Query(%d, %q): %v", nameOf(m), tenant, q, err)
	}
	return sortedRows(rows)
}

// TestPaperRunningExample drives the paper's Q1 through every layout.
func TestPaperRunningExample(t *testing.T) {
	for name, m := range allLayouts(t, paperSchema()) {
		t.Run(name, func(t *testing.T) {
			loadPaperData(t, m)
			rows, err := m.Query(17, "SELECT Beds FROM Account WHERE Hospital = 'State'")
			if err != nil {
				t.Fatal(err)
			}
			if len(rows.Data) != 1 || rows.Data[0][0].Int != 1042 {
				t.Errorf("Q1 = %+v", rows.Data)
			}
			// Tenant 35 sees only base columns.
			if _, err := m.Query(35, "SELECT Hospital FROM Account"); err == nil {
				t.Error("tenant 35 must not see health-care columns")
			}
			// Tenant 42 sees Dealers.
			rows, err = m.Query(42, "SELECT Name, Dealers FROM Account WHERE Aid = 1")
			if err != nil {
				t.Fatal(err)
			}
			if len(rows.Data) != 1 || rows.Data[0][0].Str != "Big" || rows.Data[0][1].Int != 65 {
				t.Errorf("tenant 42: %+v", rows.Data)
			}
			// Tenant isolation: tenant 35 sees exactly its one account.
			rows, err = m.Query(35, "SELECT COUNT(*) FROM Account")
			if err != nil {
				t.Fatal(err)
			}
			if rows.Data[0][0].Int != 1 {
				t.Errorf("tenant 35 count = %v", rows.Data[0][0])
			}
		})
	}
}

// TestLayoutEquivalence runs an identical randomized workload through
// every layout and cross-checks every statement's row count and all
// query results against plainTenants, the semantics reference.
func TestLayoutEquivalence(t *testing.T) {
	layoutEquivalence(t, engine.Config{})
}

// TestLayoutEquivalenceWithHintsLive is the same workload where every
// access path announces and the pool thrashes: 256-byte pages, 10 frames
// (a one-byte meta-data tax keeps them), a device with read latency.
// The universal layout fits in 12 frames, so 10 keep every shared
// layout thrashing. Afterwards every table is sound and nothing is
// pinned.
func TestLayoutEquivalenceWithHintsLive(t *testing.T) {
	layouts := layoutEquivalence(t, engine.Config{
		PageSize: 256, MemoryBytes: 10*256 + 128, MetaBytesPerTable: 1,
		ReadLatency: 50 * time.Microsecond,
	})
	for name, m := range layouts {
		cat := m.DB.Catalog()
		for _, table := range cat.TableNames() {
			tab, err := cat.Table(table)
			if err != nil {
				t.Fatal(err)
			}
			if err := tab.CheckInvariants(); err != nil {
				t.Errorf("%s: %s: %v", name, table, err)
			}
		}
		st := m.DB.Stats().Pool
		// Private's three small tables fit in the pool; every other layout
		// must have thrashed and joined hints.
		if st.Capacity != 10 || name != "private" && (st.PrefetchJoined == 0 || st.Evictions == 0) {
			t.Errorf("%s neither hinted nor thrashed: %+v", name, st)
		}
		if err := m.DB.DropCaches(); err != nil { // waits for loads, refuses pins
			t.Errorf("%s: %v", name, err)
		}
	}
}

func layoutEquivalence(t *testing.T, cfg engine.Config) map[string]*Mapper {
	schema := paperSchema()
	layouts := layoutsOn(t, schema, paperTenants(), cfg)
	ref := newPlainTenants(t, schema, paperTenants())

	r := rand.New(rand.NewSource(7))
	type op struct {
		tenant int64
		sql    string
		extend string // instead of sql: enable this extension on-line
	}
	var ops []op
	tenants := []int64{17, 35, 42}
	nextID := map[int64]int{17: 10, 35: 10, 42: 10}
	extended35 := false
	for i := 0; i < 180; i++ {
		if i == 80 {
			// Tenant 35 gains the health-care extension mid-stream: its
			// rows so far need spine rows wherever the layout puts the
			// new columns, and read NULL there.
			ops = append(ops, op{tenant: 35, extend: "HealthcareAccount"})
			extended35 = true
		}
		tn := tenants[r.Intn(len(tenants))]
		health := tn == 17 || (tn == 35 && extended35)
		switch r.Intn(18) {
		case 0, 1, 2, 3: // insert
			id := nextID[tn]
			nextID[tn]++
			q := fmt.Sprintf("INSERT INTO Account (Aid, Name) VALUES (%d, 'n%d')", id, id)
			switch {
			case health:
				q = fmt.Sprintf("INSERT INTO Account (Aid, Name, Hospital, Beds) VALUES (%d, 'n%d', 'h%d', %d)", id, id, id%5, r.Intn(1000))
			case tn == 42:
				q = fmt.Sprintf("INSERT INTO Account (Aid, Name, Dealers) VALUES (%d, 'n%d', %d)", id, id, r.Intn(100))
			}
			ops = append(ops, op{tenant: tn, sql: q})
		case 4, 5: // update
			ops = append(ops, op{tenant: tn, sql: fmt.Sprintf("UPDATE Account SET Name = 'u%d' WHERE Aid = %d", i, 10+r.Intn(20))})
		case 6: // computed update touching base data
			ops = append(ops, op{tenant: tn, sql: fmt.Sprintf("UPDATE Account SET Name = Name WHERE Aid > %d", 10+r.Intn(20))})
		case 7: // extension-column update (tenant-specific)
			switch {
			case health:
				ops = append(ops, op{tenant: tn, sql: fmt.Sprintf("UPDATE Account SET Beds = Beds + 1 WHERE Aid = %d", 10+r.Intn(20))})
			case tn == 42:
				ops = append(ops, op{tenant: tn, sql: fmt.Sprintf("UPDATE Account SET Dealers = %d WHERE Aid = %d", r.Intn(50), 10+r.Intn(20))})
			default:
				ops = append(ops, op{tenant: tn, sql: fmt.Sprintf("UPDATE Account SET Name = 'z' WHERE Aid = %d", 10+r.Intn(20))})
			}
		case 8: // delete
			ops = append(ops, op{tenant: tn, sql: fmt.Sprintf("DELETE FROM Account WHERE Aid = %d", 10+r.Intn(20))})
		case 9: // delete with NULL-safe predicate
			ops = append(ops, op{tenant: tn, sql: "DELETE FROM Account WHERE Name LIKE 'zz%'"})
		case 10: // per-row phase (b): many rows, a different value each, base and extension parts at once
			switch {
			case health:
				ops = append(ops, op{tenant: tn, sql: fmt.Sprintf("UPDATE Account SET Beds = Aid * 3, Name = Hospital WHERE Aid > %d", 10+r.Intn(10))})
			case tn == 42:
				ops = append(ops, op{tenant: tn, sql: fmt.Sprintf("UPDATE Account SET Dealers = Dealers + Aid, Name = 'd' WHERE Aid > %d", 10+r.Intn(10))})
			default:
				ops = append(ops, op{tenant: tn, sql: fmt.Sprintf("UPDATE Account SET Name = Name WHERE Aid < %d", 20+r.Intn(10))})
			}
		case 11: // multi-row delete
			ops = append(ops, op{tenant: tn, sql: fmt.Sprintf("DELETE FROM Account WHERE Aid > %d", 24+r.Intn(10))})

		// The shapes the fusion rule sends direct in one layout or another
		// (TestDirectClassification says which); rows affected are compared
		// too, so a fused statement that saw a deleted, trashcanned or
		// not-yet-back-filled row differently would show.
		case 12: // extension columns only, read and written
			switch {
			case health:
				ops = append(ops, op{tenant: tn, sql: fmt.Sprintf("UPDATE Account SET Beds = Beds + 1, Hospital = 'h%d' WHERE Beds > %d OR Hospital IS NULL", i, r.Intn(1000))})
			case tn == 42:
				ops = append(ops, op{tenant: tn, sql: fmt.Sprintf("UPDATE Account SET Dealers = Dealers * 2 WHERE Dealers < %d", r.Intn(100))})
			default:
				ops = append(ops, op{tenant: tn, sql: fmt.Sprintf("UPDATE Account SET Name = 'b%d' WHERE Name LIKE 'n1%%'", i)})
			}
		case 13: // no WHERE
			switch {
			case health:
				ops = append(ops, op{tenant: tn, sql: "UPDATE Account SET Beds = Beds + 1"})
			case tn == 42:
				ops = append(ops, op{tenant: tn, sql: fmt.Sprintf("UPDATE Account SET Dealers = %d", r.Intn(50))})
			default:
				ops = append(ops, op{tenant: tn, sql: fmt.Sprintf("UPDATE Account SET Name = 'all%d'", i)})
			}
		case 14: // alias-qualified
			ops = append(ops, op{tenant: tn, sql: fmt.Sprintf("UPDATE Account a SET Name = a.Name WHERE a.Aid >= %d AND a.Name LIKE 'n%%'", 10+r.Intn(20))})
		case 15: // IN-subquery in WHERE
			ops = append(ops, op{tenant: tn, sql: fmt.Sprintf("UPDATE Account SET Name = 'in%d' WHERE Aid IN (SELECT Aid FROM Account WHERE Aid < %d)", i, 10+r.Intn(20))})
		case 16: // delete by a non-key base column
			ops = append(ops, op{tenant: tn, sql: fmt.Sprintf("DELETE FROM Account a WHERE a.Name = 'n%d'", 10+r.Intn(20))})
		case 17: // delete by an extension column
			switch {
			case health:
				ops = append(ops, op{tenant: tn, sql: fmt.Sprintf("DELETE FROM Account WHERE Beds > %d", 900+r.Intn(100))})
			case tn == 42:
				ops = append(ops, op{tenant: tn, sql: fmt.Sprintf("DELETE FROM Account WHERE Dealers > %d", 90+r.Intn(10))})
			default:
				ops = append(ops, op{tenant: tn, sql: fmt.Sprintf("DELETE FROM Account WHERE Aid IN (SELECT Aid FROM Account WHERE Aid = %d)", 10+r.Intn(20))})
			}
		}
	}

	run := func(m logicalDB) []int64 {
		affected := make([]int64, len(ops))
		for i, o := range ops {
			if o.extend != "" {
				if err := extend(m, o.tenant, o.extend); err != nil {
					t.Fatalf("%s: ExtendTenant(%d, %s): %v", nameOf(m), o.tenant, o.extend, err)
				}
				continue
			}
			res, err := m.Exec(o.tenant, o.sql)
			if err != nil {
				t.Fatalf("%s: Exec(%d, %q): %v", nameOf(m), o.tenant, o.sql, err)
			}
			affected[i] = res.RowsAffected
		}
		return affected
	}
	want := run(ref)
	for name, m := range layouts {
		for i, got := range run(m) {
			if got != want[i] {
				t.Errorf("%s: op %d, Exec(%d, %q) affected %d rows, reference %d", name, i, ops[i].tenant, ops[i].sql, got, want[i])
			}
		}
	}

	queries := []struct {
		tenant int64
		q      string
	}{
		{17, "SELECT Aid, Name, Hospital, Beds FROM Account"},
		{17, "SELECT Name FROM Account WHERE Beds > 100"},
		{17, "SELECT Hospital, COUNT(*), SUM(Beds) FROM Account GROUP BY Hospital"},
		{17, "SELECT Aid FROM Account WHERE Name LIKE 'u%'"},
		{35, "SELECT Aid, Name FROM Account"},
		{35, "SELECT COUNT(*) FROM Account"},
		{35, "SELECT Aid, Name, Hospital, Beds FROM Account"},
		{35, "SELECT Aid FROM Account WHERE Beds IS NULL"},
		{35, "SELECT a.Aid, b.Beds FROM Account a, Account b WHERE a.Aid = b.Aid AND b.Hospital = 'h1'"},
		{42, "SELECT Aid, Name, Dealers FROM Account WHERE Dealers >= 0"},
		{42, "SELECT SUM(Dealers) FROM Account"},
		{17, "SELECT a.Name, b.Name FROM Account a, Account b WHERE a.Aid = b.Aid AND a.Beds > 500"},
		{17, "SELECT Aid FROM Account ORDER BY Aid DESC LIMIT 3"},
	}
	for name, m := range layouts {
		for _, qq := range queries {
			want := queryAll(t, ref, qq.tenant, qq.q)
			got := queryAll(t, m, qq.tenant, qq.q)
			if strings.Join(want, "\n") != strings.Join(got, "\n") {
				t.Errorf("%s diverges from the reference on tenant %d %q:\nwant %v\ngot  %v",
					name, qq.tenant, qq.q, want, got)
			}
		}
	}
	return layouts
}

// TestSelectStar checks star expansion exposes exactly the tenant's
// logical columns in every layout.
func TestSelectStar(t *testing.T) {
	for name, m := range allLayouts(t, paperSchema()) {
		loadPaperData(t, m)
		rows, err := m.Query(17, "SELECT * FROM Account WHERE Aid = 1")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows.Columns) != 4 {
			t.Errorf("%s: tenant 17 star columns = %v", name, rows.Columns)
		}
		rows, err = m.Query(35, "SELECT * FROM Account")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows.Columns) != 2 {
			t.Errorf("%s: tenant 35 star columns = %v", name, rows.Columns)
		}
		for _, c := range rows.Columns {
			lc := strings.ToLower(c)
			if lc == "tenant" || lc == "row" || lc == "chunk" || lc == "table" {
				t.Errorf("%s: meta-data column %s leaked", name, c)
			}
		}
	}
}

// TestTwoPhaseDML checks the §6.3 protocol details: computed SET
// expressions, multi-row updates with differing values, and deletes.
func TestTwoPhaseDML(t *testing.T) {
	for name, m := range allLayouts(t, paperSchema()) {
		loadPaperData(t, m)
		// Computed update over two rows with different results.
		res, err := m.Exec(17, "UPDATE Account SET Beds = Beds + Aid WHERE Beds IS NOT NULL")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.RowsAffected != 2 {
			t.Errorf("%s: affected %d", name, res.RowsAffected)
		}
		got := queryAll(t, m, 17, "SELECT Aid, Beds FROM Account")
		want := []string{"INTEGER:1|INTEGER:136", "INTEGER:2|INTEGER:1044"}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: after computed update: %v", name, got)
		}
		// Cross-chunk expression: set a base column from an extension column.
		if _, err := m.Exec(17, "UPDATE Account SET Name = Hospital WHERE Aid = 1"); err != nil {
			t.Fatalf("%s cross-part update: %v", name, err)
		}
		rows, _ := m.Query(17, "SELECT Name FROM Account WHERE Aid = 1")
		if rows.Data[0][0].Str != "St. Mary" {
			t.Errorf("%s: cross-part update got %v", name, rows.Data[0][0])
		}
		// Delete and verify gone.
		res, err = m.Exec(17, "DELETE FROM Account WHERE Aid = 2")
		if err != nil || res.RowsAffected != 1 {
			t.Fatalf("%s delete: %v %d", name, err, res.RowsAffected)
		}
		rows, _ = m.Query(17, "SELECT COUNT(*) FROM Account")
		if rows.Data[0][0].Int != 1 {
			t.Errorf("%s: count after delete = %v", name, rows.Data[0][0])
		}
	}
}

// TestNullHandling exercises NULL extension values, which stress the
// pivot layout's absent-cell representation in particular.
func TestNullHandling(t *testing.T) {
	for name, m := range allLayouts(t, paperSchema()) {
		if _, err := m.Exec(17, "INSERT INTO Account (Aid, Name, Hospital, Beds) VALUES (1, 'A', NULL, NULL), (2, NULL, 'H', 5)"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := queryAll(t, m, 17, "SELECT Aid, Name, Hospital, Beds FROM Account")
		want := []string{"INTEGER:1|VARCHAR:A|NULL:NULL|NULL:NULL", "INTEGER:2|NULL:NULL|VARCHAR:H|INTEGER:5"}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: %v", name, got)
		}
		rows, err := m.Query(17, "SELECT Aid FROM Account WHERE Beds IS NULL")
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Data) != 1 || rows.Data[0][0].Int != 1 {
			t.Errorf("%s: IS NULL: %+v", name, rows.Data)
		}
		// Update NULL -> value and value -> NULL.
		if _, err := m.Exec(17, "UPDATE Account SET Beds = 9 WHERE Aid = 1"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Exec(17, "UPDATE Account SET Beds = NULL WHERE Aid = 2"); err != nil {
			t.Fatal(err)
		}
		got = queryAll(t, m, 17, "SELECT Aid, Beds FROM Account")
		want = []string{"INTEGER:1|INTEGER:9", "INTEGER:2|NULL:NULL"}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: NULL transitions: %v", name, got)
		}
	}
}

// TestUnknownTenantAndTable covers the error paths.
func TestUnknownTenantAndTable(t *testing.T) {
	for name, m := range allLayouts(t, paperSchema()) {
		if _, err := m.Query(99, "SELECT Name FROM Account"); err == nil {
			t.Errorf("%s: unknown tenant should fail", name)
		}
		if _, err := m.Query(17, "SELECT x FROM NoSuchTable"); err == nil {
			t.Errorf("%s: unknown table should fail", name)
		}
		if _, err := m.Exec(17, "INSERT INTO Account (NoCol) VALUES (1)"); err == nil {
			t.Errorf("%s: unknown column should fail", name)
		}
	}
	// Basic and Private have no Row ids to run two phases on: an UPDATE or
	// DELETE that does not fuse fails at rewrite, and no physical
	// statement reaches the engine.
	for _, m := range []*Mapper{basicFor(t, paperSchema(), paperTenants()), allLayouts(t, paperSchema())["private"]} {
		mustExec(t, m, 35, "INSERT INTO Account (Aid, Name) VALUES (1, 'Ball')", 1)
		for _, q := range []string{
			"UPDATE Account SET Name = 'x' WHERE NoCol = 1",
			"UPDATE Account a SET Name = 'x' WHERE b.Aid = 1",
			"DELETE FROM Account WHERE NoCol = 2",
		} {
			st, err := sql.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			before := m.DB.Stats()
			if _, err := m.Layout.Rewrite(35, st); err == nil || !strings.Contains(err.Error(), "no column") {
				t.Errorf("%s: rewrite of %q: %v, want an error naming the column", m.Layout.Name(), q, err)
			}
			if _, err := m.Exec(35, q); err == nil {
				t.Errorf("%s: %q executed", m.Layout.Name(), q)
			}
			if after := m.DB.Stats(); after.PlanCacheHits+after.PlanCacheMisses != before.PlanCacheHits+before.PlanCacheMisses {
				t.Errorf("%s: %q reached the engine", m.Layout.Name(), q)
			}
		}
		if got := queryAll(t, m, 35, "SELECT Aid, Name FROM Account"); fmt.Sprint(got) != "[INTEGER:1|VARCHAR:Ball]" {
			t.Errorf("%s: tenant 35 holds %v", m.Layout.Name(), got)
		}
	}
}

// TestParamsThroughLayouts checks `?` parameters survive rewriting.
func TestParamsThroughLayouts(t *testing.T) {
	for name, m := range allLayouts(t, paperSchema()) {
		loadPaperData(t, m)
		rows, err := m.Query(17, "SELECT Name FROM Account WHERE Aid = ?", types.NewInt(2))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows.Data) != 1 || rows.Data[0][0].Str != "Gump" {
			t.Errorf("%s: param query: %+v", name, rows.Data)
		}
		if _, err := m.Exec(17, "UPDATE Account SET Beds = ? WHERE Aid = ?", types.NewInt(7), types.NewInt(1)); err != nil {
			t.Fatalf("%s: param update: %v", name, err)
		}
		rows, _ = m.Query(17, "SELECT Beds FROM Account WHERE Aid = 1")
		if rows.Data[0][0].Int != 7 {
			t.Errorf("%s: param update result: %v", name, rows.Data[0][0])
		}
	}
}

// TestRewriteSQLShapes spot-checks the physical SQL of the paper's
// examples.
func TestRewriteSQLShapes(t *testing.T) {
	layouts := allLayouts(t, paperSchema())
	q := "SELECT Beds FROM Account WHERE Hospital = 'State'"

	sqls, err := layouts["private"].RewriteSQL(17, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sqls[0], "Account_t17") {
		t.Errorf("private rewrite: %s", sqls[0])
	}

	sqls, err = layouts["chunk"].RewriteSQL(17, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sqls[0], "Tenant = 17") || !strings.Contains(sqls[0], "Chunk =") {
		t.Errorf("chunk rewrite lacks meta-data predicates: %s", sqls[0])
	}

	sqls, err = layouts["chunk-flat"].RewriteSQL(17, q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sqls[0], "(SELECT") {
		t.Errorf("flattened rewrite still nested: %s", sqls[0])
	}

	sqls, err = layouts["pivot"].RewriteSQL(17, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sqls[0], "Pivot_") || !strings.Contains(sqls[0], "Col = ") {
		t.Errorf("pivot rewrite: %s", sqls[0])
	}

	sqls, err = layouts["universal"].RewriteSQL(17, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sqls[0], "Universal") {
		t.Errorf("universal rewrite: %s", sqls[0])
	}
}
