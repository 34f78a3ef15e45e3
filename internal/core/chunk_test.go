package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/types"
)

func TestSchemaValidate(t *testing.T) {
	good := paperSchema()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Schema{
		{},
		{Tables: []*Table{{Name: "T"}}},
		{Tables: []*Table{{Name: "T", Key: "id", Columns: []Column{{Name: "x", Type: types.IntType}}}}},
		{Tables: []*Table{{Name: "T", Key: "id", Columns: []Column{{Name: "id", Type: types.IntType}}}}}, // key nullable
		{Tables: []*Table{
			{Name: "T", Key: "id", Columns: []Column{{Name: "id", Type: types.IntType, NotNull: true}}},
			{Name: "t", Key: "id", Columns: []Column{{Name: "id", Type: types.IntType, NotNull: true}}},
		}},
		{
			Tables:     []*Table{{Name: "T", Key: "id", Columns: []Column{{Name: "id", Type: types.IntType, NotNull: true}}}},
			Extensions: []*Extension{{Name: "E", Base: "NoSuch", Columns: []Column{{Name: "x", Type: types.IntType}}}},
		},
		{
			Tables:     []*Table{{Name: "T", Key: "id", Columns: []Column{{Name: "id", Type: types.IntType, NotNull: true}}}},
			Extensions: []*Extension{{Name: "E", Base: "T", Columns: []Column{{Name: "id", Type: types.IntType}}}},
		},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schema %d passed validation", i)
		}
	}
}

func TestLogicalColumnsPerTenant(t *testing.T) {
	s := paperSchema()
	cols, err := s.LogicalColumns(&Tenant{ID: 17, Extensions: []string{"HealthcareAccount"}}, "Account")
	if err != nil || len(cols) != 4 {
		t.Fatalf("tenant 17: %v %v", cols, err)
	}
	cols, err = s.LogicalColumns(&Tenant{ID: 35}, "Account")
	if err != nil || len(cols) != 2 {
		t.Fatalf("tenant 35: %v %v", cols, err)
	}
	if _, err := s.LogicalColumns(&Tenant{ID: 1, Extensions: []string{"NoSuch"}}, "Account"); err == nil {
		t.Error("unknown extension should fail")
	}
}

func TestAssignmentAlgorithm(t *testing.T) {
	defs := []*ChunkTableDef{
		{Name: "ChunkIndexT", Cols: []types.ColumnType{types.IntType}, ValueIndex: true},
		{Name: "Chunk_i1s1", Cols: []types.ColumnType{types.IntType, {Kind: types.KindString}}},
	}
	cols := []Column{
		{Name: "id", Type: types.IntType, NotNull: true, Indexed: true},
		{Name: "name", Type: types.VarcharType(10)},
		{Name: "beds", Type: types.IntType},
		{Name: "city", Type: types.VarcharType(10)},
		{Name: "flag", Type: types.BoolType},
	}
	groups, err := assignColumns(cols, defs, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every column must be assigned exactly once.
	seen := map[string]int{}
	where := map[string]*chunkGroup{}
	phys := map[string]string{}
	for _, g := range groups {
		for i, c := range g.Cols {
			seen[strings.ToLower(c.Name)]++
			where[strings.ToLower(c.Name)], phys[strings.ToLower(c.Name)] = g, g.Phys[i]
		}
	}
	// Indexed id must land in the ValueIndex def.
	if g := where["id"]; g == nil || g.Def.Name != "ChunkIndexT" {
		t.Errorf("id location: %+v", g)
	}
	for _, c := range cols {
		if seen[strings.ToLower(c.Name)] != 1 {
			t.Errorf("column %s assigned %d times", c.Name, seen[strings.ToLower(c.Name)])
		}
	}
	// Chunk IDs must be dense from 0.
	for i, g := range groups {
		if g.ID != i {
			t.Errorf("group %d has ID %d", i, g.ID)
		}
	}
	// Bool stored in an Int slot.
	if !strings.HasPrefix(phys["flag"], "Int") {
		t.Errorf("bool column stored in %s", phys["flag"])
	}
}

func TestAssignmentNoFit(t *testing.T) {
	defs := []*ChunkTableDef{{Name: "IntsOnly", Cols: []types.ColumnType{types.IntType}}}
	_, err := assignColumns([]Column{{Name: "s", Type: types.VarcharType(5)}}, defs, 0)
	if err == nil {
		t.Error("string column with int-only defs should fail")
	}
	// Indexed column with no ValueIndex def.
	_, err = assignColumns([]Column{{Name: "i", Type: types.IntType, Indexed: true}}, defs, 0)
	if err == nil {
		t.Error("indexed column without ValueIndex def should fail")
	}
}

// TestAssignmentProperty: random column lists against random def sets
// either fail cleanly or produce a complete, non-overlapping assignment
// whose physical slots exist in the defs with matching types.
func TestAssignmentProperty(t *testing.T) {
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindDate, types.KindBool}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var cols []Column
		n := 1 + r.Intn(40)
		for i := 0; i < n; i++ {
			cols = append(cols, Column{
				Name:    "c" + string(rune('A'+i%26)) + string(rune('0'+i/26)),
				Type:    types.ColumnType{Kind: kinds[r.Intn(len(kinds))]},
				Indexed: r.Intn(5) == 0,
			})
		}
		var defs []*ChunkTableDef
		nd := 1 + r.Intn(4)
		for d := 0; d < nd; d++ {
			def := &ChunkTableDef{Name: "D" + string(rune('0'+d)), ValueIndex: r.Intn(2) == 0}
			w := 1 + r.Intn(6)
			for j := 0; j < w; j++ {
				k := kinds[r.Intn(4)] // no bool chunk columns
				def.Cols = append(def.Cols, types.ColumnType{Kind: k})
			}
			defs = append(defs, def)
		}
		groups, err := assignColumns(cols, defs, 0)
		if err != nil {
			return true // clean failure is acceptable
		}
		assigned := map[string]bool{}
		for _, g := range groups {
			usedPhys := map[string]bool{}
			physByName := map[string]types.Kind{}
			phys := g.Def.PhysCols()
			for i, pc := range phys {
				physByName[pc] = g.Def.Cols[i].Kind
			}
			for i, c := range g.Cols {
				if assigned[strings.ToLower(c.Name)] {
					return false // double assignment
				}
				assigned[strings.ToLower(c.Name)] = true
				pc := g.Phys[i]
				if usedPhys[pc] {
					return false // slot collision within a chunk
				}
				usedPhys[pc] = true
				wantKind, ok := physByName[pc]
				if !ok || wantKind != chunkStorageKind(c.Type.Kind) {
					return false // wrong slot type
				}
				if c.Indexed && !g.Def.ValueIndex {
					return false // indexed column routed to unindexed def
				}
			}
		}
		return len(assigned) == len(cols)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUniformChunkDefs(t *testing.T) {
	defs := UniformChunkDefs(paperSchema(), 6)
	if len(defs) != 2 {
		t.Fatalf("defs: %d", len(defs))
	}
	if !defs[0].ValueIndex || len(defs[0].Cols) != 1 {
		t.Errorf("index def: %+v", defs[0])
	}
	if len(defs[1].Cols) != 6 {
		t.Errorf("data def width: %d", len(defs[1].Cols))
	}
}

// TestOnlineTenantAndExtension exercises the on-line administrative
// operations (§4.2: adding tenants and changing tenant schemas while
// the system runs) on every layout that supports them.
func TestOnlineTenantAndExtension(t *testing.T) {
	schema := paperSchema()
	for name, m := range allLayouts(t, schema) {
		loadPaperData(t, m)
		if _, err := m.Exec(35, "INSERT INTO Account (Aid, Name) VALUES (2, 'Bell'), (3, 'Bull')"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// New tenant arrives on-line.
		newTenant := &Tenant{ID: 99, Extensions: []string{"AutomotiveAccount"}}
		if err := m.Layout.AddTenant(m.DB, newTenant); err != nil {
			t.Fatalf("%s: AddTenant: %v", name, err)
		}
		if _, err := m.Exec(99, "INSERT INTO Account (Aid, Name, Dealers) VALUES (1, 'Fresh', 3)"); err != nil {
			t.Fatalf("%s: insert for new tenant: %v", name, err)
		}
		rows, err := m.Query(99, "SELECT Dealers FROM Account WHERE Aid = 1")
		if err != nil || len(rows.Data) != 1 || rows.Data[0][0].Int != 3 {
			t.Fatalf("%s: new tenant query: %v %+v", name, err, rows)
		}
		// Duplicate registration must fail.
		if err := m.Layout.AddTenant(m.DB, newTenant); err == nil {
			t.Errorf("%s: duplicate AddTenant should fail", name)
		}

		// On-line extension for tenant 35 (base-only so far).
		ex := m.Layout.(*FragmentLayout)
		if err := ex.ExtendTenant(m.DB, 35, "AutomotiveAccount"); err != nil {
			t.Fatalf("%s: ExtendTenant: %v", name, err)
		}
		// Existing row reads NULL in the new column.
		rows, err = m.Query(35, "SELECT Name, Dealers FROM Account WHERE Aid = 1")
		if err != nil {
			t.Fatalf("%s: query after extend: %v", name, err)
		}
		if len(rows.Data) != 1 || rows.Data[0][0].Str != "Ball" || !rows.Data[0][1].IsNull() {
			t.Errorf("%s: after extend: %+v", name, rows.Data)
		}
		// And the new column is writable.
		if _, err := m.Exec(35, "UPDATE Account SET Dealers = 8 WHERE Aid = 1"); err != nil {
			t.Fatalf("%s: update new column: %v", name, err)
		}
		rows, _ = m.Query(35, "SELECT Dealers FROM Account WHERE Aid = 1")
		if rows.Data[0][0].Int != 8 {
			t.Errorf("%s: new column value: %v", name, rows.Data[0][0])
		}
		// Every back-filled row is writable, each to its own value
		// (per-row phase (b)), and a second extension stacks on the first.
		if _, err := m.Exec(35, "UPDATE Account SET Dealers = Aid * 10 WHERE Aid > 1"); err != nil {
			t.Fatalf("%s: per-row update of back-filled rows: %v", name, err)
		}
		if err := ex.ExtendTenant(m.DB, 35, "HealthcareAccount"); err != nil {
			t.Fatalf("%s: second ExtendTenant: %v", name, err)
		}
		if _, err := m.Exec(35, "INSERT INTO Account (Aid, Name, Dealers, Hospital, Beds) VALUES (4, 'Bill', 1, 'H', 9)"); err != nil {
			t.Fatalf("%s: insert after extends: %v", name, err)
		}
		if _, err := m.Exec(35, "UPDATE Account SET Beds = Dealers + 1 WHERE Aid < 4"); err != nil {
			t.Fatalf("%s: update across both extensions: %v", name, err)
		}
		if _, err := m.Exec(35, "DELETE FROM Account WHERE Aid = 2"); err != nil {
			t.Fatalf("%s: delete of a back-filled row: %v", name, err)
		}
		got := queryAll(t, m, 35, "SELECT Aid, Name, Dealers, Hospital, Beds FROM Account")
		want := []string{
			"INTEGER:1|VARCHAR:Ball|INTEGER:8|NULL:NULL|INTEGER:9",
			"INTEGER:3|VARCHAR:Bull|INTEGER:30|NULL:NULL|INTEGER:31",
			"INTEGER:4|VARCHAR:Bill|INTEGER:1|VARCHAR:H|INTEGER:9",
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: after two on-line extensions:\ngot  %v\nwant %v", name, got, want)
		}
		// Double-extend must fail.
		if err := ex.ExtendTenant(m.DB, 35, "AutomotiveAccount"); err == nil {
			t.Errorf("%s: double extend should fail", name)
		}
	}
}

// TestTrashcan verifies §6.3's soft-delete mode on the chunk layout.
func TestTrashcan(t *testing.T) {
	schema := paperSchema()
	l, err := NewChunkLayout(schema, ChunkOptions{Trashcan: true})
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(engine.Config{})
	if err := l.Create(db, paperTenants()); err != nil {
		t.Fatal(err)
	}
	m := NewMapper(db, l)
	loadPaperData(t, m)
	res, err := m.Exec(17, "DELETE FROM Account WHERE Aid = 2")
	if err != nil || res.RowsAffected != 1 {
		t.Fatalf("delete: %v %d", err, res.RowsAffected)
	}
	rows, _ := m.Query(17, "SELECT COUNT(*) FROM Account")
	if rows.Data[0][0].Int != 1 {
		t.Errorf("visible count after trashcan delete: %v", rows.Data[0][0])
	}
	// The physical rows survive: restore brings the logical row back.
	if err := l.RestoreRows(db, 17, "Account", []types.Value{types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	rows, _ = m.Query(17, "SELECT COUNT(*) FROM Account")
	if rows.Data[0][0].Int != 2 {
		t.Errorf("count after restore: %v", rows.Data[0][0])
	}
	// Restoring on a non-trashcan layout errors.
	l2, _ := NewChunkLayout(schema, ChunkOptions{})
	if err := l2.RestoreRows(db, 17, "Account", nil); err == nil {
		t.Error("restore without trashcan should fail")
	}
}

// TestFlattenedPredicateOrder checks both WHERE orderings produce
// correct results and actually differ in conjunct order.
func TestFlattenedPredicateOrder(t *testing.T) {
	schema := paperSchema()
	for _, metaFirst := range []bool{false, true} {
		l, err := NewChunkLayout(schema, ChunkOptions{Flattened: true, MetadataFirst: metaFirst})
		if err != nil {
			t.Fatal(err)
		}
		db := engine.Open(engine.Config{})
		if err := l.Create(db, paperTenants()); err != nil {
			t.Fatal(err)
		}
		m := NewMapper(db, l)
		loadPaperData(t, m)
		rows, err := m.Query(17, "SELECT Beds FROM Account WHERE Hospital = 'State'")
		if err != nil || len(rows.Data) != 1 || rows.Data[0][0].Int != 1042 {
			t.Fatalf("metaFirst=%v: %v %+v", metaFirst, err, rows)
		}
		sqls, _ := m.RewriteSQL(17, "SELECT Beds FROM Account WHERE Hospital = 'State'")
		wherePart := sqls[0][strings.Index(sqls[0], "WHERE"):]
		tenantPos := strings.Index(wherePart, "Tenant")
		hospPos := strings.Index(wherePart, "= 'State'") // the user predicate, in physical form
		if metaFirst && tenantPos > hospPos {
			t.Errorf("MetadataFirst ordering wrong: %s", wherePart)
		}
		if !metaFirst && tenantPos < hospPos {
			t.Errorf("SelectiveFirst ordering wrong: %s", wherePart)
		}
	}
}

// TestFlattenedRefusesUnknownColumn: the flat form puts physical tables
// where the nested form has a derived table, so a name no logical table
// provides must fail at rewrite, not resolve against a physical column
// (Int1 and Tenant are ChunkIndexInt's; Hospital is not tenant 35's). An
// ORDER BY key naming an item still resolves.
func TestFlattenedRefusesUnknownColumn(t *testing.T) {
	m := allLayouts(t, paperSchema())["chunk-flat"]
	loadPaperData(t, m)
	for _, q := range []string{
		"SELECT Int1 FROM Account",
		"SELECT Tenant FROM Account",
		"SELECT Hospital FROM Account",
		"SELECT Aid FROM Account WHERE Int1 = 1",
		"SELECT Aid FROM Account ORDER BY Int1",
		"SELECT Aid, COUNT(*) FROM Account GROUP BY Aid HAVING MAX(Int1) > 0",
	} {
		if _, err := m.RewriteSQL(35, q); err == nil || !strings.Contains(err.Error(), "unknown column") {
			t.Errorf("rewrite of %q: %v, want an unknown column", q, err)
		}
		if rows, err := m.Query(35, q); err == nil {
			t.Errorf("%q answered %v", q, rows.Data)
		}
	}
	rows, err := m.Query(35, "SELECT Name AS n FROM Account ORDER BY n")
	if err != nil || len(rows.Data) != 1 {
		t.Errorf("ORDER BY an item's alias: %v %v", err, rows)
	}
}

// TestChunkAssignmentInspection covers Placement, the inspection
// surface over any layout: a chunk tenant's columns and where they went,
// whose placement it is, and an unknown tenant failing.
func TestChunkAssignmentInspection(t *testing.T) {
	schema := paperSchema()
	l, _ := NewChunkLayout(schema, ChunkOptions{})
	db := engine.Open(engine.Config{})
	if err := l.Create(db, paperTenants()); err != nil {
		t.Fatal(err)
	}
	s, err := Placement(l, 17, "Account")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Aid=", "Name=", "Hospital=", "Beds=", "tenant's own", "Tenant = 17 AND Table = 0 AND Chunk = 0"} {
		if !strings.Contains(s, want) {
			t.Errorf("placement lacks %q:\n%s", want, s)
		}
	}
	if _, err := Placement(l, 5, "Account"); err == nil {
		t.Error("unknown tenant placement should fail")
	}
	for _, c := range []struct {
		m      *Mapper
		tenant int64
		want   string
	}{
		{&Mapper{Layout: l}, 35, "Account of tenant 35: shared base placement, 2 fragment(s)"},
		{basicFor(t, schema, paperTenants()), 42, "Account of tenant 42: shared base placement, 1 fragment(s)\n  Account WHERE Tenant = 42 (no Row): Aid=Aid Name=Name\n"},
		{allLayouts(t, schema)["private"], 42, "Account of tenant 42: tenant's own placement, 1 fragment(s)\n  Account_t42 (no Row): Aid=Aid Name=Name Dealers=Dealers\n"},
	} {
		if s, err := Placement(c.m.Layout, c.tenant, "Account"); err != nil || !strings.HasPrefix(s, c.want) {
			t.Errorf("%s: placement %q, %v; want %q", c.m.Layout.Name(), s, err, c.want)
		}
	}
}

// TestBasicLayout covers the no-extensibility baseline.
func TestBasicLayout(t *testing.T) {
	schema := &Schema{Tables: paperSchema().Tables}
	l, err := NewBasicLayout(schema)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(engine.Config{})
	tenants := []*Tenant{{ID: 1}, {ID: 2}}
	if err := l.Create(db, tenants); err != nil {
		t.Fatal(err)
	}
	m := NewMapper(db, l)
	if _, err := m.Exec(1, "INSERT INTO Account (Aid, Name) VALUES (1, 'one')"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exec(2, "INSERT INTO Account (Aid, Name) VALUES (1, 'two')"); err != nil {
		t.Fatal(err)
	}
	rows, err := m.Query(1, "SELECT Name FROM Account WHERE Aid = 1")
	if err != nil || len(rows.Data) != 1 || rows.Data[0][0].Str != "one" {
		t.Fatalf("isolation: %v %+v", err, rows)
	}
	// Star hides the Tenant column.
	rows, _ = m.Query(2, "SELECT * FROM Account")
	if len(rows.Columns) != 2 {
		t.Errorf("basic star: %v", rows.Columns)
	}
	if _, err := m.Exec(1, "UPDATE Account SET Name = 'x' WHERE Aid = 1"); err != nil {
		t.Fatal(err)
	}
	rows, _ = m.Query(2, "SELECT Name FROM Account WHERE Aid = 1")
	if rows.Data[0][0].Str != "two" {
		t.Error("update leaked across tenants")
	}
	if _, err := m.Exec(1, "DELETE FROM Account WHERE Aid = 1"); err != nil {
		t.Fatal(err)
	}
	rows, _ = m.Query(2, "SELECT COUNT(*) FROM Account")
	if rows.Data[0][0].Int != 1 {
		t.Error("delete leaked across tenants")
	}
	// Tenants with extensions are rejected.
	if err := l.AddTenant(db, &Tenant{ID: 3, Extensions: []string{"X"}}); err == nil {
		t.Error("basic layout must reject extensions")
	}
	// Its fragments have no Row: an INSERT draws no logical row ids.
	if n := len(l.st.rowSeq); n != 0 {
		t.Errorf("basic inserts drew row ids for %d tables", n)
	}
}

// TestPrivateRemoveTenant covers the testbed's delete-tenant admin op,
// and a tenant re-added under the same id with an extension: a rewrite
// cached before the removal is stale, so SELECT * answers the new
// table's four columns.
func TestPrivateRemoveTenant(t *testing.T) {
	schema := paperSchema()
	l, _ := NewPrivateLayout(schema)
	db := engine.Open(engine.Config{})
	if err := l.Create(db, paperTenants()); err != nil {
		t.Fatal(err)
	}
	m := NewMapper(db, l)
	queryAll(t, m, 35, "SELECT * FROM Account")
	before := db.Stats().Tables
	if err := l.RemoveTenant(db, 35); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().Tables; got != before-1 {
		t.Errorf("tables after remove: %d -> %d", before, got)
	}
	if _, err := m.Query(35, "SELECT Name FROM Account"); err == nil {
		t.Error("removed tenant should fail")
	}
	if err := l.RemoveTenant(db, 35); err == nil {
		t.Error("double remove should fail")
	}
	if err := l.AddTenant(db, &Tenant{ID: 35, Extensions: []string{"HealthcareAccount"}}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, m, 35, "INSERT INTO Account VALUES (1, 'Ball', 'State', 7)", 1)
	rows, err := m.Query(35, "SELECT * FROM Account")
	if err != nil || len(rows.Columns) != 4 {
		t.Errorf("re-added tenant's SELECT *: %v, %v", rows, err)
	}
}

// TestDateAndFloatThroughLayouts checks type fidelity for the trickier
// kinds (dates via int/string storage, floats via dbl pivots). Score is
// NOT NULL, so in Pivot its fragment is not sparse and joins the key's
// by WHERE beside the LEFT-joined sparse ones.
func TestDateAndFloatThroughLayouts(t *testing.T) {
	schema := &Schema{
		Tables: []*Table{{
			Name: "Event",
			Key:  "Id",
			Columns: []Column{
				{Name: "Id", Type: types.IntType, NotNull: true, Indexed: true},
				{Name: "Day", Type: types.DateType},
				{Name: "Score", Type: types.FloatType, NotNull: true},
				{Name: "Open", Type: types.BoolType},
			},
		}},
	}
	mk := func(name string, l Layout, err error) *Mapper {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		db := engine.Open(engine.Config{})
		if err := l.Create(db, []*Tenant{{ID: 1}}); err != nil {
			t.Fatalf("%s create: %v", name, err)
		}
		return NewMapper(db, l)
	}
	pl, err1 := NewPrivateLayout(schema)
	ul, err2 := NewUniversalLayout(schema, 8)
	pv, err3 := NewPivotLayout(schema)
	ch, err4 := NewChunkLayout(schema, ChunkOptions{})
	for name, m := range map[string]*Mapper{
		"private":   mk("private", pl, err1),
		"universal": mk("universal", ul, err2),
		"pivot":     mk("pivot", pv, err3),
		"chunk":     mk("chunk", ch, err4),
	} {
		if _, err := m.Exec(1, "INSERT INTO Event (Id, Day, Score, Open) VALUES (1, DATE '2008-06-09', 2.5, TRUE)"); err != nil {
			t.Fatalf("%s insert: %v", name, err)
		}
		rows, err := m.Query(1, "SELECT Day, Score, Open FROM Event WHERE Id = 1")
		if err != nil {
			t.Fatalf("%s query: %v", name, err)
		}
		r := rows.Data[0]
		if r[0].Kind != types.KindDate || r[0].String() != "2008-06-09" {
			t.Errorf("%s: date = %v (%v)", name, r[0], r[0].Kind)
		}
		if r[1].Kind != types.KindFloat || r[1].Float() != 2.5 {
			t.Errorf("%s: float = %v (%v)", name, r[1], r[1].Kind)
		}
		if r[2].Kind != types.KindBool || !r[2].Bool() {
			t.Errorf("%s: bool = %v (%v)", name, r[2], r[2].Kind)
		}
		// Date predicate.
		rows, err = m.Query(1, "SELECT Id FROM Event WHERE Day = DATE '2008-06-09'")
		if err != nil || len(rows.Data) != 1 {
			t.Errorf("%s: date predicate: %v %+v", name, err, rows)
		}
	}
}
