package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/types"
)

func affinitySchema() *Schema {
	return &Schema{
		Tables: []*Table{{
			Name: "Wide",
			Key:  "Id",
			Columns: []Column{
				{Name: "Id", Type: types.IntType, NotNull: true, Indexed: true},
				{Name: "A", Type: types.IntType},
				{Name: "B", Type: types.IntType},
				{Name: "C", Type: types.IntType},
				{Name: "D", Type: types.IntType},
				{Name: "E", Type: types.IntType},
				{Name: "F", Type: types.IntType},
			},
		}},
	}
}

func TestAffinityOrdering(t *testing.T) {
	s := affinitySchema()
	af := NewAffinity(s)
	tn := &Tenant{ID: 1}
	// A and F are always queried together.
	for i := 0; i < 10; i++ {
		if err := af.ObserveSQL(tn, "SELECT A, F FROM Wide WHERE Id = 1"); err != nil {
			t.Fatal(err)
		}
	}
	cols, _ := s.LogicalColumns(tn, "Wide")
	ordered := af.OrderColumns("Wide", cols)
	posA, posF := -1, -1
	for i, c := range ordered {
		switch c.Name {
		case "A":
			posA = i
		case "F":
			posF = i
		}
	}
	if d := posA - posF; d != 1 && d != -1 {
		t.Errorf("A and F should be adjacent, positions %d and %d", posA, posF)
	}
	// Without statistics, order is unchanged.
	empty := NewAffinity(s)
	same := empty.OrderColumns("Wide", cols)
	for i := range cols {
		if same[i].Name != cols[i].Name {
			t.Errorf("no-stats ordering changed at %d", i)
		}
	}
}

// TestAffinityReducesChunks checks the end-to-end payoff: with
// workload-aware assignment, the hot column pair lands in one chunk,
// cutting an aligning join out of the reconstruction.
func TestAffinityReducesChunks(t *testing.T) {
	s := affinitySchema()
	defs := []*ChunkTableDef{
		{Name: "CIdx", Cols: []types.ColumnType{types.IntType}, ValueIndex: true},
		{Name: "C2", Cols: []types.ColumnType{types.IntType, types.IntType}},
	}
	hot := "SELECT A, F FROM Wide WHERE Id = 1"
	tn := &Tenant{ID: 1}

	countChunks := func(af *Affinity) int {
		l, err := NewChunkLayout(s, ChunkOptions{Defs: defs, Affinity: af})
		if err != nil {
			t.Fatal(err)
		}
		db := engine.Open(engine.Config{})
		if err := l.Create(db, []*Tenant{{ID: 1}}); err != nil {
			t.Fatal(err)
		}
		p, err := l.st.placement(1, s.Table("Wide"))
		if err != nil {
			t.Fatal(err)
		}
		a, _ := p.slot("a")
		f, _ := p.slot("f")
		fA, fF := a.frag, f.frag
		if fA == nil || fF == nil {
			t.Fatal("columns unassigned")
		}
		if fA == fF {
			return 1
		}
		return 2
	}

	if n := countChunks(nil); n != 2 {
		t.Errorf("declaration-order assignment should split A and F (got %d chunk(s))", n)
	}
	af := NewAffinity(s)
	for i := 0; i < 5; i++ {
		if err := af.ObserveSQL(tn, hot); err != nil {
			t.Fatal(err)
		}
	}
	if n := countChunks(af); n != 1 {
		t.Errorf("workload-aware assignment should co-locate A and F (got %d chunk(s))", n)
	}
}

func TestAffinityEndToEnd(t *testing.T) {
	s := affinitySchema()
	af := NewAffinity(s)
	tn := &Tenant{ID: 1}
	for i := 0; i < 5; i++ {
		if err := af.ObserveSQL(tn, "SELECT A, F FROM Wide"); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewChunkLayout(s, ChunkOptions{Affinity: af})
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(engine.Config{})
	if err := l.Create(db, []*Tenant{{ID: 1}}); err != nil {
		t.Fatal(err)
	}
	m := NewMapper(db, l)
	if _, err := m.Exec(1, "INSERT INTO Wide VALUES (1, 10, 20, 30, 40, 50, 60)"); err != nil {
		t.Fatal(err)
	}
	rows, err := m.Query(1, "SELECT A, F FROM Wide WHERE Id = 1")
	if err != nil || rows.Data[0][0].Int != 10 || rows.Data[0][1].Int != 60 {
		t.Fatalf("query under affinity assignment: %v %+v", err, rows)
	}
}

func TestAffinityErrors(t *testing.T) {
	s := affinitySchema()
	af := NewAffinity(s)
	tn := &Tenant{ID: 1}
	if err := af.ObserveSQL(tn, "UPDATE Wide SET A = 1"); err == nil {
		t.Error("non-SELECT should be rejected")
	}
	if err := af.ObserveSQL(tn, "SELECT x FROM NoSuch"); err == nil {
		t.Error("unknown table should be rejected")
	}
}
