package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/types"
)

// exactKeyNeighbours are INTs that a float64 cannot tell apart: each
// group is one float64 once rounded, so an index key or a comparison
// that goes through float64 merges them.
var exactKeyNeighbours = [][]int64{
	{1 << 53, 1<<53 + 1, 1<<53 + 2},
	{-(1<<53 + 2), -(1<<53 + 1), -(1 << 53)},
	{math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 2},
	{math.MaxInt64 - 2, math.MaxInt64 - 1, math.MaxInt64},
}

// idsOf returns the id column (the first) of rows, sorted.
func idsOf(rows *Rows) []int64 {
	var ids []int64
	for _, r := range rows.Data {
		ids = append(ids, r[0].Int)
	}
	slices.Sort(ids)
	return ids
}

// TestIndexKeysExactBeyond2To53 holds a unique and a non-unique index to
// exact INT keys where float64 rounding would merge neighbours: the
// unique index takes every neighbour and refuses only a true duplicate;
// a point lookup through either index returns exactly its row; and a
// range from one neighbour returns exactly those above it.
func TestIndexKeysExactBeyond2To53(t *testing.T) {
	for _, unique := range []bool{false, true} {
		db := Open(Config{})
		mustExec(t, db, "CREATE TABLE big (id INTEGER NOT NULL, tag VARCHAR(40))")
		if unique {
			mustExec(t, db, "CREATE UNIQUE INDEX big_id ON big (id)")
		} else {
			mustExec(t, db, "CREATE INDEX big_id ON big (id)")
		}
		for _, group := range exactKeyNeighbours {
			for _, id := range group {
				if _, err := db.Exec("INSERT INTO big VALUES (?, ?)", types.NewInt(id), types.NewString(fmt.Sprint(id))); err != nil {
					t.Errorf("unique=%v: INSERT %d: %v", unique, id, err)
				}
			}
		}
		if unique {
			for _, group := range exactKeyNeighbours {
				for _, id := range group {
					if _, err := db.Exec("INSERT INTO big VALUES (?, 'dup')", types.NewInt(id)); err == nil {
						t.Errorf("unique index took %d twice", id)
					}
				}
			}
		}
		ex, err := db.Explain("SELECT id, tag FROM big WHERE id = ?", types.NewInt(1<<53+1))
		if err != nil || !strings.Contains(ex, "IXSCAN") {
			t.Fatalf("unique=%v: point lookup does not use the index (%v):\n%s", unique, err, ex)
		}
		for _, group := range exactKeyNeighbours {
			for i, id := range group {
				rows := mustQuery(t, db, "SELECT id, tag FROM big WHERE id = ?", types.NewInt(id))
				if len(rows.Data) != 1 || rows.Data[0][0].Int != id || rows.Data[0][1].Str != fmt.Sprint(id) {
					t.Errorf("unique=%v: WHERE id = %d returned %v", unique, id, rows.Data)
				}
				rows = mustQuery(t, db, "SELECT id FROM big WHERE id > ?", types.NewInt(id))
				var want []int64
				for _, g := range exactKeyNeighbours {
					for _, other := range g {
						if other > id {
							want = append(want, other)
						}
					}
				}
				slices.Sort(want)
				if got := idsOf(rows); !slices.Equal(got, want) {
					t.Errorf("unique=%v: WHERE id > %d (neighbour %d) returned %v, want %v", unique, id, i, got, want)
				}
			}
		}
		// The literal form reaches the same key as the parameter.
		rows := mustQuery(t, db, "SELECT id FROM big WHERE id = 9007199254740993")
		if got := idsOf(rows); !slices.Equal(got, []int64{9007199254740993}) {
			t.Errorf("unique=%v: WHERE id = 9007199254740993 returned %v", unique, got)
		}
		rows = mustQuery(t, db, "SELECT id FROM big WHERE id > 9007199254740992 AND id < 9007199254740995")
		if got := idsOf(rows); !slices.Equal(got, []int64{9007199254740993, 9007199254740994}) {
			t.Errorf("unique=%v: 2^53 < id < 2^53+3 returned %v", unique, got)
		}
	}
}

// TestIndexKeysSignedZero holds FLOAT index keys to Compare, which calls
// -0.0 and 0.0 equal: a unique index refuses the second of them, and
// through a non-unique index an equality with either zero, FLOAT or
// INT, returns every zero row.
func TestIndexKeysSignedZero(t *testing.T) {
	negZero := types.NewFloat(math.Copysign(0, -1))
	db := Open(Config{})
	mustExec(t, db, "CREATE TABLE u (x DOUBLE, tag VARCHAR(10))")
	mustExec(t, db, "CREATE UNIQUE INDEX u_x ON u (x)")
	mustExec(t, db, "INSERT INTO u VALUES (0.0, 'pos')")
	if _, err := db.Exec("INSERT INTO u VALUES (?, 'neg')", negZero); err == nil {
		t.Error("unique index took -0.0 after 0.0")
	}
	if _, err := db.Exec("INSERT INTO u VALUES (0, 'int')"); err == nil {
		t.Error("unique index took INT 0 after 0.0")
	}

	mustExec(t, db, "CREATE TABLE n (x DOUBLE, tag VARCHAR(10))")
	mustExec(t, db, "CREATE INDEX n_x ON n (x)")
	mustExec(t, db, "INSERT INTO n VALUES (0.0, 'pos'), (1.0, 'one'), (-1.0, 'minus')")
	mustExec(t, db, "INSERT INTO n VALUES (?, 'neg')", negZero)
	ex, err := db.Explain("SELECT tag FROM n WHERE x = 0.0")
	if err != nil || !strings.Contains(ex, "IXSCAN") {
		t.Fatalf("zero lookup does not use the index (%v):\n%s", err, ex)
	}
	for _, q := range []struct {
		sql    string
		params []types.Value
	}{
		{"SELECT tag FROM n WHERE x = 0.0", nil},
		{"SELECT tag FROM n WHERE x = 0", nil},
		{"SELECT tag FROM n WHERE x = ?", []types.Value{negZero}},
		{"SELECT tag FROM n WHERE x >= ? AND x <= 0.0", []types.Value{negZero}},
	} {
		rows := mustQuery(t, db, q.sql, q.params...)
		var tags []string
		for _, r := range rows.Data {
			tags = append(tags, r[0].Str)
		}
		slices.Sort(tags)
		if !slices.Equal(tags, []string{"neg", "pos"}) {
			t.Errorf("%s %v: returned %v, want [neg pos]", q.sql, q.params, tags)
		}
	}
}

// TestIndexKeysNaN holds a scan and an index to one answer around NaN.
// Compare orders NaN as its key does, PostgreSQL's way: equal to NaN
// (whatever its bits) and above every other number, +Inf included.
func TestIndexKeysNaN(t *testing.T) {
	nan := types.NewFloat(math.NaN())
	otherNaN := types.NewFloat(math.Float64frombits(0xFFF8000000000001))
	for _, q := range []struct {
		sql    string
		params []types.Value
		want   []int64
	}{
		{"SELECT id FROM g WHERE x = 5", nil, []int64{2}},
		{"SELECT id FROM g WHERE x > 4", nil, []int64{1, 2}},
		{"SELECT id FROM g WHERE x < 4", nil, nil},
		{"SELECT id FROM g WHERE x = ?", []types.Value{otherNaN}, []int64{1}},
		{"SELECT id FROM g WHERE x > ?", []types.Value{types.NewFloat(math.Inf(1))}, []int64{1}},
		{"SELECT id FROM g WHERE x >= ?", []types.Value{nan}, []int64{1}},
	} {
		for _, indexed := range []bool{false, true} {
			db := Open(Config{})
			mustExec(t, db, "CREATE TABLE g (id INTEGER, x DOUBLE)")
			if indexed {
				mustExec(t, db, "CREATE INDEX g_x ON g (x)")
			}
			mustExec(t, db, "INSERT INTO g VALUES (1, ?), (2, 5.0)", nan)
			ex, err := db.Explain(q.sql, q.params...)
			if err != nil || strings.Contains(ex, "IXSCAN") != indexed {
				t.Fatalf("indexed=%v: %s plans (%v):\n%s", indexed, q.sql, err, ex)
			}
			if got := idsOf(mustQuery(t, db, q.sql, q.params...)); !slices.Equal(got, q.want) {
				t.Errorf("indexed=%v: %s %v returned %v, want %v", indexed, q.sql, q.params, got, q.want)
			}
		}
	}
	if h := types.Hash(otherNaN); h != types.Hash(nan) || !types.Equal(otherNaN, nan) {
		t.Errorf("two NaNs: Equal %v, hashes %x and %x", types.Equal(otherNaN, nan), h, types.Hash(nan))
	}
}
