package types_test

import (
	"bytes"
	"math"
	"testing"
	"unsafe"

	"repro/internal/protocol"
	"repro/internal/types"
)

// TestValueLayout guards the 32-byte Value: a DOUBLE lives in the Int
// field as its IEEE bits, and every edge of the float line comes back
// bit for bit from a page record (EncodeRow, DecodeRowPartial) and from
// the wire, sorts by EncodeKey as Compare orders it, and hashes like
// the INTEGER it equals.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(types.Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(types.Value{}) = %d, want 32", got)
	}
	floats := []float64{math.Inf(-1), -math.MaxFloat64, -1.5, -math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 0x1p-1022 / 2, 1.5, math.MaxFloat64, math.Inf(1), math.NaN()}
	row := make([]types.Value, len(floats))
	for i, f := range floats {
		row[i] = types.NewFloat(f)
		if got := row[i].Float(); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("NewFloat(%v).Float() = %v", f, got)
		}
	}
	same := func(what string, got []types.Value) {
		t.Helper()
		if len(got) != len(row) {
			t.Fatalf("%s: %d values, want %d", what, len(got), len(row))
		}
		for i, v := range got {
			if v.Kind != types.KindFloat || math.Float64bits(v.Float()) != math.Float64bits(floats[i]) {
				t.Errorf("%s: value %d is %v (kind %s), want %v", what, i, v, v.Kind, floats[i])
			}
		}
	}
	dec, _, _, err := types.DecodeRowPartial(nil, types.EncodeRow(nil, row), nil, len(row))
	if err != nil {
		t.Fatal(err)
	}
	same("EncodeRow/DecodeRowPartial", dec)
	msg, err := protocol.Decode(protocol.Encode(&protocol.RowBatch{Rows: [][]types.Value{row}}))
	if err != nil {
		t.Fatal(err)
	}
	same("wire RowBatch", msg.(*protocol.RowBatch).Rows[0])

	// Keys strictly increase along the ordered line, NaN last, except
	// that -0 and +0, which Compare calls equal, share one key: Compare
	// never disagrees.
	for i := 0; i+1 < len(row); i++ {
		a, b := row[i], row[i+1]
		want := -1
		if a.Float() == 0 && b.Float() == 0 {
			want = 0
		}
		if c, err := types.Compare(a, b); err != nil || c != want {
			t.Errorf("Compare(%v, %v) = %d, %v, want %d", a, b, c, err, want)
		}
		if k := bytes.Compare(types.EncodeKey(nil, a), types.EncodeKey(nil, b)); k != want {
			t.Errorf("EncodeKey(%v) vs EncodeKey(%v) = %d, want %d", a, b, k, want)
		}
	}
	if types.Hash(types.NewInt(2)) != types.Hash(types.NewFloat(2)) {
		t.Error("Hash(NewInt(2)) != Hash(NewFloat(2))")
	}
	if types.Hash(row[4]) != types.Hash(row[5]) {
		t.Error("Hash(-0) != Hash(+0)")
	}
}
