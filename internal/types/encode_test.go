package types

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDecodeRowIntoReusesBuffer(t *testing.T) {
	rowA := []Value{NewInt(1), NewString("alpha"), NewFloat(2.5)}
	rowB := []Value{NewInt(2), NewString("beta"), NewFloat(3.5)}
	encA := EncodeRow(nil, rowA)
	encB := EncodeRow(nil, rowB)

	buf, err := DecodeRowInto(nil, encA, len(rowA))
	if err != nil {
		t.Fatal(err)
	}
	for i := range rowA {
		if !Equal(buf[i], rowA[i]) {
			t.Fatalf("col %d: got %v want %v", i, buf[i], rowA[i])
		}
	}
	first := &buf[0]
	buf, err = DecodeRowInto(buf, encB, len(rowB))
	if err != nil {
		t.Fatal(err)
	}
	if &buf[0] != first {
		t.Error("second decode did not reuse the buffer's backing array")
	}
	for i := range rowB {
		if !Equal(buf[i], rowB[i]) {
			t.Fatalf("col %d after reuse: got %v want %v", i, buf[i], rowB[i])
		}
	}
}

func TestDecodeRowIntoPadsToWidth(t *testing.T) {
	// Rows written before ALTER TABLE ADD COLUMN are shorter on disk.
	enc := EncodeRow(nil, []Value{NewInt(7)})
	row, err := DecodeRowInto(nil, enc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(row) != 4 {
		t.Fatalf("width = %d, want 4", len(row))
	}
	for i := 1; i < 4; i++ {
		if !row[i].IsNull() {
			t.Errorf("pad col %d = %v, want NULL", i, row[i])
		}
	}
}

func TestDecodeRowPartial(t *testing.T) {
	row := []Value{NewInt(10), NewString("skip-me"), NewBool(true), NewFloat(1.5), NewDate(100)}
	enc := EncodeRow(nil, row)

	need := []bool{true, false, false, true, false}
	got, decoded, skipped, err := DecodeRowPartial(nil, enc, need, len(row))
	if err != nil {
		t.Fatal(err)
	}
	if decoded != 2 {
		t.Errorf("decoded = %d, want 2", decoded)
	}
	if skipped != 3 {
		t.Errorf("skipped = %d, want 3", skipped)
	}
	if len(got) != len(row) {
		t.Fatalf("width = %d, want %d", len(got), len(row))
	}
	for i := range row {
		if need[i] {
			if !Equal(got[i], row[i]) {
				t.Errorf("needed col %d = %v, want %v", i, got[i], row[i])
			}
		} else if !got[i].IsNull() {
			t.Errorf("pruned col %d = %v, want NULL", i, got[i])
		}
	}
}

func TestDecodeRowPartialNilNeedDecodesAll(t *testing.T) {
	row := []Value{NewInt(1), NewString("x")}
	enc := EncodeRow(nil, row)
	got, decoded, skipped, err := DecodeRowPartial(nil, enc, nil, len(row))
	if err != nil {
		t.Fatal(err)
	}
	if decoded != 2 || skipped != 0 {
		t.Errorf("decoded/skipped = %d/%d, want 2/0", decoded, skipped)
	}
	for i := range row {
		if !Equal(got[i], row[i]) {
			t.Errorf("col %d = %v, want %v", i, got[i], row[i])
		}
	}
}

func TestDecodeRowPartialEarlyExit(t *testing.T) {
	// Only column 0 needed: the decoder must stop walking the record and
	// report every later stored value as skipped.
	row := []Value{NewInt(1), NewString("a"), NewString("b"), NewString("c")}
	enc := EncodeRow(nil, row)
	got, decoded, skipped, err := DecodeRowPartial(nil, enc, []bool{true}, len(row))
	if err != nil {
		t.Fatal(err)
	}
	if decoded != 1 || skipped != 3 {
		t.Errorf("decoded/skipped = %d/%d, want 1/3", decoded, skipped)
	}
	if !Equal(got[0], row[0]) {
		t.Errorf("col 0 = %v, want %v", got[0], row[0])
	}
	for i := 1; i < len(got); i++ {
		if !got[i].IsNull() {
			t.Errorf("col %d = %v, want NULL", i, got[i])
		}
	}
}

func TestDecodeRowPartialSkipCorrupt(t *testing.T) {
	// Truncation inside a needed column must still error even when
	// earlier columns were skipped rather than decoded.
	row := []Value{NewString("hello"), NewInt(42)}
	enc := EncodeRow(nil, row)
	need := []bool{false, true}
	for cut := 1; cut < len(enc); cut++ {
		if _, _, _, err := DecodeRowPartial(nil, enc[:cut], need, len(row)); err == nil {
			t.Errorf("truncation at %d silently accepted", cut)
		}
	}
}

// TestDecodeRowPartialProperty checks that a partial decode agrees with
// a full decode on every needed column and returns NULL elsewhere, for
// random rows and random need masks.
func TestDecodeRowPartialProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(25)
		row := make([]Value, n)
		need := make([]bool, n)
		for i := range row {
			row[i] = randomValue(r)
			need[i] = r.Intn(2) == 0
		}
		enc := EncodeRow(nil, row)
		full, err := DecodeRow(enc)
		if err != nil {
			return false
		}
		part, decoded, skipped, err := DecodeRowPartial(nil, enc, need, n)
		if err != nil || len(part) != n || decoded+skipped != n {
			return false
		}
		for i := range row {
			if need[i] {
				if part[i].Kind != full[i].Kind || !Equal(part[i], full[i]) {
					return false
				}
			} else if !part[i].IsNull() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// fuzzValue builds a key value from a fuzzed kind and 64-bit pattern:
// an INT, a FLOAT (NaN, ±Inf and subnormals included), a DATE, or a
// string of up to eight of the pattern's bytes, NULs included.
func fuzzValue(kind byte, x uint64) Value {
	switch kind % 4 {
	case 0:
		return NewInt(int64(x))
	case 1:
		return NewFloat(math.Float64frombits(x))
	case 2:
		return NewDate(int64(x))
	}
	b := make([]byte, int(kind/4)%9)
	for i := range b {
		b[i] = byte(x >> (8 * i))
	}
	return NewString(string(b))
}

// exactNumber is v as an exact big.Float, for INT and non-NaN FLOAT.
func exactNumber(v Value) (*big.Float, bool) {
	switch {
	case v.Kind == KindInt:
		return new(big.Float).SetInt64(v.Int), true
	case v.Kind == KindFloat && !math.IsNaN(v.Float()):
		return new(big.Float).SetFloat64(v.Float()), true
	}
	return nil, false
}

// FuzzEncodeKeyOrder holds EncodeKey to Compare: two values, each
// followed by a second key column, make composite keys that order as
// Compare orders the first values whenever those differ, and the first
// values' keys are one byte string exactly when Compare calls them
// equal (NaN included: equal to NaN, above +Inf). Compare itself is
// held to exact arithmetic wherever both values are non-NaN numbers.
func FuzzEncodeKeyOrder(f *testing.F) {
	// INTs and their FLOAT twins, the edges of exactness, and pairs
	// whose encodings are one's a prefix of the other's but for a
	// continuation bit, the longer going on with a byte that sorts below
	// any tag (2^14 and 2^14+1; 24576 = 1.1b × 2^14 and 24577; 1.5 and
	// 1.5 + 2^-15).
	seeds := []Value{
		NewInt(0), NewInt(1), NewInt(-1), NewInt(16384), NewInt(16385),
		NewInt(24576), NewInt(24577), NewInt(-24577),
		NewInt(1<<53 - 1), NewInt(1<<53 + 1), NewInt(-(1<<53 - 1)), NewInt(-(1<<53 + 1)),
		NewInt(math.MinInt64), NewInt(math.MaxInt64),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(0.5), NewFloat(5e-324),
		NewFloat(24576), NewFloat(24577), NewFloat(-24577), NewFloat(1<<53 - 1), NewFloat(1 << 53),
		NewFloat(1.5), NewFloat(1.5 + 0x1p-15), NewFloat(-1), NewFloat(math.Inf(1)),
		NewFloat(math.NaN()), NewFloat(math.Float64frombits(0xFFF8000000000001)),
	}
	kindOf := map[Kind]byte{KindInt: 0, KindFloat: 1}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(kindOf[a.Kind], uint64(a.Int), kindOf[b.Kind], uint64(b.Int), byte(3), uint64(0), byte(0), uint64(1))
		}
	}
	f.Add(byte(2), uint64(1<<63), byte(2), uint64(1<<63-1), byte(1), uint64(0), byte(3+4*2), uint64(0x0100))
	f.Add(byte(3+4*3), uint64(0x00_61_61), byte(3+4*2), uint64(0x61_61), byte(0), uint64(5), byte(0), uint64(5))
	f.Fuzz(func(t *testing.T, ka byte, xa uint64, kb byte, xb uint64, ka2 byte, xa2 uint64, kb2 byte, xb2 uint64) {
		a, b := fuzzValue(ka, xa), fuzzValue(kb, xb)
		c, err := Compare(a, b)
		if err != nil {
			return
		}
		if x, ok := exactNumber(a); ok {
			if y, ok := exactNumber(b); ok && x.Cmp(y) != c {
				t.Fatalf("Compare(%v, %v) = %d, exact %d", a, b, c, x.Cmp(y))
			}
		}
		first := bytes.Compare(EncodeKey(nil, a), EncodeKey(nil, b))
		if (first == 0) != (c == 0) {
			t.Fatalf("Compare(%v, %v) = %d but their keys compare %d", a, b, c, first)
		}
		if c == 0 {
			return
		}
		keyA := EncodeKey(EncodeKey(nil, a), fuzzValue(ka2, xa2))
		keyB := EncodeKey(EncodeKey(nil, b), fuzzValue(kb2, xb2))
		if got := bytes.Compare(keyA, keyB); got != c {
			t.Fatalf("Compare(%v, %v) = %d but composite keys %x, %x compare %d", a, b, c, keyA, keyB, got)
		}
	})
}
