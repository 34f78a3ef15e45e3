package types

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindBool: "BOOLEAN", KindInt: "INTEGER",
		KindFloat: "DOUBLE", KindString: "VARCHAR", KindDate: "DATE",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
		{NewInt(-42), "-42"},
		{NewFloat(2.5), "2.5"},
		{NewString("hi"), "hi"},
		{DateFromTime(time.Date(2008, 6, 9, 0, 0, 0, 0, time.UTC)), "2008-06-09"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Kind, got, c.want)
		}
	}
}

func TestSQLLiteral(t *testing.T) {
	if got := NewString("O'Brien").SQLLiteral(); got != "'O''Brien'" {
		t.Errorf("SQLLiteral = %q", got)
	}
	if got := Null().SQLLiteral(); got != "NULL" {
		t.Errorf("SQLLiteral NULL = %q", got)
	}
	if got := NewInt(7).SQLLiteral(); got != "7" {
		t.Errorf("SQLLiteral int = %q", got)
	}
	if got := NewDate(0).SQLLiteral(); got != "DATE '1970-01-01'" {
		t.Errorf("SQLLiteral date = %q", got)
	}
}

func TestCompareSameKind(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewFloat(1.5), NewFloat(2.5), -1},
		{NewBool(false), NewBool(true), -1},
		{NewDate(10), NewDate(20), -1},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("Compare(%v,%v) = %d,%v want %d", c.a, c.b, got, err, c.want)
		}
	}
}

func TestCompareNullLowest(t *testing.T) {
	for _, v := range []Value{NewInt(math.MinInt64), NewString(""), NewBool(false), NewFloat(math.Inf(-1))} {
		if c, _ := Compare(Null(), v); c != -1 {
			t.Errorf("NULL should sort below %v", v)
		}
		if c, _ := Compare(v, Null()); c != 1 {
			t.Errorf("%v should sort above NULL", v)
		}
	}
	if c, _ := Compare(Null(), Null()); c != 0 {
		t.Error("NULL vs NULL should compare equal for ordering")
	}
}

func TestCompareNumericCoercion(t *testing.T) {
	if c, err := Compare(NewInt(2), NewFloat(2.0)); err != nil || c != 0 {
		t.Errorf("2 vs 2.0: %d %v", c, err)
	}
	if c, err := Compare(NewInt(2), NewFloat(2.5)); err != nil || c != -1 {
		t.Errorf("2 vs 2.5: %d %v", c, err)
	}
	// Exact, with no rounding of the INT to a float64: the keys order
	// these pairs the same way.
	cases := []struct {
		i    int64
		f    float64
		want int
	}{
		{1<<53 + 1, 1 << 53, 1},
		{1 << 53, 1<<53 + 2, -1},
		{-(1<<53 + 1), -(1 << 53), -1},
		{math.MaxInt64, 1 << 63, -1},
		{math.MaxInt64, 0x1p63 - 1024, 1},
		{math.MinInt64, -(1 << 63), 0},
		{math.MinInt64 + 1, -(1 << 63), 1},
		{math.MinInt64, math.Inf(-1), 1},
		{math.MaxInt64, math.Inf(1), -1},
		{0, math.Copysign(0, -1), 0},
		{-1, -0.5, -1},
		{0, 5e-324, -1},
		{3, 2.999999999999999, 1},
	}
	for _, c := range cases {
		if got, err := Compare(NewInt(c.i), NewFloat(c.f)); err != nil || got != c.want {
			t.Errorf("Compare(%d, %v) = %d, %v; want %d", c.i, c.f, got, err, c.want)
		}
		if got, err := Compare(NewFloat(c.f), NewInt(c.i)); err != nil || got != -c.want {
			t.Errorf("Compare(%v, %d) = %d, %v; want %d", c.f, c.i, got, err, -c.want)
		}
	}
}

func TestCompareMixedError(t *testing.T) {
	if _, err := Compare(NewInt(1), NewString("1")); err == nil {
		t.Error("expected error comparing INT with VARCHAR")
	}
	if _, err := Compare(NewDate(1), NewBool(true)); err == nil {
		t.Error("expected error comparing DATE with BOOLEAN")
	}
}

func TestCast(t *testing.T) {
	cases := []struct {
		v    Value
		to   Kind
		want Value
	}{
		{NewString("42"), KindInt, NewInt(42)},
		{NewInt(42), KindString, NewString("42")},
		{NewFloat(2.9), KindInt, NewInt(2)},
		{NewString("2.5"), KindFloat, NewFloat(2.5)},
		{NewString("2008-06-09"), KindDate, DateFromTime(time.Date(2008, 6, 9, 0, 0, 0, 0, time.UTC))},
		{NewDate(100), KindString, NewString("1970-04-11")},
		{Null(), KindInt, Null()},
		{NewInt(1), KindBool, NewBool(true)},
		{NewString("true"), KindBool, NewBool(true)},
	}
	for _, c := range cases {
		got, err := Cast(c.v, c.to)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("Cast(%v, %v) = %v, %v; want %v", c.v, c.to, got, err, c.want)
		}
	}
	if _, err := Cast(NewString("abc"), KindInt); err == nil {
		t.Error("expected error casting 'abc' to INTEGER")
	}
	if _, err := Cast(NewString("nope"), KindDate); err == nil {
		t.Error("expected error casting 'nope' to DATE")
	}
}

func TestColumnTypeString(t *testing.T) {
	if got := VarcharType(100).String(); got != "VARCHAR(100)" {
		t.Errorf("VarcharType = %q", got)
	}
	if got := IntType.String(); got != "INTEGER" {
		t.Errorf("IntType = %q", got)
	}
}

// randomValue generates an arbitrary Value for property tests: INT and
// FLOAT over their whole bit range (NaN, infinities and subnormals
// included), half of them small so that equal and adjacent numbers meet.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(6) {
	case 0:
		return Null()
	case 1:
		return NewBool(r.Intn(2) == 1)
	case 2:
		if r.Intn(2) == 0 {
			return NewInt(int64(r.Intn(41) - 20))
		}
		return NewInt(int64(r.Uint64()))
	case 3:
		if r.Intn(2) == 0 { // quarters in [-5, 5], -0 and +0 both
			return NewFloat(math.Copysign(float64(r.Intn(21))/4, float64(1-2*r.Intn(2))))
		}
		return NewFloat(math.Float64frombits(r.Uint64()))
	case 4:
		n := r.Intn(20)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(256)) // includes NUL bytes
		}
		return NewString(string(b))
	default:
		return NewDate(int64(r.Intn(40000) - 20000))
	}
}

func TestKeyEncodingOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomValue(r), randomValue(r)
		cmp, err := Compare(a, b)
		if err != nil {
			return true // mixed incomparable kinds don't share index columns
		}
		return bytes.Compare(EncodeKey(nil, a), EncodeKey(nil, b)) == cmp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestKeyEncodingStringPrefix(t *testing.T) {
	// "ab" < "ab\x00" < "ab\x01" must hold after encoding.
	a := EncodeKey(nil, NewString("ab"))
	b := EncodeKey(nil, NewString("ab\x00"))
	c := EncodeKey(nil, NewString("ab\x01"))
	if !(bytes.Compare(a, b) < 0 && bytes.Compare(b, c) < 0) {
		t.Errorf("NUL-escape ordering broken: %x %x %x", a, b, c)
	}
}

func TestRowRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(30)
		row := make([]Value, n)
		for i := range row {
			row[i] = randomValue(r)
		}
		enc := EncodeRow(nil, row)
		dec, err := DecodeRow(enc)
		if err != nil {
			return false
		}
		if len(dec) != len(row) {
			return false
		}
		for i := range row {
			if dec[i].Kind != row[i].Kind || !Equal(dec[i], row[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRowCorrupt(t *testing.T) {
	row := []Value{NewInt(1), NewString("hello")}
	enc := EncodeRow(nil, row)
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeRow(enc[:cut]); err == nil {
			// Some prefixes decode as shorter valid rows only if the count
			// matches; with our format the count is fixed so any truncation
			// must error.
			t.Errorf("truncation at %d silently accepted", cut)
		}
	}
	if _, err := DecodeRow([]byte{}); err == nil {
		t.Error("empty buffer should error")
	}
	if _, err := DecodeRow([]byte{1, 99}); err == nil {
		t.Error("bad kind byte should error")
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	if Hash(NewInt(2)) != Hash(NewFloat(2.0)) {
		t.Error("INT 2 and FLOAT 2.0 must hash identically")
	}
	if Hash(NewFloat(math.Copysign(0, -1))) != Hash(NewFloat(0)) || Hash(NewFloat(0)) != Hash(NewInt(0)) {
		t.Error("-0.0, 0.0 and INT 0 must hash identically")
	}
	if Hash(NewString("a")) == Hash(NewString("b")) {
		t.Error("different strings should (overwhelmingly) hash differently")
	}
	a := HashRow([]Value{NewInt(1), NewString("x")})
	b := HashRow([]Value{NewInt(1), NewString("x")})
	if a != b {
		t.Error("HashRow must be deterministic")
	}
}

func TestDateRoundTrip(t *testing.T) {
	d := time.Date(2008, 6, 12, 0, 0, 0, 0, time.UTC)
	v := DateFromTime(d)
	if !v.Time().Equal(d) {
		t.Errorf("date round trip: got %v want %v", v.Time(), d)
	}
}
