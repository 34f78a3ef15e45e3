// Package types defines the value model shared by the storage engine,
// the SQL layer, and the schema-mapping layer: typed scalar values,
// comparison with numeric coercion, order-preserving key encoding for
// B+tree indexes, and compact row serialization for slotted pages.
package types

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind enumerates the runtime types a Value can hold.
type Kind uint8

const (
	// KindNull is the SQL NULL marker; it compares below every other value.
	KindNull Kind = iota
	// KindBool holds a boolean, stored in the Int field as 0 or 1.
	KindBool
	// KindInt holds a 64-bit signed integer.
	KindInt
	// KindFloat holds a 64-bit IEEE float, its bits stored in the Int
	// field (read it with Value.Float).
	KindFloat
	// KindString holds an immutable UTF-8 string.
	KindString
	// KindDate holds a calendar date as days since 1970-01-01 (Int field).
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindDate:
		return "DATE"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a dynamically typed SQL scalar. The zero Value is NULL.
// It is 32 bytes: every payload but a string's shares Int, so the rows
// that batches, joins and results copy stay four words a value.
type Value struct {
	Kind Kind
	Int  int64 // INT payload; BOOL as 0/1; DATE as days since epoch; DOUBLE as IEEE bits
	Str  string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{Kind: KindNull} }

// NewInt returns an INTEGER value.
func NewInt(v int64) Value { return Value{Kind: KindInt, Int: v} }

// NewFloat returns a DOUBLE value.
func NewFloat(v float64) Value { return Value{Kind: KindFloat, Int: int64(math.Float64bits(v))} }

// NewString returns a VARCHAR value.
func NewString(v string) Value { return Value{Kind: KindString, Str: v} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	i := int64(0)
	if v {
		i = 1
	}
	return Value{Kind: KindBool, Int: i}
}

// NewDate returns a DATE value from days since 1970-01-01.
func NewDate(days int64) Value { return Value{Kind: KindDate, Int: days} }

// DateFromTime returns the DATE value for the calendar day of t (UTC).
func DateFromTime(t time.Time) Value {
	t = t.UTC()
	days := t.Unix() / 86400
	return NewDate(days)
}

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Bool returns the boolean payload; only meaningful for KindBool. A
// DOUBLE, whose Int holds float bits, is never true here.
func (v Value) Bool() bool { return v.Int != 0 && v.Kind != KindFloat }

// Float returns the DOUBLE payload; only meaningful for KindFloat.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.Int)) }

// Time returns the time.Time at UTC midnight for a DATE value.
func (v Value) Time() time.Time { return time.Unix(v.Int*86400, 0).UTC() }

// String renders the value the way the SQL layer prints result cells.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.Int != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindString:
		return v.Str
	case KindDate:
		return v.Time().Format("2006-01-02")
	}
	return fmt.Sprintf("<bad kind %d>", v.Kind)
}

// SQLLiteral renders the value as a SQL literal suitable for embedding
// in generated statements (the query-transformation layer uses this).
func (v Value) SQLLiteral() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindBool, KindInt:
		return v.String()
	case KindFloat: // a point and no exponent: it reads back as a DOUBLE
		if f := v.Float(); f == math.Trunc(f) && !math.IsInf(f, 0) {
			return strconv.FormatFloat(f, 'f', 1, 64)
		}
		return strconv.FormatFloat(v.Float(), 'f', -1, 64)
	case KindString:
		return "'" + escapeSQLString(v.Str) + "'"
	case KindDate:
		return "DATE '" + v.Time().Format("2006-01-02") + "'"
	}
	return "NULL"
}

func escapeSQLString(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			out = append(out, '\'', '\'')
		} else {
			out = append(out, s[i])
		}
	}
	return string(out)
}

// numeric reports whether the kind participates in numeric coercion.
func numeric(k Kind) bool { return k == KindInt || k == KindFloat }

// asFloat coerces INT/FLOAT payloads to float64.
func (v Value) asFloat() float64 {
	if v.Kind == KindFloat {
		return v.Float()
	}
	return float64(v.Int)
}

// Compare orders two values. NULL sorts below everything; values of the
// same kind compare natively; INT and FLOAT cross-compare numerically.
// Comparing other mixed kinds returns an error (the planner should have
// rejected or cast them).
func Compare(a, b Value) (int, error) {
	if a.Kind == KindNull || b.Kind == KindNull {
		switch {
		case a.Kind == b.Kind:
			return 0, nil
		case a.Kind == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if a.Kind == b.Kind {
		switch a.Kind {
		case KindBool, KindInt, KindDate:
			return cmpInt64(a.Int, b.Int), nil
		case KindFloat:
			return cmpFloat64(a.Float(), b.Float()), nil
		case KindString:
			switch {
			case a.Str < b.Str:
				return -1, nil
			case a.Str > b.Str:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	if numeric(a.Kind) && numeric(b.Kind) {
		if a.Kind == KindInt {
			return cmpIntFloat(a.Int, b.Float()), nil
		}
		return -cmpIntFloat(b.Int, a.Float()), nil
	}
	return 0, fmt.Errorf("types: cannot compare %s with %s", a.Kind, b.Kind)
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpIntFloat compares exactly, with no rounding of i to a float64: an
// INT beyond 2^53 orders against the FLOAT next to it as the index key
// does, and below NaN, as cmpFloat64 has it.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case f != f || f >= 1<<63:
		return -1
	case f < -1<<63:
		return 1
	}
	t := math.Trunc(f) // in int64 range, so int64(t) is exact
	if c := cmpInt64(i, int64(t)); c != 0 {
		return c
	}
	return cmpFloat64(t, f)
}

// cmpFloat64 orders NaN as the index key does (PostgreSQL's order):
// equal to every NaN and above every other number.
func cmpFloat64(a, b float64) int {
	switch {
	case a < b || a == a && b != b:
		return -1
	case a > b || a != a && b == b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two values compare equal under Compare semantics
// (NULL equals NULL here, which is what GROUP BY and hash joins on
// reconstructed rows need; three-valued logic lives in the evaluator).
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Cast converts v to the target kind, mirroring SQL CAST. Casting NULL
// yields NULL of any kind.
func Cast(v Value, to Kind) (Value, error) {
	if v.Kind == KindNull || v.Kind == to {
		if v.Kind == KindNull {
			return Null(), nil
		}
		return v, nil
	}
	switch to {
	case KindInt:
		switch v.Kind {
		case KindFloat:
			return NewInt(int64(v.Float())), nil
		case KindBool, KindDate:
			return NewInt(v.Int), nil
		case KindString:
			n, err := strconv.ParseInt(v.Str, 10, 64)
			if err != nil {
				return Null(), fmt.Errorf("types: cannot cast %q to INTEGER", v.Str)
			}
			return NewInt(n), nil
		}
	case KindFloat:
		switch v.Kind {
		case KindInt, KindBool, KindDate:
			return NewFloat(float64(v.Int)), nil
		case KindString:
			f, err := strconv.ParseFloat(v.Str, 64)
			if err != nil {
				return Null(), fmt.Errorf("types: cannot cast %q to DOUBLE", v.Str)
			}
			return NewFloat(f), nil
		}
	case KindString:
		return NewString(v.String()), nil
	case KindDate:
		switch v.Kind {
		case KindInt:
			return NewDate(v.Int), nil
		case KindString:
			t, err := time.Parse("2006-01-02", v.Str)
			if err != nil {
				return Null(), fmt.Errorf("types: cannot cast %q to DATE", v.Str)
			}
			return DateFromTime(t), nil
		}
	case KindBool:
		switch v.Kind {
		case KindInt:
			return NewBool(v.Int != 0), nil
		case KindString:
			switch v.Str {
			case "true", "TRUE", "t", "1":
				return NewBool(true), nil
			case "false", "FALSE", "f", "0":
				return NewBool(false), nil
			}
			return Null(), fmt.Errorf("types: cannot cast %q to BOOLEAN", v.Str)
		}
	}
	return Null(), fmt.Errorf("types: unsupported cast %s -> %s", v.Kind, to)
}

// ColumnType describes a column's declared type. Width carries the
// VARCHAR(n) length bound (0 means unbounded); it is advisory — values
// are not truncated — but the schema-mapping layer uses it to match
// logical columns onto generic chunk columns.
type ColumnType struct {
	Kind  Kind
	Width int
}

// String renders the type the way CREATE TABLE prints it.
func (t ColumnType) String() string {
	if t.Kind == KindString && t.Width > 0 {
		return fmt.Sprintf("VARCHAR(%d)", t.Width)
	}
	return t.Kind.String()
}

// IntType, FloatType, StringType, DateType, BoolType are the common
// column types used throughout the testbed and the example schemas.
var (
	IntType    = ColumnType{Kind: KindInt}
	FloatType  = ColumnType{Kind: KindFloat}
	DateType   = ColumnType{Kind: KindDate}
	BoolType   = ColumnType{Kind: KindBool}
	StringType = ColumnType{Kind: KindString, Width: 100}
)

// VarcharType returns a VARCHAR(n) column type.
func VarcharType(n int) ColumnType { return ColumnType{Kind: KindString, Width: n} }
