package types

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
)

// --- Order-preserving key encoding -----------------------------------------
//
// B+tree keys are byte strings compared with bytes.Compare, so every value
// is encoded such that the byte order matches Compare's value order. Each
// encoded value starts with a kind tag whose numeric order matches the
// NULL-lowest ordering used by Compare. INT and FLOAT share one numeric
// tag and one exact form, so INT 2 and FLOAT 2.0 are one key, INT 2^53+1
// and FLOAT 2^53 are two, and cross-type ranges order correctly.
//
// A number is as long as its significant bits: a header byte holding its
// sign class and binary exponent, then the fraction bits below the
// leading one, trailing zeros dropped, in 7-bit groups. The header (past
// an exponent escape, the exponent's last byte) and every group end in a
// continuation bit, so a value is prefix-free and the next key column
// compares only against the next column. Zero, the infinities and NaN
// are a header alone. A meta-data column such as Tenant, Table, Chunk or
// Row below 2^15 costs two to four bytes, not nine.

const (
	tagNull   byte = 0x01
	tagBool   byte = 0x02
	tagNumber byte = 0x03 // INT and FLOAT, in the numeric form below
	tagString byte = 0x04
	tagDate   byte = 0x05 // days since the epoch, in the numeric form
)

// Numeric header bytes, in value order. A negative value's header is the
// complement of its magnitude's positive header and so are all its later
// bytes, which reverses their order. Positive exponents in
// [minHeaderExp, maxHeaderExp] live in the header as
// numSmall + 2*(e-minHeaderExp) + more; the escapes carry any other
// exponent in two following bytes, (e+numExpBias)<<1 | more.
const (
	numNegInf    byte = 0x01
	numZero      byte = 0x80 // -0, +0 and INT 0
	numTiny      byte = 0x81 // positive, exponent below minHeaderExp
	numSmall     byte = 0x82
	numHuge      byte = 0xFC // positive, exponent above maxHeaderExp
	numPosInf    byte = 0xFE
	numNaN       byte = 0xFF // last, and one key for every NaN
	minHeaderExp      = -8
	maxHeaderExp      = 52
	numExpBias        = 1075 // lifts float64's least exponent, -1074, to 1
)

// EncodeKey appends an order-preserving encoding of v to dst.
func EncodeKey(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, tagNull)
	case KindBool:
		return append(dst, tagBool, byte(v.Int))
	case KindInt:
		return appendKeyInt(append(dst, tagNumber), v.Int)
	case KindFloat:
		return appendKeyFloat(append(dst, tagNumber), v.Float())
	case KindString:
		dst = append(dst, tagString)
		// Escape 0x00 as 0x00 0xFF so a 0x00 0x00 terminator preserves
		// prefix ordering for strings containing NUL bytes.
		for i := 0; i < len(v.Str); i++ {
			b := v.Str[i]
			if b == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, b)
			}
		}
		return append(dst, 0x00, 0x00)
	case KindDate:
		return appendKeyInt(append(dst, tagDate), v.Int)
	}
	panic(fmt.Sprintf("types: EncodeKey of bad kind %d", v.Kind))
}

func appendKeyInt(dst []byte, n int64) []byte {
	if n == 0 {
		return append(dst, numZero)
	}
	m := uint64(n)
	if n < 0 {
		m = -m // MinInt64's magnitude, 2^63, is still right as a uint64
	}
	lz := bits.LeadingZeros64(m)
	// The leading one shifts out; a shift by 64 leaves 0, as for 1.
	return appendKeyNumber(dst, n < 0, 63-lz, m<<(lz+1))
}

func appendKeyFloat(dst []byte, f float64) []byte {
	switch {
	case f == 0:
		return append(dst, numZero)
	case f != f:
		return append(dst, numNaN)
	case math.IsInf(f, 1):
		return append(dst, numPosInf)
	case math.IsInf(f, -1):
		return append(dst, numNegInf)
	}
	b := math.Float64bits(f)
	exp, mant := int(b>>52&0x7FF), b&(1<<52-1)
	if exp == 0 { // subnormal: mant * 2^-1074, normalized here
		lz := bits.LeadingZeros64(mant)
		return appendKeyNumber(dst, f < 0, 63-lz-1074, mant<<(lz+1))
	}
	return appendKeyNumber(dst, f < 0, exp-1023, mant<<12)
}

// appendKeyNumber appends the nonzero finite value ±1.frac × 2^e, where
// frac holds the fraction bits below the leading one, left-aligned.
func appendKeyNumber(dst []byte, neg bool, e int, frac uint64) []byte {
	start := len(dst)
	more := byte(0)
	if frac != 0 {
		more = 1
	}
	if minHeaderExp <= e && e <= maxHeaderExp {
		dst = append(dst, numSmall+byte(2*(e-minHeaderExp))|more)
	} else {
		escape := numHuge
		if e < minHeaderExp {
			escape = numTiny
		}
		u := uint16(e+numExpBias)<<1 | uint16(more)
		dst = append(dst, escape, byte(u>>8), byte(u))
	}
	for frac != 0 {
		g := byte(frac>>57) << 1
		if frac <<= 7; frac != 0 {
			g |= 1
		}
		dst = append(dst, g)
	}
	if neg {
		for i := start; i < len(dst); i++ {
			dst[i] = ^dst[i]
		}
	}
	return dst
}

// --- Row serialization ------------------------------------------------------
//
// Rows are serialized into slotted pages. The format is a kind byte per
// value followed by a payload; strings carry a uvarint length prefix.
// This keeps narrow rows genuinely narrow on the page, which is what
// makes the paper's cache-locality effects (Fig 11) reproducible.

// EncodeRow appends the serialization of row to dst.
func EncodeRow(dst []byte, row []Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = append(dst, byte(v.Kind))
		switch v.Kind {
		case KindNull:
		case KindBool:
			dst = append(dst, byte(v.Int))
		case KindInt, KindDate:
			dst = binary.AppendVarint(dst, v.Int)
		case KindFloat:
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], uint64(v.Int))
			dst = append(dst, buf[:]...)
		case KindString:
			dst = binary.AppendUvarint(dst, uint64(len(v.Str)))
			dst = append(dst, v.Str...)
		default:
			panic(fmt.Sprintf("types: EncodeRow of bad kind %d", v.Kind))
		}
	}
	return dst
}

// DecodeRow parses a row serialized by EncodeRow.
func DecodeRow(data []byte) ([]Value, error) {
	row, _, _, err := decodeRow(nil, data, nil, 0)
	return row, err
}

// DecodeRowInto parses a row serialized by EncodeRow into dst, reusing
// dst's backing storage, and pads the result with NULLs up to width
// (rows written before the schema grew are shorter on disk). Hot paths
// pass the same buffer every call so decoding a row allocates nothing
// beyond its string payloads.
func DecodeRowInto(dst []Value, data []byte, width int) ([]Value, error) {
	row, _, _, err := decodeRow(dst, data, nil, width)
	return row, err
}

// DecodeRowPartial is DecodeRowInto restricted to the columns marked in
// need: a value whose ordinal i has need[i] == false (or i >= len(need))
// is returned as NULL without materializing its payload — string bytes
// are skipped, not copied, so the per-value allocation disappears
// entirely. A nil need decodes every column. It additionally returns
// how many stored values were decoded and how many were skipped, for
// the engine's decode-savings counters.
func DecodeRowPartial(dst []Value, data []byte, need []bool, width int) (row []Value, decoded, skipped int, err error) {
	return decodeRow(dst, data, need, width)
}

func decodeRow(dst []Value, data []byte, need []bool, width int) ([]Value, int, int, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, 0, 0, fmt.Errorf("types: corrupt row header")
	}
	data = data[sz:]
	if dst == nil {
		c := int(n)
		if width > c {
			c = width
		}
		dst = make([]Value, 0, c)
	} else {
		dst = dst[:0]
	}
	// Stop walking the record once every needed ordinal is behind us;
	// the tail becomes NULL padding below.
	last := int(n)
	if need != nil {
		last = 0
		for i, w := range need {
			if w {
				last = i + 1
			}
		}
	}
	decoded, skipped := 0, 0
	for i := uint64(0); i < n; i++ {
		if int(i) >= last {
			skipped += int(n) - int(i)
			break
		}
		if len(data) == 0 {
			return nil, decoded, skipped, fmt.Errorf("types: truncated row at value %d", i)
		}
		kind := Kind(data[0])
		data = data[1:]
		want := need == nil || (int(i) < len(need) && need[i])
		if want {
			decoded++
		} else {
			skipped++
		}
		switch kind {
		case KindNull:
			dst = append(dst, Null())
		case KindBool:
			if len(data) < 1 {
				return nil, decoded, skipped, fmt.Errorf("types: truncated bool")
			}
			if want {
				dst = append(dst, NewBool(data[0] != 0))
			} else {
				dst = append(dst, Null())
			}
			data = data[1:]
		case KindInt, KindDate:
			v, sz := binary.Varint(data)
			if sz <= 0 {
				return nil, decoded, skipped, fmt.Errorf("types: corrupt varint")
			}
			data = data[sz:]
			if want {
				dst = append(dst, Value{Kind: kind, Int: v})
			} else {
				dst = append(dst, Null())
			}
		case KindFloat:
			if len(data) < 8 {
				return nil, decoded, skipped, fmt.Errorf("types: truncated float")
			}
			if want {
				dst = append(dst, NewFloat(math.Float64frombits(binary.BigEndian.Uint64(data))))
			} else {
				dst = append(dst, Null())
			}
			data = data[8:]
		case KindString:
			l, sz := binary.Uvarint(data)
			if sz <= 0 || uint64(len(data)-sz) < l {
				return nil, decoded, skipped, fmt.Errorf("types: corrupt string")
			}
			data = data[sz:]
			if want {
				dst = append(dst, NewString(string(data[:l])))
			} else {
				dst = append(dst, Null())
			}
			data = data[l:]
		default:
			return nil, decoded, skipped, fmt.Errorf("types: bad kind byte %d", kind)
		}
	}
	for len(dst) < width {
		dst = append(dst, Null())
	}
	return dst, decoded, skipped, nil
}

// Hash returns a hash of v consistent with Equal: values that compare
// equal (including INT 2 vs FLOAT 2.0) hash identically. Used by hash
// joins and hash aggregation.
func Hash(v Value) uint64 {
	h := fnv.New64a()
	switch v.Kind {
	case KindNull:
		h.Write([]byte{tagNull})
	case KindBool:
		h.Write([]byte{tagBool, byte(v.Int)})
	case KindInt, KindFloat:
		f := v.asFloat()
		switch {
		case f == 0:
			f = 0 // -0 equals +0, so it hashes as +0
		case f != f:
			f = math.NaN() // every NaN is one value
		}
		var buf [9]byte
		buf[0] = tagNumber
		binary.BigEndian.PutUint64(buf[1:], math.Float64bits(f))
		h.Write(buf[:])
	case KindString:
		h.Write([]byte{tagString})
		h.Write([]byte(v.Str))
	case KindDate:
		var buf [9]byte
		buf[0] = tagDate
		binary.BigEndian.PutUint64(buf[1:], uint64(v.Int))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// HashRow combines the hashes of a tuple of values.
func HashRow(vals []Value) uint64 {
	var h uint64 = 1469598103934665603
	for _, v := range vals {
		h ^= Hash(v)
		h *= 1099511628211
	}
	return h
}
