package types

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// --- Order-preserving key encoding -----------------------------------------
//
// B+tree keys are byte strings compared with bytes.Compare, so every value
// is encoded such that the byte order matches Compare's value order. Each
// encoded value starts with a kind tag whose numeric order matches the
// NULL-lowest ordering used by Compare. INT and FLOAT share one numeric
// tag so that cross-type numeric comparisons order correctly in indexes.

const (
	tagNull   byte = 0x01
	tagBool   byte = 0x02
	tagNumber byte = 0x03 // INT and FLOAT, encoded as ordered float bits
	tagString byte = 0x04
	tagDate   byte = 0x05
)

// EncodeKey appends an order-preserving encoding of v to dst.
func EncodeKey(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, tagNull)
	case KindBool:
		return append(dst, tagBool, byte(v.Int))
	case KindInt:
		return appendOrderedFloat(append(dst, tagNumber), float64(v.Int))
	case KindFloat:
		return appendOrderedFloat(append(dst, tagNumber), v.Float())
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
		dst = append(dst, tagDate)
		return appendOrderedInt(dst, v.Int)
	}
	panic(fmt.Sprintf("types: EncodeKey of bad kind %d", v.Kind))
}

func appendOrderedInt(dst []byte, v int64) []byte {
	u := uint64(v) ^ (1 << 63) // flip sign bit: negative < positive
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], u)
	return append(dst, buf[:]...)
}

func appendOrderedFloat(dst []byte, f float64) []byte {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits // negative floats: flip all bits
	} else {
		bits |= 1 << 63 // positive floats: flip sign bit
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], bits)
	return append(dst, buf[:]...)
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
		var buf [9]byte
		buf[0] = tagNumber
		binary.BigEndian.PutUint64(buf[1:], math.Float64bits(v.asFloat()))
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
