package protocol

import (
	"bytes"
	"testing"

	"repro/internal/types"
)

// FuzzDecodeFrame throws arbitrary bytes at the frame splitter and the
// message decoder: neither may panic, loop, or over-allocate, and any
// frame that passes the CRC must decode deterministically (decode →
// re-encode → decode is a fixed point).
func FuzzDecodeFrame(f *testing.F) {
	// Seed with valid frames of the statement path — a Batch with
	// parameters and its replies — plus classic cruft.
	seeds := []any{
		&Hello{Version: Version, Tenant: 17, Token: "t"},
		&Batch{Stmts: []BatchStmt{{Query: true, SQL: "SELECT * FROM t WHERE a = ? AND b = ?",
			Params: []types.Value{types.NewInt(7), types.NewString("x")}}}},
		&Batch{Stmts: []BatchStmt{{SQL: "INSERT INTO t VALUES (?, ?, ?, ?)",
			Params: []types.Value{types.NewFloat(2.5), types.NewDate(19000), types.Null(), types.NewBool(true)}}}},
		&RowBatch{Rows: [][]types.Value{{types.NewInt(1), types.NewString("a")}, {types.Null()}}},
		&RowBatch{Last: true},
		&Error{Code: CodeSQL, Msg: "x"},
		&Batch{Stmts: []BatchStmt{{SQL: "BEGIN"}, {Query: true, SQL: "SELECT 1"}}},
		&BatchResult{Index: 1, RowsAffected: 2},
		&BatchError{Index: 2, Code: CodePoisoned, Msg: "skipped"},
		&BatchRowsHeader{Index: 0, Columns: []string{"a"}},
		&BatchDone{Executed: 3},
	}
	for _, m := range seeds {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, Encode(m)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, rest, err := DecodeFrame(data)
		if err != nil {
			// Reading the same bytes through the streaming path must agree.
			if _, rerr := ReadFrame(bytes.NewReader(data)); rerr == nil {
				t.Fatalf("DecodeFrame err %v but ReadFrame accepted", err)
			}
			return
		}
		if len(payload)+headerSize+len(rest) != len(data) {
			t.Fatalf("frame split lost bytes: %d + %d + %d != %d",
				len(payload), headerSize, len(rest), len(data))
		}
		m, err := Decode(payload)
		if err != nil {
			return // malformed message inside a well-formed frame: fine
		}
		// Fixed point: re-encoding a decoded message must decode to the
		// same encoding again.
		enc := Encode(m)
		m2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of %T failed: %v", m, err)
		}
		if !bytes.Equal(enc, Encode(m2)) {
			t.Fatalf("decode/encode not a fixed point for %T", m)
		}
	})
}
