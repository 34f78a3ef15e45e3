package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/types"
)

// roundTrip encodes m into a frame, reads it back, and decodes it.
func roundTrip(t *testing.T, m any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Encode(m)); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	payload, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	out, err := Decode(payload)
	if err != nil {
		t.Fatalf("Decode(%T): %v", m, err)
	}
	return out
}

func TestMessageRoundTrips(t *testing.T) {
	params := []types.Value{
		types.NewInt(42), types.NewString("hello"), types.Null(),
		types.NewFloat(3.5), types.NewBool(true), types.NewDate(19000),
	}
	msgs := []any{
		&Hello{Version: Version, Tenant: 17, Token: "tenant-17-secret"},
		&HelloOK{SessionID: 99},
		&Ping{}, &Goodbye{}, &Stats{},
		&Error{Code: CodeAuth, Msg: "bad token"},
		&RowBatch{Rows: [][]types.Value{params, params[:2], nil}, Last: false},
		&RowBatch{Last: true},
		&Pong{},
		&StatsResult{JSON: []byte(`{"x":1}`)},
		&Batch{Stmts: []BatchStmt{
			{SQL: "BEGIN"},
			{SQL: "UPDATE t SET a = ? WHERE id = ?", Params: params[:2]},
			{Query: true, SQL: "SELECT * FROM t WHERE id = ?", Params: params[:1]},
			{SQL: "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", Params: params},
			{SQL: "COMMIT"},
		}},
		&Batch{Stmts: []BatchStmt{{Query: true, SQL: "SELECT 1"}}}, // nil params
		&BatchResult{Index: 2, RowsAffected: 7},
		&BatchResult{RowsAffected: -1},
		&BatchError{Index: 3, Code: CodePoisoned, Msg: "skipped"},
		&BatchRowsHeader{Index: 1, Columns: []string{"a", "b"}},
		&BatchRowsHeader{Index: 0},
		&BatchDone{Executed: 4},
		&ReplSubscribe{From: 1},
		&ReplSubscribe{},
		&ReplAck{Applied: 1 << 40},
		&ReplSnapshot{Chunk: []byte{1, 2, 3}},
		&ReplSnapshot{Last: true},
		&ReplFrames{Start: 4096, Frames: []byte{9, 9, 9}},
		&ReplFrames{Start: 1},
	}
	for _, m := range msgs {
		out := roundTrip(t, m)
		// Decoded empty slices come back nil-vs-empty equivalently; use
		// the re-encoded bytes as the equality domain.
		if !bytes.Equal(Encode(m), Encode(out)) {
			t.Errorf("round trip of %T changed encoding:\n in: %#v\nout: %#v", m, m, out)
		}
		if reflect.TypeOf(out) != reflect.TypeOf(m) {
			t.Errorf("round trip of %T returned %T", m, out)
		}
	}
}

func TestReadFrameTornHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Encode(&Ping{})); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every proper prefix of the frame must yield EOF (empty) or
	// ErrUnexpectedEOF (torn), never a decoded message or a hang.
	for cut := 0; cut < len(full); cut++ {
		_, err := ReadFrame(bytes.NewReader(full[:cut]))
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("cut=0: want io.EOF, got %v", err)
			}
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut=%d: want ErrUnexpectedEOF, got %v", cut, err)
		}
	}
}

func TestReadFrameBadCRC(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Encode(&Batch{Stmts: []BatchStmt{{SQL: "SELECT 1"}}})); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flip one bit in every byte position in turn: header corruption
	// must yield ErrBadCRC, ErrFrameTooLarge, or a torn read — never a
	// silently accepted wrong payload.
	for i := range full {
		cp := append([]byte(nil), full...)
		cp[i] ^= 0x40
		payload, err := ReadFrame(bytes.NewReader(cp))
		if err == nil {
			// The only acceptable no-error outcome is the flip landing in
			// the length field such that a *shorter* valid frame parses —
			// impossible here because CRC covers the whole payload.
			t.Fatalf("bit flip at %d accepted: payload %x", i, payload)
		}
	}
}

func TestReadFrameOversized(t *testing.T) {
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], MaxFrame+1)
	_, err := ReadFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	// WriteFrame refuses to produce one.
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("WriteFrame oversized: want ErrFrameTooLarge, got %v", err)
	}
}

func TestDecodeFrameSplitsStream(t *testing.T) {
	var buf bytes.Buffer
	for _, m := range []any{&Ping{}, &Batch{Stmts: []BatchStmt{{SQL: "SELECT 1"}}}, &Goodbye{}} {
		if err := WriteFrame(&buf, Encode(m)); err != nil {
			t.Fatal(err)
		}
	}
	rest := buf.Bytes()
	var got []any
	for len(rest) > 0 {
		payload, r, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("DecodeFrame: %v", err)
		}
		m, err := Decode(payload)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		got, rest = append(got, m), r
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d messages, want 3", len(got))
	}
	if _, ok := got[1].(*Batch); !ok {
		t.Fatalf("middle message is %T, want *Batch", got[1])
	}
}

func TestDecodeTruncatedBodies(t *testing.T) {
	// Every proper prefix of every message body must error, never panic
	// or succeed (no message here has a valid proper prefix: all end
	// with fixed-width or length-prefixed fields).
	msgs := []any{
		&Hello{Version: Version, Tenant: 17, Token: "secret"},
		&Error{Code: CodeSQL, Msg: "boom"},
		&RowBatch{Rows: [][]types.Value{{types.NewInt(1)}}, Last: true},
		&Batch{Stmts: []BatchStmt{
			{SQL: "BEGIN"},
			{Query: true, SQL: "SELECT 1", Params: []types.Value{types.NewInt(4)}},
		}},
		&Batch{Stmts: []BatchStmt{{SQL: "INSERT", Params: []types.Value{types.NewString("x")}}}},
		&BatchResult{Index: 1, RowsAffected: 3},
		&BatchError{Index: 1, Code: CodeSQL, Msg: "boom"},
		&BatchRowsHeader{Index: 2, Columns: []string{"a"}},
		&BatchDone{Executed: 2},
		&ReplSubscribe{From: 77},
		&ReplAck{Applied: 1234},
		&ReplSnapshot{Last: true, Chunk: []byte("img")},
		&ReplFrames{Start: 88, Frames: []byte("fr")},
	}
	for _, m := range msgs {
		full := Encode(m)
		for cut := 1; cut < len(full); cut++ {
			if _, err := Decode(full[:cut]); err == nil {
				t.Errorf("%T truncated at %d decoded successfully", m, cut)
			}
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	b := append(Encode(&Ping{}), 0xFF)
	if _, err := Decode(b); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestDecodeHostileListCounts(t *testing.T) {
	// A BatchRowsHeader declaring 2^32-1 columns with a tiny body must
	// fail fast instead of allocating.
	b := appendU32(appendU32([]byte{TypeBatchRows}, 0), 0xFFFFFFFF)
	if _, err := Decode(b); err == nil {
		t.Fatal("hostile column count accepted")
	}
	// A parameter row declaring 2^40 values inside a 3-byte payload.
	hostile := binary.AppendUvarint(nil, 1<<40)
	body := appendString(append(appendU32([]byte{TypeBatch}, 1), 0), "SELECT 1")
	body = appendBytes(body, hostile)
	if _, err := Decode(body); err == nil {
		t.Fatal("hostile row count accepted")
	}
}

func TestDecodeUnknownType(t *testing.T) {
	if _, err := Decode([]byte{0x7F}); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("want ErrBadMessage, got %v", err)
	}
	if _, err := Decode(nil); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("empty payload: want ErrBadMessage, got %v", err)
	}
}

// TestDecodeRetiredTypes: the type bytes of version 1's single-statement
// and prepared-statement messages (Exec, Query, Prepare, StmtExec,
// StmtQuery, StmtClose; Result, RowsHeader, Prepared) decode to nothing,
// with or without a body that would have been valid for them.
func TestDecodeRetiredTypes(t *testing.T) {
	body := appendRowInline(appendString(nil, "SELECT 1"), nil)
	for _, typ := range []byte{0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x83, 0x84, 0x86} {
		for _, p := range [][]byte{{typ}, append([]byte{typ}, body...)} {
			if m, err := Decode(p); !errors.Is(err, ErrBadMessage) {
				t.Errorf("type 0x%02x: want ErrBadMessage, got %T %v", typ, m, err)
			}
		}
	}
}

func TestDecodeBatchBounds(t *testing.T) {
	// An empty batch is a protocol error: there is nothing to answer.
	if _, err := Decode(appendU32([]byte{TypeBatch}, 0)); err == nil {
		t.Fatal("empty batch accepted")
	}
	// A count beyond MaxBatch fails before any statement decodes, even
	// if the body had bytes to back it.
	b := appendU32([]byte{TypeBatch}, MaxBatch+1)
	b = append(b, make([]byte, MaxBatch+1)...)
	if _, err := Decode(b); err == nil {
		t.Fatal("over-limit batch accepted")
	}
	// A hostile count with a tiny body fails fast without allocating.
	if _, err := Decode(appendU32([]byte{TypeBatch}, 0xFFFFFFF0)); err == nil {
		t.Fatal("hostile batch count accepted")
	}
	// MaxBatch exactly is accepted.
	big := &Batch{Stmts: make([]BatchStmt, MaxBatch)}
	for i := range big.Stmts {
		big.Stmts[i].SQL = "SELECT 1"
	}
	if _, err := Decode(Encode(big)); err != nil {
		t.Fatalf("MaxBatch-sized batch rejected: %v", err)
	}
}

func TestFrameWriter(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	params := []types.Value{types.NewInt(1), types.NewString("row")}
	msgs := []any{
		&BatchRowsHeader{Index: 0, Columns: []string{"a", "b"}},
		&RowBatch{Rows: [][]types.Value{params, params}, Last: false},
		&RowBatch{Last: true},
		&BatchDone{Executed: 3},
	}
	for _, m := range msgs {
		if err := fw.WriteMsg(m); err != nil {
			t.Fatalf("WriteMsg(%T): %v", m, err)
		}
	}
	// The stream must be byte-identical to the WriteFrame(Encode()) path.
	var want bytes.Buffer
	for _, m := range msgs {
		if err := WriteFrame(&want, Encode(m)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatal("FrameWriter stream differs from WriteFrame stream")
	}
	// And it must read back cleanly.
	r := bytes.NewReader(buf.Bytes())
	for i := range msgs {
		payload, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if _, err := Decode(payload); err != nil {
			t.Fatalf("Decode %d: %v", i, err)
		}
	}
}

func TestFrameWriterArenaReuse(t *testing.T) {
	// After a warm-up write, steady-state row batches must not allocate
	// per row (the whole point of the arena).
	fw := NewFrameWriter(io.Discard)
	rows := make([][]types.Value, 64)
	for i := range rows {
		rows[i] = []types.Value{types.NewInt(int64(i)), types.NewString("abcdefgh")}
	}
	batch := &RowBatch{Rows: rows, Last: true}
	if err := fw.WriteMsg(batch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := fw.WriteMsg(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("steady-state WriteMsg allocates %.1f times per frame", allocs)
	}
}

func TestFrameWriterOversized(t *testing.T) {
	fw := NewFrameWriter(io.Discard)
	if err := fw.WriteMsg(&StatsResult{JSON: make([]byte, MaxFrame+1)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	// The writer stays usable and its arena shrank back.
	if err := fw.WriteMsg(&Pong{}); err != nil {
		t.Fatalf("WriteMsg after oversize: %v", err)
	}
	if cap(fw.buf) > 1<<20 {
		t.Fatalf("arena not released after oversized frame: cap %d", cap(fw.buf))
	}
}
