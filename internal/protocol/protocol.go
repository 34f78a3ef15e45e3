// Package protocol is the wire protocol between the mtdserver front
// door and its clients: a length-prefixed, CRC-framed binary framing
// with a small message vocabulary — credentialed handshake, statements
// in Batch frames (a lone statement is a Batch of one; transaction
// control travels as ordinary statements), and streaming result
// batches. Row payloads use the engine's own row serialization
// (types.EncodeRow), so a result batch on the wire is byte-for-byte the
// executor's row encoding.
//
// Frame layout (all integers big-endian):
//
//	[4-byte payload length][4-byte CRC-32C of payload][payload]
//
// The payload's first byte is the message type; the rest is the
// message body. A frame whose length exceeds MaxFrame is rejected
// before any allocation, a frame whose checksum does not match its
// payload is ErrBadCRC, and a connection that dies mid-frame surfaces
// io.ErrUnexpectedEOF — the three failure modes a server must survive
// from arbitrary clients.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/types"
)

// Version is the protocol version carried in the handshake. A server
// refuses a Hello with a different version. Version 2 retired the
// single-statement and prepared-statement messages of version 1: Batch
// is the only message that carries a statement.
const Version uint32 = 2

// MaxFrame bounds a single frame's payload (header excluded). Result
// streams chunk into batches well below this; anything larger on the
// wire is a corrupt or hostile peer.
const MaxFrame = 8 << 20

// MaxBatch bounds the statements one Batch frame may carry. A pipeline
// deeper than this is a hostile or broken client (the server refuses
// the whole frame as a protocol error).
const MaxBatch = 1024

// headerSize is the fixed frame header: length + CRC.
const headerSize = 8

// castagnoli is the CRC-32C table (same polynomial as the WAL frames).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Framing errors.
var (
	// ErrBadCRC: the payload does not match its checksum.
	ErrBadCRC = errors.New("protocol: frame checksum mismatch")
	// ErrFrameTooLarge: declared payload length exceeds MaxFrame.
	ErrFrameTooLarge = errors.New("protocol: frame exceeds size limit")
	// ErrShortFrame: a decode ran off the end of the message body.
	ErrShortFrame = errors.New("protocol: truncated message body")
	// ErrBadMessage: unknown message type or malformed body.
	ErrBadMessage = errors.New("protocol: malformed message")
)

// Message types. Client-originated types have the high bit clear,
// server-originated ones have it set.
const (
	TypeHello   byte = 0x01 // Hello: version, tenant, token
	TypePing    byte = 0x08 // Ping
	TypeGoodbye byte = 0x09 // Goodbye: orderly close
	TypeStats   byte = 0x0A // Stats: request the server's counters
	TypeBatch   byte = 0x0B // Batch: pipelined statements, executed in order

	TypeHelloOK  byte = 0x81 // HelloOK: session id
	TypeError    byte = 0x82 // Error: code, message
	TypeRowBatch byte = 0x85 // RowBatch: rows, last flag
	TypePong     byte = 0x87 // Pong
	TypeStatsRes byte = 0x88 // StatsResult: JSON blob

	TypeBatchResult byte = 0x89 // BatchResult: index, rows affected
	TypeBatchError  byte = 0x8A // BatchError: index, code, message
	TypeBatchRows   byte = 0x8B // BatchRowsHeader: index, columns (RowBatch frames follow)
	TypeBatchDone   byte = 0x8C // BatchDone: statements executed (ends the reply stream)

	TypeReplSubscribe byte = 0x0C // ReplSubscribe: start streaming WAL from an LSN
	TypeReplAck       byte = 0x0D // ReplAck: follower's applied LSN

	TypeReplSnapshot byte = 0x8D // ReplSnapshot: bootstrap image chunk, last flag
	TypeReplFrames   byte = 0x8E // ReplFrames: start LSN, raw WAL frame bytes
)

// Error codes carried by Error messages.
const (
	CodeProtocol  uint16 = 1 // malformed frame or message
	CodeAuth      uint16 = 2 // unknown tenant or bad credentials
	CodeQuota     uint16 = 3 // per-tenant session quota exhausted
	CodeRateLimit uint16 = 4 // per-tenant statement rate exceeded
	CodeSQL       uint16 = 5 // statement failed (parse, plan, execute)
	CodeConflict  uint16 = 6 // write-write conflict; transaction rolled back
	CodeShutdown  uint16 = 7 // server is draining
	CodeClosed    uint16 = 8 // session already closed
	CodePoisoned  uint16 = 9 // skipped: an earlier statement in the pipeline failed
)

// --- framing -----------------------------------------------------------------

// WriteFrame writes one frame carrying payload.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame and returns its payload. A peer that
// vanishes mid-frame yields io.ErrUnexpectedEOF (io.EOF only on a
// clean boundary); a declared length beyond MaxFrame is rejected
// before allocating; a checksum mismatch is ErrBadCRC.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF at a frame boundary, ErrUnexpectedEOF inside
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, ErrBadCRC
	}
	return payload, nil
}

// ReadMsg reads one frame and decodes its message.
func ReadMsg(r io.Reader) (any, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	return Decode(payload)
}

// DecodeFrame splits one frame off buf (the in-memory form of
// ReadFrame, used by the fuzz target and by tests over captured
// bytes): payload plus the unconsumed rest. A partial frame is
// io.ErrUnexpectedEOF.
func DecodeFrame(buf []byte) (payload, rest []byte, err error) {
	if len(buf) < headerSize {
		return nil, nil, io.ErrUnexpectedEOF
	}
	n := binary.BigEndian.Uint32(buf[0:4])
	if n > MaxFrame {
		return nil, nil, ErrFrameTooLarge
	}
	if uint32(len(buf)-headerSize) < n {
		return nil, nil, io.ErrUnexpectedEOF
	}
	payload = buf[headerSize : headerSize+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(buf[4:8]) {
		return nil, nil, ErrBadCRC
	}
	return payload, buf[headerSize+int(n):], nil
}

// --- messages ----------------------------------------------------------------

// Hello opens a connection: protocol version plus the tenant's
// credentials. The server answers HelloOK or Error.
type Hello struct {
	Version uint32
	Tenant  int64
	Token   string
}

// HelloOK acknowledges a successful handshake.
type HelloOK struct{ SessionID uint64 }

// Ping answers Pong (the pool's health check).
type Ping struct{}

// Goodbye announces an orderly client close.
type Goodbye struct{}

// Stats requests the server's counters; answered by StatsResult.
type Stats struct{}

// Error reports a failure; Code classifies it for the client.
type Error struct {
	Code uint16
	Msg  string
}

// RowBatch carries a chunk of result rows; Last marks the end of the
// stream (a Last batch may be empty).
type RowBatch struct {
	Rows [][]types.Value
	Last bool
}

// Pong answers a Ping.
type Pong struct{}

// StatsResult carries the server's counters as JSON.
type StatsResult struct{ JSON []byte }

// BatchStmt is one statement inside a Batch. Query selects the reply
// shape: a query answers BatchRowsHeader + RowBatch*, a non-query
// answers BatchResult.
type BatchStmt struct {
	Query  bool
	SQL    string
	Params []types.Value
}

// Batch pipelines up to MaxBatch statements in one frame. The server
// executes them strictly in order and streams back exactly one tagged
// reply per statement (BatchResult, BatchError, or BatchRowsHeader +
// its RowBatch stream), then a single BatchDone. After the first
// failure the remaining statements are NOT executed; each answers
// BatchError with CodePoisoned so replies stay 1:1 with statements.
type Batch struct {
	Stmts []BatchStmt
}

// BatchResult reports statement Index's non-query outcome.
type BatchResult struct {
	Index        uint32
	RowsAffected int64
}

// BatchError reports statement Index's failure (or CodePoisoned if it
// was skipped because an earlier statement in the batch failed).
type BatchError struct {
	Index uint32
	Code  uint16
	Msg   string
}

// BatchRowsHeader opens statement Index's result stream; ordinary
// RowBatch frames follow until one with Last set.
type BatchRowsHeader struct {
	Index   uint32
	Columns []string
}

// BatchDone terminates a Batch's reply stream. Executed counts the
// statements that actually ran (the rest were poisoned).
type BatchDone struct {
	Executed uint32
}

// ReplSubscribe turns the connection into a replication stream: the
// server ships WAL frames from From onward, forever. From below the
// primary's retained history triggers a bootstrap: ReplSnapshot chunks
// carrying a full engine.ReplImage precede the frame stream. From 0
// always bootstraps (the empty-follower case). After subscribing, the
// client sends only ReplAck; the server sends only ReplSnapshot,
// ReplFrames, and Error.
type ReplSubscribe struct{ From uint64 }

// ReplAck reports the follower's applied position (flow-control-free
// telemetry; the server never waits for it).
type ReplAck struct{ Applied uint64 }

// ReplSnapshot carries one chunk of a bootstrap image; Last marks the
// final chunk (the concatenation decodes via engine.DecodeReplImage).
type ReplSnapshot struct {
	Last  bool
	Chunk []byte
}

// ReplFrames carries raw WAL frame bytes whose first byte sits at
// stream offset Start. Frames are whole WAL frames, verbatim — the
// follower ingests them into its mirror log without re-encoding.
type ReplFrames struct {
	Start  uint64
	Frames []byte
}

// --- encoding ----------------------------------------------------------------

func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return binary.BigEndian.AppendUint64(b, uint64(v)) }

func appendString(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

// appendRowInline appends one length-prefixed EncodeRow payload (a
// result row or a statement's parameters) by reserving the 4-byte
// length, encoding in place, and backfilling the actual size. This is
// the arena path: when b has capacity (FrameWriter reuse), a row costs
// zero allocations.
func appendRowInline(b []byte, row []types.Value) []byte {
	at := len(b)
	b = append(b, 0, 0, 0, 0)
	b = types.EncodeRow(b, row)
	binary.BigEndian.PutUint32(b[at:at+4], uint32(len(b)-at-4))
	return b
}

// Encode renders m as a frame payload (type byte + body). It panics on
// an unknown message type: encoding is always of our own values.
func Encode(m any) []byte { return AppendEncode(nil, m) }

// AppendEncode appends m's frame payload (type byte + body) to dst and
// returns the extended slice. FrameWriter uses it to reuse one encode
// arena across frames; Encode is AppendEncode(nil, m).
func AppendEncode(dst []byte, m any) []byte {
	switch m := m.(type) {
	case *Hello:
		b := append(dst, TypeHello)
		b = appendU32(b, m.Version)
		b = appendI64(b, m.Tenant)
		return appendString(b, m.Token)
	case *HelloOK:
		return appendU64(append(dst, TypeHelloOK), m.SessionID)
	case *Ping:
		return append(dst, TypePing)
	case *Goodbye:
		return append(dst, TypeGoodbye)
	case *Stats:
		return append(dst, TypeStats)
	case *Batch:
		b := appendU32(append(dst, TypeBatch), uint32(len(m.Stmts)))
		for i := range m.Stmts {
			s := &m.Stmts[i]
			if s.Query {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
			b = appendString(b, s.SQL)
			b = appendRowInline(b, s.Params)
		}
		return b
	case *Error:
		b := appendU16(append(dst, TypeError), m.Code)
		return appendString(b, m.Msg)
	case *RowBatch:
		b := append(dst, TypeRowBatch)
		if m.Last {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendU32(b, uint32(len(m.Rows)))
		for _, r := range m.Rows {
			b = appendRowInline(b, r)
		}
		return b
	case *Pong:
		return append(dst, TypePong)
	case *StatsResult:
		return appendBytes(append(dst, TypeStatsRes), m.JSON)
	case *BatchResult:
		b := appendU32(append(dst, TypeBatchResult), m.Index)
		return appendI64(b, m.RowsAffected)
	case *BatchError:
		b := appendU32(append(dst, TypeBatchError), m.Index)
		b = appendU16(b, m.Code)
		return appendString(b, m.Msg)
	case *BatchRowsHeader:
		b := appendU32(append(dst, TypeBatchRows), m.Index)
		b = appendU32(b, uint32(len(m.Columns)))
		for _, c := range m.Columns {
			b = appendString(b, c)
		}
		return b
	case *BatchDone:
		return appendU32(append(dst, TypeBatchDone), m.Executed)
	case *ReplSubscribe:
		return appendU64(append(dst, TypeReplSubscribe), m.From)
	case *ReplAck:
		return appendU64(append(dst, TypeReplAck), m.Applied)
	case *ReplSnapshot:
		b := append(dst, TypeReplSnapshot)
		if m.Last {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		return appendBytes(b, m.Chunk)
	case *ReplFrames:
		b := appendU64(append(dst, TypeReplFrames), m.Start)
		return appendBytes(b, m.Frames)
	}
	panic(fmt.Sprintf("protocol: Encode of unknown message %T", m))
}

// --- decoding ----------------------------------------------------------------

// dec is a bounds-checked cursor over a message body. Every getter
// reports failure by setting err; callers check once at the end.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = ErrShortFrame
	}
	d.b = nil
}

func (d *dec) u16() uint16 {
	if len(d.b) < 2 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(d.b)
	d.b = d.b[2:]
	return v
}

func (d *dec) u32() uint32 {
	if len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) u64() uint64 {
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) i64() int64 { return int64(d.u64()) }

func (d *dec) byte() byte {
	if len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) bytes() []byte {
	n := d.u32()
	if uint32(len(d.b)) < n {
		d.fail()
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *dec) str() string { return string(d.bytes()) }

// row decodes one length-prefixed EncodeRow payload, bounding the
// declared value count by the payload size (each value costs at least
// one byte) so a hostile count cannot drive a huge allocation.
func (d *dec) row() []types.Value {
	p := d.bytes()
	if d.err != nil {
		return nil
	}
	if len(p) == 0 {
		d.fail()
		return nil
	}
	n, sz := binary.Uvarint(p)
	if sz <= 0 || n > uint64(len(p)-sz) {
		d.fail()
		return nil
	}
	row, err := types.DecodeRow(p)
	if err != nil {
		d.err = fmt.Errorf("%w: %v", ErrBadMessage, err)
		d.b = nil
		return nil
	}
	return row
}

// done finalizes a decode: any leftover bytes mean a malformed body.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(d.b))
	}
	return nil
}

// maxListItems bounds decoded list lengths by the bytes that could
// possibly back them (each item costs at least one byte on the wire).
func maxListItems(n uint32, remaining int) bool { return uint64(n) <= uint64(remaining) }

// Decode parses a frame payload into its message struct.
func Decode(payload []byte) (any, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: empty payload", ErrBadMessage)
	}
	d := &dec{b: payload[1:]}
	switch payload[0] {
	case TypeHello:
		m := &Hello{Version: d.u32(), Tenant: d.i64(), Token: d.str()}
		return m, d.done()
	case TypeHelloOK:
		m := &HelloOK{SessionID: d.u64()}
		return m, d.done()
	case TypePing:
		return &Ping{}, d.done()
	case TypeGoodbye:
		return &Goodbye{}, d.done()
	case TypeStats:
		return &Stats{}, d.done()
	case TypeBatch:
		n := d.u32()
		if d.err == nil && (n == 0 || n > MaxBatch || !maxListItems(n, len(d.b))) {
			d.fail()
		}
		m := &Batch{}
		for i := uint32(0); i < n && d.err == nil; i++ {
			m.Stmts = append(m.Stmts, BatchStmt{
				Query:  d.byte() != 0,
				SQL:    d.str(),
				Params: d.row(),
			})
		}
		return m, d.done()
	case TypeError:
		m := &Error{Code: d.u16(), Msg: d.str()}
		return m, d.done()
	case TypeRowBatch:
		m := &RowBatch{Last: d.byte() != 0}
		n := d.u32()
		if d.err == nil && !maxListItems(n, len(d.b)) {
			d.fail()
		}
		for i := uint32(0); i < n && d.err == nil; i++ {
			m.Rows = append(m.Rows, d.row())
		}
		return m, d.done()
	case TypePong:
		return &Pong{}, d.done()
	case TypeStatsRes:
		b := d.bytes()
		m := &StatsResult{JSON: append([]byte(nil), b...)}
		return m, d.done()
	case TypeBatchResult:
		m := &BatchResult{Index: d.u32(), RowsAffected: d.i64()}
		return m, d.done()
	case TypeBatchError:
		m := &BatchError{Index: d.u32(), Code: d.u16(), Msg: d.str()}
		return m, d.done()
	case TypeBatchRows:
		m := &BatchRowsHeader{Index: d.u32()}
		n := d.u32()
		if d.err == nil && !maxListItems(n, len(d.b)) {
			d.fail()
		}
		for i := uint32(0); i < n && d.err == nil; i++ {
			m.Columns = append(m.Columns, d.str())
		}
		return m, d.done()
	case TypeBatchDone:
		m := &BatchDone{Executed: d.u32()}
		return m, d.done()
	case TypeReplSubscribe:
		m := &ReplSubscribe{From: d.u64()}
		return m, d.done()
	case TypeReplAck:
		m := &ReplAck{Applied: d.u64()}
		return m, d.done()
	case TypeReplSnapshot:
		m := &ReplSnapshot{Last: d.byte() != 0}
		b := d.bytes()
		m.Chunk = append([]byte(nil), b...)
		return m, d.done()
	case TypeReplFrames:
		m := &ReplFrames{Start: d.u64()}
		b := d.bytes()
		m.Frames = append([]byte(nil), b...)
		return m, d.done()
	}
	return nil, fmt.Errorf("%w: unknown type 0x%02x", ErrBadMessage, payload[0])
}

// Error implements the error interface so servers' Error messages can
// flow through Go error returns on the client.
func (e *Error) Error() string {
	return fmt.Sprintf("server error %d: %s", e.Code, e.Msg)
}

// --- frame writer ------------------------------------------------------------

// FrameWriter encodes messages into a reusable arena and writes each as
// one framed Write call (header + payload in a single buffer, so a
// bufio.Writer underneath sees one append per frame instead of two, and
// row batches encode with zero per-row allocations once the arena is
// warm). Not safe for concurrent use; each connection owns one.
type FrameWriter struct {
	w   io.Writer
	buf []byte
}

// NewFrameWriter returns a FrameWriter over w (typically a
// bufio.Writer; the caller decides when to Flush it).
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w, buf: make([]byte, 0, 4096)}
}

// WriteMsg encodes m and writes it as one frame. The encode arena is
// reused across calls; oversized frames shrink it back afterwards so a
// single huge result does not pin memory for the connection's life.
func (fw *FrameWriter) WriteMsg(m any) error {
	b := append(fw.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	b = AppendEncode(b, m)
	payload := b[headerSize:]
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[4:8], crc32.Checksum(payload, castagnoli))
	if cap(b) <= 1<<20 {
		fw.buf = b[:0]
	} else {
		fw.buf = make([]byte, 0, 4096)
	}
	_, err := fw.w.Write(b)
	return err
}
