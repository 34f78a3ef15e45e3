// Package client is the Go client for the mtdserver network front
// door: Dial opens one authenticated protocol connection, Conn offers
// Exec/Query/Pipeline over it (including interactive transactions —
// BEGIN/COMMIT/ROLLBACK travel as ordinary statements), and Pool keeps
// a bounded set of healthy connections warm for concurrent workers.
// Every statement travels in a Batch frame: Exec and Query send a
// Batch of one.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/protocol"
	"repro/internal/types"
)

// Client errors.
var (
	// ErrConnClosed: the connection was closed (locally or by a
	// transport failure) and can no longer carry requests.
	ErrConnClosed = errors.New("client: connection is closed")
	// ErrPoolClosed: Get after Pool.Close.
	ErrPoolClosed = errors.New("client: pool is closed")
)

// Config tells Dial where and who.
type Config struct {
	// Addr is the server's "host:port".
	Addr string
	// Tenant and Token are the handshake credentials.
	Tenant int64
	Token  string
	// DialTimeout bounds connection establishment plus the handshake
	// round-trip (default 5s).
	DialTimeout time.Duration
}

// Rows is a materialized query result.
type Rows struct {
	Columns []string
	Data    [][]types.Value
}

// Conn is one protocol connection: a single logical session on the
// server, carrying one request/response exchange at a time (methods
// serialize internally; use a Pool for concurrency).
type Conn struct {
	nc        net.Conn
	br        *bufio.Reader
	bw        *bufio.Writer
	sessionID uint64

	reqMu  sync.Mutex
	broken bool // transport failed; the connection is dead
	closed bool
}

// Dial connects and performs the credentialed handshake.
func Dial(cfg Config) (*Conn, error) {
	timeout := cfg.DialTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	nc, err := net.DialTimeout("tcp", cfg.Addr, timeout)
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(time.Now().Add(timeout))
	c := &Conn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	if err := protocol.WriteFrame(c.bw, protocol.Encode(&protocol.Hello{
		Version: protocol.Version,
		Tenant:  cfg.Tenant,
		Token:   cfg.Token,
	})); err != nil {
		nc.Close()
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		nc.Close()
		return nil, err
	}
	m, err := protocol.ReadMsg(c.br)
	if err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetDeadline(time.Time{})
	switch m := m.(type) {
	case *protocol.HelloOK:
		c.sessionID = m.SessionID
		return c, nil
	case *protocol.Error:
		nc.Close()
		return nil, m
	}
	nc.Close()
	return nil, fmt.Errorf("client: unexpected handshake reply %T", m)
}

// SessionID is the server-assigned session id from the handshake.
func (c *Conn) SessionID() uint64 { return c.sessionID }

// roundTrip sends one message and reads one reply, marking the
// connection broken on any transport failure.
func (c *Conn) roundTrip(m any) (any, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	if c.closed || c.broken {
		return nil, ErrConnClosed
	}
	if err := protocol.WriteFrame(c.bw, protocol.Encode(m)); err != nil {
		c.broken = true
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		c.broken = true
		return nil, err
	}
	reply, err := protocol.ReadMsg(c.br)
	if err != nil {
		c.broken = true
		return nil, err
	}
	return reply, nil
}

// Exec runs one statement (DML, DDL, or transaction control) as a
// one-statement pipeline and returns the affected row count. A
// server-reported failure comes back as *protocol.Error (see
// ErrorCode); the connection stays usable.
func (c *Conn) Exec(sql string, params ...types.Value) (int64, error) {
	r, err := c.one(PipelineStmt{SQL: sql, Params: params})
	return r.RowsAffected, err
}

// Query runs a SELECT as a one-statement pipeline and materializes the
// streamed result.
func (c *Conn) Query(sql string, params ...types.Value) (*Rows, error) {
	r, err := c.one(PipelineStmt{Query: true, SQL: sql, Params: params})
	return r.Rows, err
}

// one sends a lone statement as a Batch of one and returns its result,
// with the statement's own error (if any) as the error.
func (c *Conn) one(st PipelineStmt) (PipelineResult, error) {
	res, err := c.Pipeline([]PipelineStmt{st})
	if err != nil {
		return PipelineResult{}, err
	}
	return res[0], res[0].Err
}

// protocolViolation marks the connection dead: the reply stream is out
// of sync with the requests, nothing after it can be trusted.
func (c *Conn) protocolViolation(got any) error {
	c.broken = true
	return fmt.Errorf("client: unexpected reply %T", got)
}

// --- pipelining --------------------------------------------------------------

// PipelineStmt is one statement in a pipelined batch. Query selects
// the streamed-rows reply shape; everything else answers a row count.
type PipelineStmt struct {
	Query  bool
	SQL    string
	Params []types.Value
}

// PipelineResult is one statement's outcome, index-matched to the
// batch. Exactly one of Err, Rows (queries), or RowsAffected (execs)
// is meaningful.
type PipelineResult struct {
	Err          error // *protocol.Error for server-side failures
	RowsAffected int64
	Rows         *Rows // non-nil for successful queries
}

// Poisoned reports that this statement was never executed because an
// earlier statement in the batch failed (see protocol.CodePoisoned).
func (r PipelineResult) Poisoned() bool {
	code, ok := ErrorCode(r.Err)
	return ok && code == protocol.CodePoisoned
}

// Pipeline sends all statements in one Batch frame and collects the
// tagged replies — one network round trip for the whole sequence
// instead of one per statement.
//
// The server executes strictly in order and stops at the first
// failure: the failing statement's result carries the real error, and
// every later statement comes back Poisoned (not executed). A
// transaction pipelined as BEGIN…COMMIT therefore cannot half-commit;
// on error the caller owns cleanup (typically a ROLLBACK — the
// connection itself stays usable).
//
// The returned slice always has len(stmts) entries unless the
// transport failed, in which case the error is non-nil and the
// connection is broken.
func (c *Conn) Pipeline(stmts []PipelineStmt) ([]PipelineResult, error) {
	if len(stmts) == 0 {
		return nil, nil
	}
	if len(stmts) > protocol.MaxBatch {
		return nil, fmt.Errorf("client: batch of %d exceeds protocol.MaxBatch (%d)", len(stmts), protocol.MaxBatch)
	}
	b := &protocol.Batch{Stmts: make([]protocol.BatchStmt, len(stmts))}
	for i, st := range stmts {
		b.Stmts[i] = protocol.BatchStmt{Query: st.Query, SQL: st.SQL, Params: st.Params}
	}

	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	if c.closed || c.broken {
		return nil, ErrConnClosed
	}
	if err := protocol.WriteFrame(c.bw, protocol.Encode(b)); err != nil {
		c.broken = true
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		c.broken = true
		return nil, err
	}

	results := make([]PipelineResult, len(stmts))
	seen := make([]bool, len(stmts))
	take := func(idx uint32) (int, error) {
		i := int(idx)
		if i >= len(stmts) || seen[i] {
			c.broken = true
			return 0, fmt.Errorf("client: batch reply for bad index %d", idx)
		}
		seen[i] = true
		return i, nil
	}
	for {
		reply, err := protocol.ReadMsg(c.br)
		if err != nil {
			c.broken = true
			return nil, err
		}
		switch m := reply.(type) {
		case *protocol.BatchResult:
			i, err := take(m.Index)
			if err != nil {
				return nil, err
			}
			results[i] = PipelineResult{RowsAffected: m.RowsAffected}
		case *protocol.BatchError:
			i, err := take(m.Index)
			if err != nil {
				return nil, err
			}
			results[i] = PipelineResult{Err: &protocol.Error{Code: m.Code, Msg: m.Msg}}
		case *protocol.BatchRowsHeader:
			i, err := take(m.Index)
			if err != nil {
				return nil, err
			}
			rows := &Rows{Columns: m.Columns}
			for {
				next, err := protocol.ReadMsg(c.br)
				if err != nil {
					c.broken = true
					return nil, err
				}
				rb, ok := next.(*protocol.RowBatch)
				if !ok {
					return nil, c.protocolViolation(next)
				}
				rows.Data = append(rows.Data, rb.Rows...)
				if rb.Last {
					break
				}
			}
			results[i] = PipelineResult{Rows: rows}
		case *protocol.BatchDone:
			for i := range seen {
				if !seen[i] {
					c.broken = true
					return nil, fmt.Errorf("client: BatchDone with statement %d unanswered", i)
				}
			}
			return results, nil
		case *protocol.Error:
			// A non-batch error (e.g. protocol-level) aborts the exchange;
			// the reply stream is no longer 1:1 with the batch.
			c.broken = true
			return nil, m
		default:
			return nil, c.protocolViolation(reply)
		}
	}
}

// Ping round-trips a health check.
func (c *Conn) Ping() error {
	reply, err := c.roundTrip(&protocol.Ping{})
	if err != nil {
		return err
	}
	if _, ok := reply.(*protocol.Pong); !ok {
		return c.protocolViolation(reply)
	}
	return nil
}

// ServerStats fetches the server's counters as JSON.
func (c *Conn) ServerStats() ([]byte, error) {
	reply, err := c.roundTrip(&protocol.Stats{})
	if err != nil {
		return nil, err
	}
	switch m := reply.(type) {
	case *protocol.StatsResult:
		return m.JSON, nil
	case *protocol.Error:
		return nil, m
	}
	return nil, c.protocolViolation(reply)
}

// Healthy reports whether the connection can still carry requests.
func (c *Conn) Healthy() bool {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	return !c.closed && !c.broken
}

// Close sends a best-effort Goodbye and closes the socket. The server
// rolls back any transaction left open.
func (c *Conn) Close() error {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if !c.broken {
		if protocol.WriteFrame(c.bw, protocol.Encode(&protocol.Goodbye{})) == nil {
			c.bw.Flush()
		}
	}
	return c.nc.Close()
}

// ErrorCode extracts a server error code from err (a *protocol.Error
// anywhere in the chain); ok is false for transport-level errors.
func ErrorCode(err error) (code uint16, ok bool) {
	var pe *protocol.Error
	if errors.As(err, &pe) {
		return pe.Code, true
	}
	return 0, false
}

// IsConflict reports a first-updater-wins write conflict (the server
// rolled the transaction back; retry it).
func IsConflict(err error) bool {
	code, ok := ErrorCode(err)
	return ok && code == protocol.CodeConflict
}

// IsRateLimited reports a statement rejected by the tenant's rate
// limit (the connection is still usable; back off and retry).
func IsRateLimited(err error) bool {
	code, ok := ErrorCode(err)
	return ok && code == protocol.CodeRateLimit
}
