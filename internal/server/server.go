// Package server is the network front door over the engine: it speaks
// the internal/protocol wire format, authenticates tenants (token
// check, session quota, statement rate limit — see Authenticator),
// keeps an append-only audit trail, and multiplexes one engine Session
// (or one session-backed tenant Mapper, in layout mode) per accepted
// connection through a registry.
//
// Disconnect semantics are the package's reason to exist: however a
// connection dies — clean Goodbye, torn frame, TCP reset mid-DML,
// server shutdown — the reap path runs exactly once and closes the
// engine session, which waits out any in-flight statement, rolls back
// the open transaction, releases write-admission tokens, and unpins
// the snapshot. A dropped client can therefore never wedge the GC
// horizon or leak a quota slot.
//
// The statement path is built for thousands of connections: logical
// SQL resolves through a shared per-tenant rewrite cache (layout
// mode), pipelined Batch frames amortize round trips and flush once
// per batch, responses are encoded into a per-connection reusable
// arena, and a bounded FIFO executor admits statements fairly instead
// of letting every connection pile onto the engine at once.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mvcc"
	"repro/internal/protocol"
	"repro/internal/sql"
	"repro/internal/types"
)

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("server: closed")

// Config configures a Server.
type Config struct {
	// DB is the engine to serve. Required.
	DB *engine.DB
	// Layout, when non-nil, puts the server in layout mode: clients send
	// LOGICAL SQL which is tenant-rewritten through a session-backed
	// core.Mapper, so a connection can only ever touch its own tenant's
	// rows. With Layout nil, clients send physical SQL straight to an
	// engine session (trusted/admin deployments and the benchmarks).
	Layout core.Layout
	// Auth authenticates handshakes and enforces quotas and rate limits.
	// Nil accepts every credential with no limits (tests, local bench).
	Auth *Authenticator
	// Audit receives connection and rejection events (nil: no auditing).
	Audit *AuditLog
	// MaxRowBatch bounds rows per RowBatch frame (default 256).
	MaxRowBatch int
	// HandshakeTimeout bounds how long an accepted connection may take
	// to complete its Hello (default 5s) so half-open connections cannot
	// hold sockets forever.
	HandshakeTimeout time.Duration
	// MaxConcurrent bounds how many statements (or batches) execute
	// simultaneously; excess connections park in a fair FIFO queue.
	// 0 picks a default sized to the host (8×GOMAXPROCS, at least 32 —
	// well above the core count, because an in-flight session spends
	// most of its life parked in group-commit flushes or buffer-pool
	// misses, not on a CPU; not far above it, because admitting too
	// many writers multiplies first-updater-wins conflict aborts);
	// negative disables the gate entirely.
	MaxConcurrent int
}

// Stats is a point-in-time snapshot of the server's counters plus the
// engine's leak-relevant gauges and the statement-path caches.
type Stats struct {
	Accepted        int64  `json:"accepted"`
	OpenSessions    int    `json:"open_sessions"`
	Statements      int64  `json:"statements"`
	Batches         int64  `json:"batches"`
	AuthFailures    int64  `json:"auth_failures"`
	QuotaRejects    int64  `json:"quota_rejects"`
	RateLimited     int64  `json:"rate_limited"`
	ProtocolErrors  int64  `json:"protocol_errors"`
	AuditSeq        uint64 `json:"audit_seq"`
	ActiveTxns      int64  `json:"active_txns"`
	PinnedSnapshots int64  `json:"pinned_snapshots"`

	// Rewrite-cache counters (layout mode; zero otherwise). The cache is
	// the layout's, so these count every Mapper over it, the server's
	// connections and anything else in the process.
	RewriteHits         int64   `json:"rewrite_hits"`
	RewriteTemplateHits int64   `json:"rewrite_template_hits"`
	RewriteMisses       int64   `json:"rewrite_misses"`
	RewriteUncacheable  int64   `json:"rewrite_uncacheable"`
	RewriteHitRate      float64 `json:"rewrite_hit_rate"`
	// Cached UPDATE/DELETE executions by shape: one direct physical
	// statement, or §6.3's two phases (see core.RewriteCacheStats).
	DirectDML   int64 `json:"direct_dml"`
	TwoPhaseDML int64 `json:"two_phase_dml"`

	// Engine plan-cache counters.
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`

	// Fair-admission executor gauges (zero when the gate is disabled).
	ExecSlots      int   `json:"exec_slots"`
	ExecActive     int   `json:"exec_active"`
	ExecQueueDepth int   `json:"exec_queue_depth"`
	ExecQueueMax   int   `json:"exec_queue_max"`
	ExecWaits      int64 `json:"exec_waits"`
	ExecWaitMicros int64 `json:"exec_wait_micros"`

	// Replication gauges. On a primary with subscribers: furthest
	// shipped stream offset, highest acknowledged apply position, ack
	// count, and how far the slowest acked subscriber trails the durable
	// horizon. On a replica: applied positions and ingest-to-apply lag.
	ReplShippedLSN       uint64 `json:"repl_shipped_lsn"`
	ReplAckedLSN         uint64 `json:"repl_acked_lsn"`
	ReplAckRoundTrips    int64  `json:"repl_ack_round_trips"`
	ReplAppliedLSN       uint64 `json:"repl_applied_lsn"`
	ReplAppliedCommitLSN uint64 `json:"repl_applied_commit_lsn"`
	ReplLagBytes         int64  `json:"repl_lag_bytes"`
}

// Server accepts protocol connections and drives them against the
// engine. Construct with New, then Serve/ListenAndServe.
type Server struct {
	cfg  Config
	reg  *registry
	exec *executor

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	nextID uint64

	wg sync.WaitGroup

	accepted    atomic.Int64
	statements  atomic.Int64
	batches     atomic.Int64
	authFails   atomic.Int64
	quotaFails  atomic.Int64
	rateLimited atomic.Int64
	protoErrors atomic.Int64
}

// New builds a server over cfg. cfg.DB is required.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	if cfg.MaxRowBatch <= 0 {
		cfg.MaxRowBatch = 256
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 5 * time.Second
	}
	slots := cfg.MaxConcurrent
	if slots == 0 {
		slots = 8 * runtime.GOMAXPROCS(0)
		if slots < 32 {
			slots = 32
		}
	}
	return &Server{cfg: cfg, reg: newRegistry(), exec: newExecutor(slots)}, nil
}

// ListenAndServe listens on addr ("host:port") and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Start listens on addr and serves in a background goroutine,
// returning the bound address (use ":0" for an ephemeral port).
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Serve accepts connections on ln until Close. It returns
// ErrServerClosed after a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.accepted.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(nc)
		}()
	}
}

// Close stops accepting, reaps every live session (rolling back its
// open transaction), waits for the handlers to drain, and flushes the
// audit trail so no buffered event is lost.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range s.reg.snapshot() {
		s.reap(c, "server shutdown")
	}
	s.wg.Wait()
	s.cfg.Audit.Flush()
	return nil
}

// OpenSessions reports live registered sessions (the drain check).
func (s *Server) OpenSessions() int { return s.reg.len() }

// CloseSessions reaps every currently live session — rolling back open
// transactions and dropping the sockets — while the listener keeps
// accepting. An admin drain, and the client pool tests' way to
// simulate a server-side kill.
func (s *Server) CloseSessions() {
	for _, c := range s.reg.snapshot() {
		s.reap(c, "admin session close")
	}
}

// Stats snapshots the server's counters, the statement-path caches,
// and the engine's leak gauges.
func (s *Server) Stats() Stats {
	est := s.cfg.DB.Stats()
	st := Stats{
		Accepted:        s.accepted.Load(),
		OpenSessions:    s.reg.len(),
		Statements:      s.statements.Load(),
		Batches:         s.batches.Load(),
		AuthFailures:    s.authFails.Load(),
		QuotaRejects:    s.quotaFails.Load(),
		RateLimited:     s.rateLimited.Load(),
		ProtocolErrors:  s.protoErrors.Load(),
		AuditSeq:        s.cfg.Audit.Seq(),
		ActiveTxns:      est.ActiveTxns,
		PinnedSnapshots: est.PinnedSnapshots,
		PlanCacheHits:   est.PlanCacheHits,
		PlanCacheMisses: est.PlanCacheMisses,

		ReplShippedLSN:       est.ReplShippedLSN,
		ReplAckedLSN:         est.ReplAckedLSN,
		ReplAckRoundTrips:    est.ReplAckRoundTrips,
		ReplAppliedLSN:       est.ReplAppliedLSN,
		ReplAppliedCommitLSN: est.ReplAppliedCommitLSN,
		ReplLagBytes:         est.ReplLagBytes,
	}
	if s.cfg.Layout != nil {
		rc := core.SharedRewriteCache(s.cfg.Layout).Stats()
		st.RewriteHits = rc.Hits
		st.RewriteTemplateHits = rc.TemplateHits
		st.RewriteMisses = rc.Misses
		st.RewriteUncacheable = rc.Uncacheable
		st.RewriteHitRate = rc.HitRate()
		st.DirectDML = rc.DirectDML
		st.TwoPhaseDML = rc.TwoPhaseDML
	}
	if es := s.exec.stats(); es.slots > 0 {
		st.ExecSlots = es.slots
		st.ExecActive = es.active
		st.ExecQueueDepth = es.queueDepth
		st.ExecQueueMax = es.queueMax
		st.ExecWaits = es.waits
		st.ExecWaitMicros = es.waitNanos / 1e3
	}
	return st
}

// --- connection handling -----------------------------------------------------

// connWriter owns a connection's response path: a FrameWriter encoding
// into a reusable arena over a buffered socket writer. Responses
// coalesce in the buffer and hit the kernel once per flush point — the
// end of a reply for single statements, the end of the whole batch for
// pipelined ones.
type connWriter struct {
	bw *bufio.Writer
	fw *protocol.FrameWriter
}

func newConnWriter(nc net.Conn) *connWriter {
	bw := bufio.NewWriter(nc)
	return &connWriter{bw: bw, fw: protocol.NewFrameWriter(bw)}
}

// send frames one message into the buffer without flushing.
func (w *connWriter) send(m any) error { return w.fw.WriteMsg(m) }

// flush pushes everything buffered to the socket.
func (w *connWriter) flush() error { return w.bw.Flush() }

// writeMsg frames, writes, and flushes one message — the response
// boundary for non-pipelined traffic.
func writeMsg(w *connWriter, m any) error {
	if err := w.send(m); err != nil {
		return err
	}
	return w.flush()
}

// errCode maps a statement error onto its protocol error code.
func errCode(err error) uint16 {
	switch {
	case errors.Is(err, mvcc.ErrWriteConflict):
		return protocol.CodeConflict
	case errors.Is(err, engine.ErrSessionClosed):
		return protocol.CodeClosed
	}
	return protocol.CodeSQL
}

// handleConn runs one connection: handshake, then the statement loop.
func (s *Server) handleConn(nc net.Conn) {
	br := bufio.NewReader(nc)
	w := newConnWriter(nc)

	c, ok := s.handshake(nc, br, w)
	if !ok {
		nc.Close()
		return
	}
	defer s.reap(c, "connection closed")

	for {
		payload, err := protocol.ReadFrame(br)
		if err != nil {
			// io.EOF at a frame boundary is the normal abrupt close; a
			// torn frame, oversized frame, or bad CRC is a protocol error
			// worth telling the peer about (best effort) before dropping.
			if errors.Is(err, protocol.ErrBadCRC) || errors.Is(err, protocol.ErrFrameTooLarge) {
				s.protoErrors.Add(1)
				writeMsg(w, &protocol.Error{Code: protocol.CodeProtocol, Msg: err.Error()})
			}
			return
		}
		msg, err := protocol.Decode(payload)
		if err != nil {
			s.protoErrors.Add(1)
			writeMsg(w, &protocol.Error{Code: protocol.CodeProtocol, Msg: err.Error()})
			return
		}
		if sub, ok := msg.(*protocol.ReplSubscribe); ok {
			// The connection becomes a one-way WAL stream; it never
			// returns to the statement loop.
			s.serveReplication(c, br, w, sub)
			return
		}
		if done, err := s.dispatch(c, w, msg); done || err != nil {
			return
		}
	}
}

// handshake performs the credentialed Hello exchange under a deadline.
func (s *Server) handshake(nc net.Conn, br *bufio.Reader, w *connWriter) (*connState, bool) {
	nc.SetReadDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	defer nc.SetReadDeadline(time.Time{})

	payload, err := protocol.ReadFrame(br)
	if err != nil {
		return nil, false
	}
	msg, err := protocol.Decode(payload)
	if err != nil {
		s.protoErrors.Add(1)
		writeMsg(w, &protocol.Error{Code: protocol.CodeProtocol, Msg: err.Error()})
		return nil, false
	}
	hello, ok := msg.(*protocol.Hello)
	if !ok {
		s.protoErrors.Add(1)
		writeMsg(w, &protocol.Error{Code: protocol.CodeProtocol, Msg: "expected Hello"})
		return nil, false
	}
	if hello.Version != protocol.Version {
		s.protoErrors.Add(1)
		writeMsg(w, &protocol.Error{
			Code: protocol.CodeProtocol,
			Msg:  fmt.Sprintf("protocol version %d, server speaks %d", hello.Version, protocol.Version),
		})
		return nil, false
	}
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.mu.Unlock()
	if s.cfg.Auth != nil {
		if err := s.cfg.Auth.Authenticate(hello.Tenant, hello.Token); err != nil {
			s.authFails.Add(1)
			s.cfg.Audit.Record(hello.Tenant, id, AuditAuthFail, err.Error())
			writeMsg(w, &protocol.Error{Code: protocol.CodeAuth, Msg: "authentication failed"})
			return nil, false
		}
		if err := s.cfg.Auth.AcquireSession(hello.Tenant); err != nil {
			s.quotaFails.Add(1)
			s.cfg.Audit.Record(hello.Tenant, id, AuditQuota, err.Error())
			writeMsg(w, &protocol.Error{Code: protocol.CodeQuota, Msg: err.Error()})
			return nil, false
		}
	}
	c := &connState{id: id, tenant: hello.Tenant, nc: nc, stmts: make(map[uint32]*prepStmt)}
	if s.cfg.Layout != nil {
		c.mapper = core.NewSessionMapper(s.cfg.DB, s.cfg.Layout)
		c.sess = c.mapper.Session
	} else {
		c.sess = s.cfg.DB.Session()
	}
	s.reg.add(c)
	s.cfg.Audit.Record(c.tenant, c.id, AuditConnect, nc.RemoteAddr().String())
	if err := writeMsg(w, &protocol.HelloOK{SessionID: id}); err != nil {
		s.reap(c, "handshake write failed")
		return nil, false
	}
	return c, true
}

// reap tears one connection down exactly once: socket, engine session
// (rollback of any open transaction, admission tokens, snapshot pin),
// registry entry, quota slot, audit record — in that order, so by the
// time the registry is empty the engine holds nothing for this client.
func (s *Server) reap(c *connState, reason string) {
	c.reapOnce.Do(func() {
		c.nc.Close()
		c.sess.Close()
		s.reg.remove(c.id)
		if s.cfg.Auth != nil {
			s.cfg.Auth.ReleaseSession(c.tenant)
		}
		s.cfg.Audit.Record(c.tenant, c.id, AuditDisconnect, reason)
	})
}

// admitStatement charges the rate limiter; on rejection it reports the
// Error to the client (the connection survives) and returns false.
// detail is the statement summary for the (optional) per-statement
// audit trail.
func (s *Server) admitStatement(c *connState, w *connWriter, detail string) bool {
	s.statements.Add(1)
	if s.cfg.Audit != nil && s.cfg.Audit.Statements {
		s.cfg.Audit.Record(c.tenant, c.id, AuditStatement, detail)
	}
	if s.cfg.Auth == nil {
		return true
	}
	if err := s.cfg.Auth.AllowStatement(c.tenant); err != nil {
		s.rateLimited.Add(1)
		s.cfg.Audit.Record(c.tenant, c.id, AuditRateLimit, err.Error())
		writeMsg(w, &protocol.Error{Code: protocol.CodeRateLimit, Msg: err.Error()})
		return false
	}
	return true
}

// dispatch handles one decoded client message. done means the
// connection should close (Goodbye); a non-nil error means the socket
// is gone.
//
// Statement-bearing messages pass through the fair-admission executor:
// the connection parks in FIFO order for a slot, holds it across
// execution and response encoding, and releases it at the flush point.
// Control traffic (Ping, Goodbye, Stats, Prepare, StmtClose) bypasses
// the gate so health checks and teardown stay responsive under load.
func (s *Server) dispatch(c *connState, w *connWriter, msg any) (done bool, err error) {
	switch msg.(type) {
	case *protocol.Exec, *protocol.Query, *protocol.StmtExec, *protocol.StmtQuery, *protocol.Batch:
		// Statement work passes the fair-admission gate; control
		// traffic below bypasses it so a loaded server still answers
		// pings and stats.
		s.exec.acquire()
		defer s.exec.release()
	}

	switch m := msg.(type) {
	case *protocol.Ping:
		return false, writeMsg(w, &protocol.Pong{})
	case *protocol.Goodbye:
		s.reap(c, "goodbye")
		return true, nil
	case *protocol.Stats:
		b, jerr := json.Marshal(s.Stats())
		if jerr != nil {
			return false, writeMsg(w, &protocol.Error{Code: protocol.CodeSQL, Msg: jerr.Error()})
		}
		return false, writeMsg(w, &protocol.StatsResult{JSON: b})

	case *protocol.Exec:
		if !s.admitStatement(c, w, m.SQL) {
			return false, nil
		}
		if perr := protocol.SanitizeParams(m.Params); perr != nil {
			return false, writeMsg(w, &protocol.Error{Code: protocol.CodeProtocol, Msg: perr.Error()})
		}
		res, xerr := s.doExec(c, m.SQL, m.Params)
		if xerr != nil {
			return false, writeMsg(w, &protocol.Error{Code: errCode(xerr), Msg: xerr.Error()})
		}
		return false, writeMsg(w, &protocol.Result{RowsAffected: res.RowsAffected})

	case *protocol.Query:
		if !s.admitStatement(c, w, m.SQL) {
			return false, nil
		}
		if perr := protocol.SanitizeParams(m.Params); perr != nil {
			return false, writeMsg(w, &protocol.Error{Code: protocol.CodeProtocol, Msg: perr.Error()})
		}
		rows, qerr := s.doQuery(c, m.SQL, m.Params)
		if qerr != nil {
			return false, writeMsg(w, &protocol.Error{Code: errCode(qerr), Msg: qerr.Error()})
		}
		return false, s.writeRows(w, rows)

	case *protocol.Batch:
		return false, s.doBatch(c, w, m)

	case *protocol.Prepare:
		ps, perr := s.prepare(c, m.SQL)
		if perr != nil {
			return false, writeMsg(w, &protocol.Error{Code: errCode(perr), Msg: perr.Error()})
		}
		c.nextStmt++
		id := c.nextStmt
		c.stmts[id] = ps
		return false, writeMsg(w, &protocol.Prepared{ID: id, IsQuery: ps.isQuery})

	case *protocol.StmtExec:
		if !s.admitStatement(c, w, fmt.Sprintf("stmt %d", m.ID)) {
			return false, nil
		}
		ps, ok := c.stmts[m.ID]
		if !ok {
			return false, writeMsg(w, &protocol.Error{Code: protocol.CodeSQL, Msg: fmt.Sprintf("unknown statement %d", m.ID)})
		}
		if perr := protocol.SanitizeParams(m.Params); perr != nil {
			return false, writeMsg(w, &protocol.Error{Code: protocol.CodeProtocol, Msg: perr.Error()})
		}
		res, xerr := s.execPrepared(c, ps, m.Params)
		if xerr != nil {
			return false, writeMsg(w, &protocol.Error{Code: errCode(xerr), Msg: xerr.Error()})
		}
		return false, writeMsg(w, &protocol.Result{RowsAffected: res.RowsAffected})

	case *protocol.StmtQuery:
		if !s.admitStatement(c, w, fmt.Sprintf("stmt %d", m.ID)) {
			return false, nil
		}
		ps, ok := c.stmts[m.ID]
		if !ok {
			return false, writeMsg(w, &protocol.Error{Code: protocol.CodeSQL, Msg: fmt.Sprintf("unknown statement %d", m.ID)})
		}
		if perr := protocol.SanitizeParams(m.Params); perr != nil {
			return false, writeMsg(w, &protocol.Error{Code: protocol.CodeProtocol, Msg: perr.Error()})
		}
		rows, qerr := s.queryPrepared(c, ps, m.Params)
		if qerr != nil {
			return false, writeMsg(w, &protocol.Error{Code: errCode(qerr), Msg: qerr.Error()})
		}
		return false, s.writeRows(w, rows)

	case *protocol.StmtClose:
		delete(c.stmts, m.ID)
		return false, writeMsg(w, &protocol.Result{})
	}
	s.protoErrors.Add(1)
	return false, writeMsg(w, &protocol.Error{Code: protocol.CodeProtocol, Msg: fmt.Sprintf("unexpected message %T", msg)})
}

// --- pipelined batches -------------------------------------------------------

// doBatch executes a pipelined Batch strictly in order, one tagged
// reply per statement, a single BatchDone trailer, one flush for the
// whole exchange.
//
// Error semantics: the first failure — rate limit, bad params, SQL
// error, write conflict — poisons the remainder. Poisoned statements
// are NOT executed; each answers BatchError{CodePoisoned} so replies
// stay 1:1 with statements. This is what makes a pipelined
// BEGIN…COMMIT safe: once any statement inside the transaction fails,
// the trailing COMMIT is poisoned and can never commit a partial
// transaction. The client sees the real error at its index, rolls
// back, and retries.
func (s *Server) doBatch(c *connState, w *connWriter, m *protocol.Batch) error {
	s.batches.Add(1)
	var poisoned error
	var executed uint32
	for i, bs := range m.Stmts {
		idx := uint32(i)
		if poisoned != nil {
			if err := w.send(&protocol.BatchError{Index: idx, Code: protocol.CodePoisoned, Msg: "not executed: " + poisoned.Error()}); err != nil {
				return err
			}
			continue
		}
		s.statements.Add(1)
		if s.cfg.Audit != nil && s.cfg.Audit.Statements {
			s.cfg.Audit.Record(c.tenant, c.id, AuditStatement, bs.SQL)
		}
		if s.cfg.Auth != nil {
			if err := s.cfg.Auth.AllowStatement(c.tenant); err != nil {
				s.rateLimited.Add(1)
				s.cfg.Audit.Record(c.tenant, c.id, AuditRateLimit, err.Error())
				poisoned = err
				if werr := w.send(&protocol.BatchError{Index: idx, Code: protocol.CodeRateLimit, Msg: err.Error()}); werr != nil {
					return werr
				}
				continue
			}
		}
		if perr := protocol.SanitizeParams(bs.Params); perr != nil {
			poisoned = perr
			if werr := w.send(&protocol.BatchError{Index: idx, Code: protocol.CodeProtocol, Msg: perr.Error()}); werr != nil {
				return werr
			}
			continue
		}
		if bs.Query {
			rows, qerr := s.doQuery(c, bs.SQL, bs.Params)
			if qerr != nil {
				poisoned = qerr
				if werr := w.send(&protocol.BatchError{Index: idx, Code: errCode(qerr), Msg: qerr.Error()}); werr != nil {
					return werr
				}
				continue
			}
			executed++
			if werr := s.writeBatchRows(w, idx, rows); werr != nil {
				return werr
			}
			continue
		}
		res, xerr := s.doExec(c, bs.SQL, bs.Params)
		if xerr != nil {
			poisoned = xerr
			if werr := w.send(&protocol.BatchError{Index: idx, Code: errCode(xerr), Msg: xerr.Error()}); werr != nil {
				return werr
			}
			continue
		}
		executed++
		if werr := w.send(&protocol.BatchResult{Index: idx, RowsAffected: res.RowsAffected}); werr != nil {
			return werr
		}
	}
	if err := w.send(&protocol.BatchDone{Executed: executed}); err != nil {
		return err
	}
	return w.flush()
}

// writeBatchRows streams one batch statement's result: an indexed
// header, then ordinary RowBatch frames. No flush — the batch's
// trailer flushes everything at once.
func (s *Server) writeBatchRows(w *connWriter, idx uint32, rows *engine.Rows) error {
	if err := w.send(&protocol.BatchRowsHeader{Index: idx, Columns: rows.Columns}); err != nil {
		return err
	}
	data := rows.Data
	for {
		n := len(data)
		last := n <= s.cfg.MaxRowBatch
		if !last {
			n = s.cfg.MaxRowBatch
		}
		if err := w.send(&protocol.RowBatch{Rows: data[:n], Last: last}); err != nil {
			return err
		}
		if last {
			return nil
		}
		data = data[n:]
	}
}

// --- statement execution -----------------------------------------------------

// doExec runs one non-query (or drained SELECT) statement. In layout
// mode the text resolves through the shared rewrite cache (Mapper.Do),
// so the statement's shape is decided by the cache lookup itself —
// no pre-parse on the hot path.
func (s *Server) doExec(c *connState, q string, params []types.Value) (engine.Result, error) {
	if c.mapper == nil {
		return c.sess.Exec(q, params...)
	}
	res, rows, err := c.mapper.Do(c.tenant, q, params...)
	if err != nil {
		return engine.Result{}, err
	}
	if rows != nil {
		// Exec-of-SELECT in layout mode: run and drain.
		return engine.Result{RowsAffected: int64(len(rows.Data))}, nil
	}
	return res, nil
}

// doQuery runs one SELECT.
func (s *Server) doQuery(c *connState, q string, params []types.Value) (*engine.Rows, error) {
	if c.mapper == nil {
		return c.sess.Query(q, params...)
	}
	return c.mapper.Query(c.tenant, q, params...)
}

// prepare registers one statement. In raw mode it is parsed once and
// the SQL string doubles as the engine's plan-cache key; in layout mode
// the rewrite is tenant-dependent, so only the classification happens
// here and the per-execution lookup goes through the rewrite cache.
func (s *Server) prepare(c *connState, q string) (*prepStmt, error) {
	st, err := sql.Parse(q)
	if err != nil {
		return nil, err
	}
	ps := &prepStmt{sql: q, st: st}
	if sel, ok := st.(*sql.SelectStmt); ok {
		ps.sel = sel
		ps.isQuery = true
	}
	return ps, nil
}

func (s *Server) execPrepared(c *connState, ps *prepStmt, params []types.Value) (engine.Result, error) {
	if c.mapper != nil {
		return s.doExec(c, ps.sql, params)
	}
	return c.sess.ExecStmt(ps.st, ps.sql, params...)
}

func (s *Server) queryPrepared(c *connState, ps *prepStmt, params []types.Value) (*engine.Rows, error) {
	if !ps.isQuery {
		return nil, fmt.Errorf("server: prepared statement is not a query")
	}
	if c.mapper != nil {
		return c.mapper.Query(c.tenant, ps.sql, params...)
	}
	return c.sess.QueryStmt(ps.sel, ps.sql, params...)
}

// writeRows streams a materialized result as RowsHeader + RowBatch
// frames, chunked to MaxRowBatch rows per frame; the final batch
// carries Last (a zero-row result is a single empty Last batch). The
// frames coalesce in the connection buffer and flush once at the end.
func (s *Server) writeRows(w *connWriter, rows *engine.Rows) error {
	if err := w.send(&protocol.RowsHeader{Columns: rows.Columns}); err != nil {
		return err
	}
	data := rows.Data
	for {
		n := len(data)
		last := n <= s.cfg.MaxRowBatch
		if !last {
			n = s.cfg.MaxRowBatch
		}
		if err := w.send(&protocol.RowBatch{Rows: data[:n], Last: last}); err != nil {
			return err
		}
		if last {
			return w.flush()
		}
		data = data[n:]
	}
}
