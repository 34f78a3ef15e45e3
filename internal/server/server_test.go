package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/types"
)

// testConn is a minimal wire client for exercising the server without
// the client package (the tests poke at raw frames too).
type testConn struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialServer(t *testing.T, addr net.Addr) *testConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &testConn{t: t, nc: nc, br: bufio.NewReader(nc)}
}

func (c *testConn) send(m any) {
	c.t.Helper()
	if err := protocol.WriteFrame(c.nc, protocol.Encode(m)); err != nil {
		c.t.Fatalf("send %T: %v", m, err)
	}
}

func (c *testConn) recv() any {
	c.t.Helper()
	payload, err := protocol.ReadFrame(c.br)
	if err != nil {
		c.t.Fatalf("recv: %v", err)
	}
	m, err := protocol.Decode(payload)
	if err != nil {
		c.t.Fatalf("decode: %v", err)
	}
	return m
}

// recvErr expects an Error with the given code.
func (c *testConn) recvErr(code uint16) *protocol.Error {
	c.t.Helper()
	m := c.recv()
	e, ok := m.(*protocol.Error)
	if !ok {
		c.t.Fatalf("expected Error, got %T", m)
	}
	if e.Code != code {
		c.t.Fatalf("error code = %d (%s), want %d", e.Code, e.Msg, code)
	}
	return e
}

// hello performs a successful handshake.
func (c *testConn) hello(tenant int64, token string) {
	c.t.Helper()
	c.send(&protocol.Hello{Version: protocol.Version, Tenant: tenant, Token: token})
	if m := c.recv(); func() bool { _, ok := m.(*protocol.HelloOK); return !ok }() {
		c.t.Fatalf("expected HelloOK, got %#v", m)
	}
}

// exec sends one non-query statement as a Batch of one and expects
// its BatchResult.
func (c *testConn) exec(text string, params ...types.Value) *protocol.BatchResult {
	c.t.Helper()
	replies, _ := c.pipeline(x(text, params...))
	if replies[0].result == nil {
		c.t.Fatalf("exec %q: expected BatchResult, got %+v", text, replies[0].err)
	}
	return replies[0].result
}

// query sends one SELECT as a Batch of one and collects its rows.
func (c *testConn) query(text string, params ...types.Value) ([]string, [][]types.Value) {
	c.t.Helper()
	replies, _ := c.pipeline(q(text, params...))
	if !replies[0].isRows {
		c.t.Fatalf("query %q: expected rows, got %+v", text, replies[0].err)
	}
	return replies[0].cols, replies[0].rows
}

// fail sends one statement as a Batch of one and expects it to fail,
// unexecuted, with code.
func (c *testConn) fail(code uint16, st protocol.BatchStmt) {
	c.t.Helper()
	replies, done := c.pipeline(st)
	if e := replies[0].err; e == nil || e.Code != code || done.Executed != 0 {
		c.t.Fatalf("%q: want error code %d, got %+v (executed %d)", st.SQL, code, e, done.Executed)
	}
}

// startRawServer builds an engine with one table and a raw-mode server.
func startRawServer(t *testing.T, cfg Config) (*Server, *engine.DB, net.Addr) {
	t.Helper()
	db := engine.Open(engine.Config{CheckpointBytes: -1})
	for _, q := range []string{
		"CREATE TABLE t (k INTEGER NOT NULL, v INTEGER)",
		"CREATE UNIQUE INDEX t_pk ON t (k)",
		"CREATE TABLE u (k INTEGER NOT NULL, v INTEGER)",
		"INSERT INTO u VALUES (0, 0)",
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 8; k++ {
		if _, err := db.Exec("INSERT INTO t VALUES (?, 0)", types.NewInt(int64(k))); err != nil {
			t.Fatal(err)
		}
	}
	cfg.DB = db
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, db, addr
}

// waitDrained polls until the registry is empty and the engine holds
// no transactions or snapshot pins.
func waitDrained(t *testing.T, srv *Server, db *engine.DB) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := db.Stats()
		if srv.OpenSessions() == 0 && st.ActiveTxns == 0 && st.PinnedSnapshots == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("not drained: sessions=%d active=%d pinned=%d",
				srv.OpenSessions(), st.ActiveTxns, st.PinnedSnapshots)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHandshakeAuth(t *testing.T) {
	auth := NewAuthenticator()
	auth.Register(7, Credentials{Token: "secret"})
	audit := NewAuditLog(0, nil)
	srv, _, addr := startRawServer(t, Config{Auth: auth, Audit: audit})

	// Wrong token.
	c := dialServer(t, addr)
	c.send(&protocol.Hello{Version: protocol.Version, Tenant: 7, Token: "wrong"})
	c.recvErr(protocol.CodeAuth)

	// Unknown tenant: same error, no tenant-existence oracle.
	c = dialServer(t, addr)
	c.send(&protocol.Hello{Version: protocol.Version, Tenant: 99, Token: "secret"})
	c.recvErr(protocol.CodeAuth)

	// Wrong protocol version: a newer one, and version 1, whose
	// single-statement and prepared-statement messages are retired.
	for _, v := range []uint32{protocol.Version + 1, 1} {
		c = dialServer(t, addr)
		c.send(&protocol.Hello{Version: v, Tenant: 7, Token: "secret"})
		c.recvErr(protocol.CodeProtocol)
	}

	// First frame is not a Hello.
	c = dialServer(t, addr)
	c.send(&protocol.Ping{})
	c.recvErr(protocol.CodeProtocol)

	// Good credentials.
	c = dialServer(t, addr)
	c.hello(7, "secret")
	c.send(&protocol.Ping{})
	if _, ok := c.recv().(*protocol.Pong); !ok {
		t.Fatal("expected Pong")
	}

	if got := srv.Stats().AuthFailures; got != 2 {
		t.Fatalf("auth failures = %d, want 2", got)
	}
	// The audit trail saw the failures and the connect.
	var fails, connects int
	for _, e := range audit.Recent(100) {
		switch e.Event {
		case AuditAuthFail:
			fails++
		case AuditConnect:
			connects++
		}
	}
	if fails != 2 || connects != 1 {
		t.Fatalf("audit: fails=%d connects=%d, want 2/1", fails, connects)
	}
}

func TestSessionQuota(t *testing.T) {
	auth := NewAuthenticator()
	auth.Register(1, Credentials{Token: "tk", MaxSessions: 1})
	srv, db, addr := startRawServer(t, Config{Auth: auth})

	c1 := dialServer(t, addr)
	c1.hello(1, "tk")

	c2 := dialServer(t, addr)
	c2.send(&protocol.Hello{Version: protocol.Version, Tenant: 1, Token: "tk"})
	c2.recvErr(protocol.CodeQuota)

	// Releasing the first slot admits a new connection.
	c1.send(&protocol.Goodbye{})
	waitDrained(t, srv, db)
	c3 := dialServer(t, addr)
	c3.hello(1, "tk")
	if got := auth.Sessions(1); got != 1 {
		t.Fatalf("sessions = %d, want 1", got)
	}
}

func TestStatementRateLimit(t *testing.T) {
	auth := NewAuthenticator()
	auth.Register(1, Credentials{Token: "tk", StatementsPerSec: 1, Burst: 2})
	// Frozen clock: no refill during the test.
	now := time.Unix(1000, 0)
	auth.now = func() time.Time { return now }
	srv, _, addr := startRawServer(t, Config{Auth: auth})

	c := dialServer(t, addr)
	c.hello(1, "tk")
	c.exec("SELECT COUNT(*) FROM t")
	c.exec("SELECT COUNT(*) FROM t")
	// Bucket empty: rejected, but the connection survives.
	c.fail(protocol.CodeRateLimit, x("SELECT COUNT(*) FROM t"))
	// Refill one token.
	now = now.Add(1100 * time.Millisecond)
	c.exec("SELECT COUNT(*) FROM t")
	if got := srv.Stats().RateLimited; got != 1 {
		t.Fatalf("rate limited = %d, want 1", got)
	}
}

func TestExecQueryRoundTrip(t *testing.T) {
	_, _, addr := startRawServer(t, Config{})
	c := dialServer(t, addr)
	c.hello(0, "")

	if r := c.exec("UPDATE t SET v = 5 WHERE k = 2"); r.RowsAffected != 1 {
		t.Fatalf("update affected %d rows", r.RowsAffected)
	}
	cols, rows := c.query("SELECT k, v FROM t WHERE k = ?", types.NewInt(2))
	if len(cols) != 2 || len(rows) != 1 || rows[0][1].Int != 5 {
		t.Fatalf("query got cols=%v rows=%v", cols, rows)
	}

	// Statement errors keep the connection usable.
	c.fail(protocol.CodeSQL, x("UPDATE nosuch SET v = 1"))
	c.exec("SELECT COUNT(*) FROM t")

	// A transaction over the wire.
	c.exec("BEGIN")
	c.exec("UPDATE t SET v = 9 WHERE k = 3")
	c.exec("COMMIT")
	_, rows = c.query("SELECT v FROM t WHERE k = 3")
	if rows[0][0].Int != 9 {
		t.Fatalf("committed value = %d, want 9", rows[0][0].Int)
	}
}

// TestLoneStatementErrors: a one-statement batch answers a rate-limit
// rejection and a SQL error with their own codes, and the connection
// carries on after each.
func TestLoneStatementErrors(t *testing.T) {
	auth := NewAuthenticator()
	auth.Register(1, Credentials{Token: "tk", StatementsPerSec: 1, Burst: 4})
	now := time.Unix(1000, 0)
	auth.now = func() time.Time { return now }
	_, _, addr := startRawServer(t, Config{Auth: auth})
	c := dialServer(t, addr)
	c.hello(1, "tk")

	c.exec("SELECT v FROM t WHERE k = ?", types.NewInt(1))
	c.exec("SELECT COUNT(*) FROM t")
	c.fail(protocol.CodeSQL, q("SELECT v FROM nosuch"))
	c.query("SELECT v FROM t")
	c.fail(protocol.CodeRateLimit, q("SELECT v FROM t"))
	now = now.Add(1100 * time.Millisecond)
	if _, rows := c.query("SELECT v FROM t WHERE k = ?", types.NewInt(1)); len(rows) != 1 {
		t.Fatalf("after refill: %v", rows)
	}
}

// TestNaNParameter: a NaN parameter is a value like any other — NaN
// has one order in Compare, Hash and the index keys — so a row inserted
// with one over the wire is found by WHERE x = ? with another NaN,
// through a scan and through an index alike.
func TestNaNParameter(t *testing.T) {
	_, db, addr := startRawServer(t, Config{})
	c := dialServer(t, addr)
	c.hello(0, "")
	nan := types.NewFloat(math.NaN())
	otherNaN := types.NewFloat(math.Float64frombits(0xFFF8000000000001))
	for _, table := range []string{"g", "gi"} {
		c.exec("CREATE TABLE " + table + " (id INTEGER, x DOUBLE)")
		if table == "gi" {
			c.exec("CREATE INDEX gi_x ON gi (x)")
		}
		if r := c.exec("INSERT INTO "+table+" VALUES (1, ?), (2, 5.0)", nan); r.RowsAffected != 2 {
			t.Fatalf("%s: insert affected %d rows", table, r.RowsAffected)
		}
		sel := "SELECT id FROM " + table + " WHERE x = ?"
		if ex, err := db.Explain(sel, otherNaN); err != nil || strings.Contains(ex, "IXSCAN") != (table == "gi") {
			t.Fatalf("%s: %s plans (%v):\n%s", table, sel, err, ex)
		}
		if _, rows := c.query(sel, otherNaN); len(rows) != 1 || rows[0][0].Int != 1 {
			t.Errorf("%s: WHERE x = NaN returned %v, want [[1]]", table, rows)
		}
	}
}

// TestExecOfSelectAnswersZero: a SELECT sent as a non-query runs and
// answers 0 rows affected, in raw mode and in layout mode alike.
func TestExecOfSelectAnswersZero(t *testing.T) {
	_, _, addr := startRawServer(t, Config{})
	c := dialServer(t, addr)
	c.hello(0, "")
	if r := c.exec("SELECT k FROM t"); r.RowsAffected != 0 {
		t.Fatalf("raw mode: %d rows affected, want 0", r.RowsAffected)
	}

	layout, db := layoutFixture(t)
	srv, err := New(Config{DB: db, Layout: layout})
	if err != nil {
		t.Fatal(err)
	}
	laddr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	lc := dialServer(t, laddr)
	lc.hello(1, "")
	lc.exec("INSERT INTO Account (Aid, Name) VALUES (1, 'a')")
	lc.exec("INSERT INTO Account (Aid, Name) VALUES (2, 'b')")
	if r := lc.exec("SELECT Aid FROM Account"); r.RowsAffected != 0 {
		t.Fatalf("layout mode: %d rows affected, want 0", r.RowsAffected)
	}
}

// TestRowStreamingBatches: a result larger than MaxRowBatch arrives in
// multiple frames with only the final one marked Last, then the
// batch's trailer.
func TestRowStreamingBatches(t *testing.T) {
	_, _, addr := startRawServer(t, Config{MaxRowBatch: 3})
	c := dialServer(t, addr)
	c.hello(0, "")
	c.send(&protocol.Batch{Stmts: []protocol.BatchStmt{q("SELECT k FROM t")}})
	if _, ok := c.recv().(*protocol.BatchRowsHeader); !ok {
		t.Fatal("expected header")
	}
	var batches, rows int
	for {
		b := c.recv().(*protocol.RowBatch)
		batches++
		rows += len(b.Rows)
		if b.Last {
			break
		}
	}
	if rows != 8 || batches != 3 {
		t.Fatalf("got %d rows in %d batches, want 8 in 3", rows, batches)
	}
	if d, ok := c.recv().(*protocol.BatchDone); !ok || d.Executed != 1 {
		t.Fatalf("expected BatchDone{1}, got %#v", d)
	}
}

// TestAbruptDisconnectMidTransaction is the tentpole regression: a
// client drops its TCP connection with an open transaction holding a
// pinned snapshot and an uncommitted write. The reap path must roll it
// all back — no session in the registry, no active transaction, no
// pinned snapshot — and the GC horizon must advance past the dropped
// transaction's pin.
func TestAbruptDisconnectMidTransaction(t *testing.T) {
	srv, db, addr := startRawServer(t, Config{})
	c := dialServer(t, addr)
	c.hello(0, "")
	c.exec("BEGIN")
	c.exec("UPDATE t SET v = 77 WHERE k = 1")
	if st := db.Stats(); st.PinnedSnapshots != 1 || st.ActiveTxns != 1 {
		t.Fatalf("before drop: pinned=%d active=%d, want 1/1", st.PinnedSnapshots, st.ActiveTxns)
	}
	horizonPinned := db.Txns().Horizon()

	// A concurrent transaction commits (publishing a newer timestamp) —
	// the dropped client's pin must hold the horizon in place.
	other := db.Session()
	for _, q := range []string{"BEGIN", "UPDATE u SET v = 1 WHERE k = 0", "COMMIT"} {
		if _, err := other.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	other.Close()
	if h := db.Txns().Horizon(); h != horizonPinned {
		t.Fatalf("horizon moved to %d under a live pin (was %d)", h, horizonPinned)
	}

	// Kill the socket with the transaction wide open.
	c.nc.Close()
	waitDrained(t, srv, db)

	// The write rolled back.
	rows, err := db.Query("SELECT v FROM t WHERE k = 1")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].Int != 0 {
		t.Fatalf("write survived disconnect: v = %d", rows.Data[0][0].Int)
	}
	// With the pin released the horizon advances to the published clock,
	// strictly past where the dropped transaction froze it.
	if h := db.Txns().Horizon(); h <= horizonPinned {
		t.Fatalf("GC horizon stuck at %d (was %d while pinned)", h, horizonPinned)
	}
	// And a new writer to the same table gets the admission token
	// immediately (it was released by the reap).
	before := db.Stats().AdmissionWaits
	s := db.Session()
	defer s.Close()
	for _, q := range []string{"BEGIN", "UPDATE t SET v = 2 WHERE k = 0", "COMMIT"} {
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if after := db.Stats().AdmissionWaits; after != before {
		t.Fatalf("admission token leaked: waits %d -> %d", before, after)
	}
}

// TestServerCloseReapsOpenTransactions: shutdown with live sessions
// mid-transaction must drain them all.
func TestServerCloseReapsOpenTransactions(t *testing.T) {
	srv, db, addr := startRawServer(t, Config{})
	for i := 0; i < 4; i++ {
		c := dialServer(t, addr)
		c.hello(int64(i), "")
		c.exec("BEGIN")
		c.exec("UPDATE t SET v = v + 1 WHERE k = ?", types.NewInt(int64(i)))
	}
	if st := db.Stats(); st.ActiveTxns != 4 {
		t.Fatalf("active txns = %d, want 4", st.ActiveTxns)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if srv.OpenSessions() != 0 || st.ActiveTxns != 0 || st.PinnedSnapshots != 0 {
		t.Fatalf("after close: sessions=%d active=%d pinned=%d",
			srv.OpenSessions(), st.ActiveTxns, st.PinnedSnapshots)
	}
}

// TestCorruptFrameClosesConnection: a bad CRC gets a protocol Error and
// the connection is dropped; the session does not leak.
func TestCorruptFrameClosesConnection(t *testing.T) {
	srv, db, addr := startRawServer(t, Config{})
	c := dialServer(t, addr)
	c.hello(0, "")

	payload := protocol.Encode(&protocol.Ping{})
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], 0xDEADBEEF) // wrong CRC
	if _, err := c.nc.Write(append(hdr[:], payload...)); err != nil {
		t.Fatal(err)
	}
	c.recvErr(protocol.CodeProtocol)
	// Server hangs up after a framing error.
	if _, err := protocol.ReadFrame(c.br); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF after protocol error, got %v", err)
	}
	waitDrained(t, srv, db)
	if got := srv.Stats().ProtocolErrors; got != 1 {
		t.Fatalf("protocol errors = %d, want 1", got)
	}
}

// TestLayoutModeTenantIsolation: in layout mode each connection's
// logical SQL is rewritten for its handshake tenant, so tenants cannot
// see each other's rows even over the same shared physical table.
func TestLayoutModeTenantIsolation(t *testing.T) {
	schema := &core.Schema{Tables: []*core.Table{{
		Name: "Account",
		Key:  "Aid",
		Columns: []core.Column{
			{Name: "Aid", Type: types.IntType, NotNull: true, Indexed: true},
			{Name: "Name", Type: types.VarcharType(50)},
		},
	}}}
	layout, err := core.NewBasicLayout(schema)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(engine.Config{CheckpointBytes: -1})
	if err := layout.Create(db, []*core.Tenant{{ID: 1}, {ID: 2}}); err != nil {
		t.Fatal(err)
	}
	auth := NewAuthenticator()
	auth.Register(1, Credentials{Token: "t1"})
	auth.Register(2, Credentials{Token: "t2"})
	srv, err := New(Config{DB: db, Layout: layout, Auth: auth})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c1 := dialServer(t, addr)
	c1.hello(1, "t1")
	c2 := dialServer(t, addr)
	c2.hello(2, "t2")

	c1.exec("INSERT INTO Account (Aid, Name) VALUES (?, ?)",
		types.NewInt(100), types.NewString("acme"))
	c2.exec("INSERT INTO Account (Aid, Name) VALUES (?, ?)",
		types.NewInt(200), types.NewString("globex"))

	_, rows1 := c1.query("SELECT Aid, Name FROM Account")
	_, rows2 := c2.query("SELECT Aid, Name FROM Account")
	if len(rows1) != 1 || rows1[0][0].Int != 100 {
		t.Fatalf("tenant 1 sees %v", rows1)
	}
	if len(rows2) != 1 || rows2[0][0].Int != 200 {
		t.Fatalf("tenant 2 sees %v", rows2)
	}

	// A logical transaction over the wire in layout mode rolls back on
	// abrupt disconnect like any other.
	c1.send(&protocol.Goodbye{})
	c2.exec("BEGIN")
	c2.exec("UPDATE Account SET Name = ? WHERE Aid = ?",
		types.NewString("gone"), types.NewInt(200))
	c2.nc.Close()
	waitDrained(t, srv, db)
	c3 := dialServer(t, addr)
	c3.hello(2, "t2")
	_, rows := c3.query("SELECT Name FROM Account WHERE Aid = ?", types.NewInt(200))
	if rows[0][0].Str != "globex" {
		t.Fatalf("tenant 2 update survived disconnect: %v", rows[0][0])
	}
}
