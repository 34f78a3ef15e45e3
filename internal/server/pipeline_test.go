package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/types"
)

// batchReply is one collected reply of a pipelined exchange.
type batchReply struct {
	result *protocol.BatchResult
	err    *protocol.BatchError
	rows   [][]types.Value
	isRows bool
}

// pipeline sends one Batch and collects the tagged replies plus the
// BatchDone trailer, enforcing the 1:1 reply invariant.
func (c *testConn) pipeline(stmts ...protocol.BatchStmt) ([]batchReply, *protocol.BatchDone) {
	c.t.Helper()
	c.send(&protocol.Batch{Stmts: stmts})
	replies := make([]batchReply, len(stmts))
	seen := make([]bool, len(stmts))
	take := func(idx uint32) int {
		if int(idx) >= len(stmts) || seen[idx] {
			c.t.Fatalf("reply for bad index %d", idx)
		}
		seen[idx] = true
		return int(idx)
	}
	for {
		switch m := c.recv().(type) {
		case *protocol.BatchResult:
			replies[take(m.Index)] = batchReply{result: m}
		case *protocol.BatchError:
			replies[take(m.Index)] = batchReply{err: m}
		case *protocol.BatchRowsHeader:
			i := take(m.Index)
			var rows [][]types.Value
			for {
				rb, ok := c.recv().(*protocol.RowBatch)
				if !ok {
					c.t.Fatal("expected RowBatch in batch stream")
				}
				rows = append(rows, rb.Rows...)
				if rb.Last {
					break
				}
			}
			replies[i] = batchReply{rows: rows, isRows: true}
		case *protocol.BatchDone:
			for i, s := range seen {
				if !s {
					c.t.Fatalf("BatchDone with statement %d unanswered", i)
				}
			}
			return replies, m
		default:
			c.t.Fatalf("unexpected batch reply %#v", m)
		}
	}
}

func q(sql string, params ...types.Value) protocol.BatchStmt {
	return protocol.BatchStmt{Query: true, SQL: sql, Params: params}
}

func x(sql string, params ...types.Value) protocol.BatchStmt {
	return protocol.BatchStmt{SQL: sql, Params: params}
}

// TestBatchPipelineInterleaved: execs and queries interleaved in one
// frame come back strictly in order, each tagged with its index, with
// a single trailer reporting the executed count.
func TestBatchPipelineInterleaved(t *testing.T) {
	srv, _, addr := startRawServer(t, Config{MaxRowBatch: 3})
	c := dialServer(t, addr)
	c.hello(0, "")

	replies, done := c.pipeline(
		x("UPDATE t SET v = 11 WHERE k = 1"),
		q("SELECT v FROM t WHERE k = ?", types.NewInt(1)),
		x("UPDATE t SET v = v + 1 WHERE k = 1"),
		q("SELECT k FROM t"), // 8 rows: multiple RowBatch frames mid-pipeline
		q("SELECT v FROM t WHERE k = 1"),
	)
	if done.Executed != 5 {
		t.Fatalf("executed = %d, want 5", done.Executed)
	}
	if replies[0].result == nil || replies[0].result.RowsAffected != 1 {
		t.Fatalf("stmt 0: %+v", replies[0])
	}
	if !replies[1].isRows || replies[1].rows[0][0].Int != 11 {
		t.Fatalf("stmt 1: %+v", replies[1])
	}
	if !replies[3].isRows || len(replies[3].rows) != 8 {
		t.Fatalf("stmt 3: got %d rows, want 8", len(replies[3].rows))
	}
	if !replies[4].isRows || replies[4].rows[0][0].Int != 12 {
		t.Fatalf("stmt 4: %+v", replies[4])
	}
	if got := srv.Stats().Batches; got != 1 {
		t.Fatalf("batches = %d, want 1", got)
	}
}

// TestBatchErrorPoisonsRemainder: the first failing statement answers
// its real error; everything after — including the COMMIT — answers
// CodePoisoned and is never executed, so a pipelined transaction can
// never half-commit. The connection survives and ROLLBACK clears the
// open transaction.
func TestBatchErrorPoisonsRemainder(t *testing.T) {
	srv, db, addr := startRawServer(t, Config{})
	c := dialServer(t, addr)
	c.hello(0, "")

	replies, done := c.pipeline(
		x("BEGIN"),
		x("UPDATE t SET v = 99 WHERE k = 2"),
		x("UPDATE nosuch SET v = 1"), // fails
		x("UPDATE t SET v = 98 WHERE k = 3"),
		x("COMMIT"),
	)
	if done.Executed != 2 {
		t.Fatalf("executed = %d, want 2", done.Executed)
	}
	if replies[2].err == nil || replies[2].err.Code != protocol.CodeSQL {
		t.Fatalf("stmt 2: %+v", replies[2])
	}
	for i := 3; i <= 4; i++ {
		if replies[i].err == nil || replies[i].err.Code != protocol.CodePoisoned {
			t.Fatalf("stmt %d not poisoned: %+v", i, replies[i])
		}
	}
	// The connection is alive; the transaction is still open (BEGIN and
	// the first UPDATE executed). ROLLBACK discards it.
	c.exec("ROLLBACK")
	_, rows := c.query("SELECT v FROM t WHERE k IN (2, 3)")
	for _, r := range rows {
		if r[0].Int != 0 {
			t.Fatalf("poisoned transaction leaked a write: %v", rows)
		}
	}
	waitStats := srv.Stats()
	if waitStats.ActiveTxns != 0 {
		t.Fatalf("active txns = %d after rollback", waitStats.ActiveTxns)
	}
	_ = db
}

// TestBatchConflictPoisonsCommit: a write conflict mid-pipeline maps
// to CodeConflict at its index and poisons the trailing COMMIT; after
// ROLLBACK the loser's connection is reusable and the winner commits.
func TestBatchConflictPoisonsCommit(t *testing.T) {
	_, _, addr := startRawServer(t, Config{})
	winner := dialServer(t, addr)
	winner.hello(0, "")
	loser := dialServer(t, addr)
	loser.hello(0, "")

	winner.exec("BEGIN")
	winner.exec("UPDATE t SET v = 1 WHERE k = 4")

	replies, done := loser.pipeline(
		x("BEGIN"),
		x("UPDATE t SET v = 2 WHERE k = 4"), // first-updater-wins conflict
		x("COMMIT"),
	)
	if done.Executed != 1 {
		t.Fatalf("executed = %d, want 1 (only BEGIN)", done.Executed)
	}
	if replies[1].err == nil || replies[1].err.Code != protocol.CodeConflict {
		t.Fatalf("stmt 1: %+v", replies[1])
	}
	if replies[2].err == nil || replies[2].err.Code != protocol.CodePoisoned {
		t.Fatalf("COMMIT not poisoned: %+v", replies[2])
	}
	loser.exec("ROLLBACK")
	winner.exec("COMMIT")
	_, rows := loser.query("SELECT v FROM t WHERE k = 4")
	if rows[0][0].Int != 1 {
		t.Fatalf("winner's write lost: %v", rows)
	}
}

// TestBatchRateLimitPoisons: a mid-batch rate-limit rejection poisons
// the rest (running the tail against a half-admitted transaction would
// be worse than failing it), and the connection survives.
func TestBatchRateLimitPoisons(t *testing.T) {
	auth := NewAuthenticator()
	auth.Register(1, Credentials{Token: "tk", StatementsPerSec: 1, Burst: 2})
	now := time.Unix(1000, 0)
	auth.now = func() time.Time { return now }
	_, _, addr := startRawServer(t, Config{Auth: auth})

	c := dialServer(t, addr)
	c.hello(1, "tk")
	replies, done := c.pipeline(
		x("UPDATE t SET v = 1 WHERE k = 5"),
		x("UPDATE t SET v = 2 WHERE k = 5"),
		x("UPDATE t SET v = 3 WHERE k = 5"), // bucket empty
		x("UPDATE t SET v = 4 WHERE k = 5"),
	)
	if done.Executed != 2 {
		t.Fatalf("executed = %d, want 2", done.Executed)
	}
	if replies[2].err == nil || replies[2].err.Code != protocol.CodeRateLimit {
		t.Fatalf("stmt 2: %+v", replies[2])
	}
	if replies[3].err == nil || replies[3].err.Code != protocol.CodePoisoned {
		t.Fatalf("stmt 3: %+v", replies[3])
	}
	now = now.Add(2 * time.Second)
	c.exec("SELECT COUNT(*) FROM t") // connection still usable
}

// TestBatchCorruptFrameMidPipeline: a torn frame between pipelined
// batches gets the protocol Error + hangup treatment, and the session
// drains with zero leaks even though a transaction was open.
func TestBatchCorruptFrameMidPipeline(t *testing.T) {
	srv, db, addr := startRawServer(t, Config{})
	c := dialServer(t, addr)
	c.hello(0, "")

	// Leave a transaction open via a pipelined batch...
	_, done := c.pipeline(x("BEGIN"), x("UPDATE t SET v = 55 WHERE k = 6"))
	if done.Executed != 2 {
		t.Fatalf("executed = %d, want 2", done.Executed)
	}
	// ...then corrupt the stream.
	payload := protocol.Encode(&protocol.Ping{})
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], 0xBAD0BAD0)
	if _, err := c.nc.Write(append(hdr[:], payload...)); err != nil {
		t.Fatal(err)
	}
	c.recvErr(protocol.CodeProtocol)
	if _, err := protocol.ReadFrame(c.br); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF after protocol error, got %v", err)
	}
	waitDrained(t, srv, db)
	rows, err := db.Query("SELECT v FROM t WHERE k = 6")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].Int != 0 {
		t.Fatalf("open transaction survived the torn frame: %v", rows.Data)
	}
}

// TestBatchAbruptDisconnectDrains: clients that send a pipelined
// transaction and vanish without reading replies must still be reaped
// to zero sessions, zero transactions, zero pins.
func TestBatchAbruptDisconnectDrains(t *testing.T) {
	srv, db, addr := startRawServer(t, Config{})
	for i := 0; i < 6; i++ {
		c := dialServer(t, addr)
		c.hello(int64(i), "")
		c.send(&protocol.Batch{Stmts: []protocol.BatchStmt{
			x("BEGIN"),
			x("UPDATE t SET v = v + 1 WHERE k = ?", types.NewInt(int64(i))),
		}})
		c.nc.Close() // never reads a single reply
	}
	waitDrained(t, srv, db)
}

// TestBatchTooLarge: the decoder rejects an oversized batch before the
// server ever sees it, and the connection is closed as a protocol
// error rather than half-executing.
func TestBatchTooLarge(t *testing.T) {
	srv, db, addr := startRawServer(t, Config{})
	c := dialServer(t, addr)
	c.hello(0, "")

	stmts := make([]protocol.BatchStmt, protocol.MaxBatch+1)
	for i := range stmts {
		stmts[i] = x("SELECT COUNT(*) FROM t")
	}
	// Encode bypasses client-side validation on purpose.
	c.send(&protocol.Batch{Stmts: stmts})
	c.recvErr(protocol.CodeProtocol)
	if _, err := protocol.ReadFrame(c.br); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
	waitDrained(t, srv, db)
}

// TestServerTelemetry: the stats snapshot carries the rewrite-cache,
// plan-cache, and executor gauges the bench records per point.
func TestServerTelemetry(t *testing.T) {
	layout, db := layoutFixture(t)
	srv, err := New(Config{DB: db, Layout: layout})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := dialServer(t, addr)
	c.hello(1, "")
	c.exec("INSERT INTO Account (Aid, Name) VALUES (1, 'a')")
	for i := 0; i < 4; i++ {
		c.query("SELECT Name FROM Account WHERE Aid = 1")
	}
	for _, name := range []string{"b", "c"} { // one fill, one template hit
		c.exec("UPDATE Account SET Name = '" + name + "' WHERE Aid = 1")
	}
	st := srv.Stats()
	if st.RewriteMisses == 0 || st.RewriteHits == 0 {
		t.Fatalf("rewrite cache unused: %+v", st)
	}
	if st.DirectDML != 2 || st.TwoPhaseDML != 0 {
		t.Fatalf("DML by shape: %d direct, %d two-phase, want 2 and 0 (Basic writes one table)", st.DirectDML, st.TwoPhaseDML)
	}
	if js, err := json.Marshal(st); err != nil || !bytes.Contains(js, []byte(`"direct_dml":2,"two_phase_dml":0`)) {
		t.Fatalf("stats JSON lacks the DML shapes: %s, %v", js, err)
	}
	if st.RewriteUncacheable == 0 {
		t.Fatalf("INSERT should count uncacheable: %+v", st)
	}
	if st.RewriteHitRate <= 0 {
		t.Fatalf("hit rate = %v", st.RewriteHitRate)
	}
	if st.PlanCacheHits == 0 {
		t.Fatalf("plan cache never hit: %+v", st)
	}
	if st.ExecSlots <= 0 {
		t.Fatalf("executor gate missing from stats: %+v", st)
	}
	if st.Statements != 7 {
		t.Fatalf("statements = %d, want 7", st.Statements)
	}
}

// TestBatchLayoutMode: pipelining composes with tenant rewriting — a
// whole logical transaction in one frame, against the shared rewrite
// cache.
func TestBatchLayoutMode(t *testing.T) {
	layout, db := layoutFixture(t)
	srv, err := New(Config{DB: db, Layout: layout})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c1 := dialServer(t, addr)
	c1.hello(1, "")
	c2 := dialServer(t, addr)
	c2.hello(2, "")

	replies, done := c1.pipeline(
		x("BEGIN"),
		x("INSERT INTO Account (Aid, Name) VALUES (10, 'acme')"),
		x("UPDATE Account SET Name = 'acme2' WHERE Aid = 10"),
		x("COMMIT"),
		q("SELECT Name FROM Account WHERE Aid = 10"),
	)
	if done.Executed != 5 {
		t.Fatalf("executed = %d, want 5: %+v", done.Executed, replies)
	}
	if !replies[4].isRows || replies[4].rows[0][0].Str != "acme2" {
		t.Fatalf("stmt 4: %+v", replies[4])
	}
	// Tenant 2 sees none of it.
	_, rows := c2.query("SELECT Aid FROM Account")
	if len(rows) != 0 {
		t.Fatalf("tenant isolation broken: %v", rows)
	}
	// A repeat of the pipelined SELECT is a raw-text rewrite-cache hit.
	c1.query("SELECT Name FROM Account WHERE Aid = 10")
	if st := srv.Stats(); st.RewriteHits == 0 || st.RewriteHitRate <= 0 {
		t.Fatalf("rewrite cache never hit: %+v", st)
	}
}

// layoutFixture builds a basic-layout database with tenants 1 and 2.
func layoutFixture(t *testing.T) (core.Layout, *engine.DB) {
	t.Helper()
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
	return layout, db
}

// TestAuditBufferedFlushOnClose: buffered mirror writes reach the
// writer by Close time even when neither the byte threshold nor the
// timer fired — no audit event is lost on clean shutdown.
func TestAuditBufferedFlushOnClose(t *testing.T) {
	var buf bytes.Buffer
	l := NewAuditLog(0, &buf)
	for i := 0; i < 5; i++ {
		l.Record(int64(i), uint64(i), AuditConnect, "x")
	}
	l.Close()
	if got := strings.Count(buf.String(), "\n"); got != 5 {
		t.Fatalf("mirror lines = %d, want 5\n%s", got, buf.String())
	}
	// Write-through after Close: teardown events still land.
	l.Record(9, 9, AuditDisconnect, "late")
	if got := strings.Count(buf.String(), "\n"); got != 6 {
		t.Fatalf("post-close record lost: %d lines", got)
	}
}

// TestAuditServerCloseFlushes: the server-level guarantee — start a
// server with a mirrored audit log, do work, Close, and every event
// (connect through disconnect) is on the writer.
func TestAuditServerCloseFlushes(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	audit := NewAuditLog(0, w)
	audit.Statements = true
	srv, db, addr := startRawServer(t, Config{Audit: audit})

	c := dialServer(t, addr)
	c.hello(3, "")
	c.exec("UPDATE t SET v = 1 WHERE k = 0")
	c.send(&protocol.Goodbye{})
	waitDrained(t, srv, db)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, want := range []string{AuditConnect, AuditStatement, AuditDisconnect} {
		if !strings.Contains(out, fmt.Sprintf("%q", want)) {
			t.Fatalf("audit mirror missing %q:\n%s", want, out)
		}
	}
	if audit.Seq() != 3 {
		t.Fatalf("seq = %d, want 3", audit.Seq())
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
