package client

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/types"
)

// startServer builds a raw-mode server over a small table.
func startServer(t *testing.T, cfg server.Config) (*server.Server, *engine.DB, net.Addr) {
	t.Helper()
	return startServerOn(t, engine.Config{CheckpointBytes: -1}, 8, cfg)
}

// startServerOn builds a raw-mode server over a database opened with
// ecfg whose table t holds rows k = 0..rows-1, v = 0.
func startServerOn(t *testing.T, ecfg engine.Config, rows int, cfg server.Config) (*server.Server, *engine.DB, net.Addr) {
	t.Helper()
	db := engine.Open(ecfg)
	for _, q := range []string{
		"CREATE TABLE t (k INTEGER NOT NULL, v INTEGER)",
		"CREATE UNIQUE INDEX t_pk ON t (k)",
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < rows; k++ {
		if _, err := db.Exec("INSERT INTO t VALUES (?, 0)", types.NewInt(int64(k))); err != nil {
			t.Fatal(err)
		}
	}
	cfg.DB = db
	srv, err := server.New(cfg)
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

func TestConnRoundTrip(t *testing.T) {
	_, _, addr := startServer(t, server.Config{})
	c, err := Dial(Config{Addr: addr.String()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.SessionID() == 0 {
		t.Fatal("no session id")
	}

	n, err := c.Exec("UPDATE t SET v = 3 WHERE k = 1")
	if err != nil || n != 1 {
		t.Fatalf("exec: n=%d err=%v", n, err)
	}
	rows, err := c.Query("SELECT v FROM t WHERE k = ?", types.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0].Int != 3 {
		t.Fatalf("query got %v", rows.Data)
	}

	// Statement error: typed, connection survives.
	_, err = c.Exec("UPDATE nosuch SET v = 1")
	if code, ok := ErrorCode(err); !ok || code != protocol.CodeSQL {
		t.Fatalf("expected CodeSQL, got %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after error: %v", err)
	}

	// Query of a non-SELECT: typed error, connection survives.
	_, err = c.Query("UPDATE t SET v = 1 WHERE k = 1")
	if code, ok := ErrorCode(err); !ok || code != protocol.CodeSQL {
		t.Fatalf("query of UPDATE: expected CodeSQL, got %v", err)
	}
	if !c.Healthy() {
		t.Fatal("connection broken by a statement error")
	}

	// Transaction.
	for _, q := range []string{"BEGIN", "UPDATE t SET v = 4 WHERE k = 1", "COMMIT"} {
		if _, err := c.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if b, err := c.ServerStats(); err != nil || !strings.Contains(string(b), "statements") {
		t.Fatalf("server stats: %s %v", b, err)
	}
}

func TestConnConflictMapping(t *testing.T) {
	_, _, addr := startServer(t, server.Config{})
	c1, err := Dial(Config{Addr: addr.String()})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(Config{Addr: addr.String()})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	mustExec := func(c *Conn, q string) {
		t.Helper()
		if _, err := c.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec(c1, "BEGIN")
	mustExec(c1, "UPDATE t SET v = 1 WHERE k = 2")
	mustExec(c2, "BEGIN")
	_, err = c2.Exec("UPDATE t SET v = 2 WHERE k = 2")
	if !IsConflict(err) {
		t.Fatalf("expected conflict, got %v", err)
	}
	// The server rolled c2 back; ROLLBACK clears the client state.
	mustExec(c2, "ROLLBACK")
	mustExec(c1, "COMMIT")
}

// TestFailedAbortIsNotConflictOverWire: a transaction writes row j,
// then conflicts on row k, which another connection's transaction
// holds, and the rollback the conflict forces cannot undo j. The client
// is told of a failure, not of a conflict it could retry.
func TestFailedAbortIsNotConflictOverWire(t *testing.T) {
	const j, k = 0, 99
	_, db, addr := startServerOn(t, engine.Config{CheckpointBytes: -1, PageSize: 512, ConflictWait: -1}, 100, server.Config{})
	tab, err := db.Catalog().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	pages := map[int64]storage.PageID{}
	if err := tab.Heap.Scan(func(rid storage.RID, rec []byte) (bool, error) {
		row, err := types.DecodeRow(rec)
		if err == nil {
			pages[row[0].Int] = rid.Page
		}
		return true, err
	}); err != nil {
		t.Fatal(err)
	}
	if pages[j] == pages[k] {
		t.Fatal("rows j and k share a heap page; the fault would fail the conflict's gather")
	}
	holder, err := Dial(Config{Addr: addr.String()})
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	c, err := Dial(Config{Addr: addr.String()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	exec := func(c *Conn, q string, params ...types.Value) {
		t.Helper()
		if _, err := c.Exec(q, params...); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	exec(holder, "BEGIN")
	exec(holder, "UPDATE t SET v = 1 WHERE k = ?", types.NewInt(k))
	exec(c, "BEGIN")
	exec(c, "UPDATE t SET v = 2 WHERE k = ?", types.NewInt(j))

	// Only the undo of j fetches j's page from here on.
	db.BufferPool().SetFetchFault(func(id storage.PageID, _ storage.Category) error {
		if id == pages[j] {
			return storage.ErrInjectedFault
		}
		return nil
	})
	_, err = c.Exec("UPDATE t SET v = 3 WHERE k = ?", types.NewInt(k))
	db.BufferPool().SetFetchFault(nil)
	if err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("want the undo's injected fault, got %v", err)
	}
	if IsConflict(err) {
		t.Errorf("a failed abort reached the client as a conflict: %v", err)
	}
	exec(c, "ROLLBACK")
	exec(holder, "ROLLBACK")
}

func TestDialAuthFailure(t *testing.T) {
	auth := server.NewAuthenticator()
	auth.Register(1, server.Credentials{Token: "right"})
	_, _, addr := startServer(t, server.Config{Auth: auth})
	_, err := Dial(Config{Addr: addr.String(), Tenant: 1, Token: "wrong"})
	if code, ok := ErrorCode(err); !ok || code != protocol.CodeAuth {
		t.Fatalf("expected CodeAuth, got %v", err)
	}
}

func TestPoolReuseAndConcurrency(t *testing.T) {
	srv, db, addr := startServer(t, server.Config{})
	p := NewPool(PoolConfig{Conn: Config{Addr: addr.String()}, MaxConns: 4, HealthInterval: -1})
	defer p.Close()

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				c, err := p.Get()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Query("SELECT v FROM t WHERE k = ?", types.NewInt(int64(w%8))); err != nil {
					t.Error(err)
					p.Discard(c)
					return
				}
				p.Put(c)
			}
		}(w)
	}
	wg.Wait()
	dials, _, idle := p.Stats()
	if dials > 4 {
		t.Fatalf("pool dialed %d conns with MaxConns=4", dials)
	}
	if idle == 0 {
		t.Fatal("no idle connections after drain")
	}
	_ = srv
	_ = db
}

// TestPoolHealthCheckEvictsDead: connections killed server-side must
// be evicted by the checkout-time staleness ping, and Get must hand
// back a fresh working connection.
func TestPoolHealthCheckEvictsDead(t *testing.T) {
	srv, db, addr := startServer(t, server.Config{})
	p := NewPool(PoolConfig{
		Conn:           Config{Addr: addr.String()},
		MaxConns:       2,
		HealthInterval: -1,
		IdlePingAfter:  time.Nanosecond, // every checkout pings
	})
	defer p.Close()

	c, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	p.Put(c)

	// Kill every server-side session behind the pool's back.
	deadline := time.Now().Add(5 * time.Second)
	for srv.OpenSessions() > 0 {
		srv.CloseSessions()
		if time.Now().After(deadline) {
			t.Fatal("sessions did not die")
		}
		time.Sleep(time.Millisecond)
	}

	// The idle conn is now dead; Get must evict it and dial fresh.
	time.Sleep(10 * time.Millisecond)
	c2, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Ping(); err != nil {
		t.Fatalf("replacement conn unhealthy: %v", err)
	}
	p.Put(c2)
	dials, evicted, _ := p.Stats()
	if evicted == 0 || dials < 2 {
		t.Fatalf("expected an eviction and a redial: dials=%d evicted=%d", dials, evicted)
	}
	_ = db
}

// TestPoolBackgroundHealthLoop: the periodic pinger prunes dead idle
// connections without any Get traffic.
func TestPoolBackgroundHealthLoop(t *testing.T) {
	srv, _, addr := startServer(t, server.Config{})
	p := NewPool(PoolConfig{
		Conn:           Config{Addr: addr.String()},
		MaxConns:       2,
		HealthInterval: 5 * time.Millisecond,
		IdlePingAfter:  -1,
	})
	defer p.Close()

	c, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	p.Put(c)
	deadline := time.Now().Add(5 * time.Second)
	for srv.OpenSessions() > 0 {
		srv.CloseSessions()
		if time.Now().After(deadline) {
			t.Fatal("sessions did not die")
		}
		time.Sleep(time.Millisecond)
	}
	for {
		_, evicted, idle := p.Stats()
		if evicted >= 1 && idle == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health loop never evicted: evicted=%d idle=%d", evicted, idle)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConnPipeline: one Batch frame carries a whole transaction; the
// results come back index-matched, and a mid-pipeline failure surfaces
// as the real error at its index with everything after Poisoned.
func TestConnPipeline(t *testing.T) {
	_, _, addr := startServer(t, server.Config{})
	c, err := Dial(Config{Addr: addr.String()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	results, err := c.Pipeline([]PipelineStmt{
		{SQL: "BEGIN"},
		{SQL: "UPDATE t SET v = 21 WHERE k = ?", Params: []types.Value{types.NewInt(1)}},
		{SQL: "COMMIT"},
		{Query: true, SQL: "SELECT v FROM t WHERE k = 1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[1].RowsAffected != 1 {
		t.Fatalf("update: %+v", results[1])
	}
	if results[3].Rows == nil || results[3].Rows.Data[0][0].Int != 21 {
		t.Fatalf("select: %+v", results[3])
	}

	// A failing statement poisons the tail; the connection survives and
	// ROLLBACK clears the open transaction.
	results, err = c.Pipeline([]PipelineStmt{
		{SQL: "BEGIN"},
		{SQL: "UPDATE nosuch SET v = 1"},
		{SQL: "UPDATE t SET v = 99 WHERE k = 1"},
		{SQL: "COMMIT"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if code, ok := ErrorCode(results[1].Err); !ok || code != protocol.CodeSQL {
		t.Fatalf("stmt 1: %+v", results[1])
	}
	for _, i := range []int{2, 3} {
		if !results[i].Poisoned() {
			t.Fatalf("stmt %d not poisoned: %+v", i, results[i])
		}
	}
	if _, err := c.Exec("ROLLBACK"); err != nil {
		t.Fatalf("rollback after poisoned batch: %v", err)
	}
	rows, err := c.Query("SELECT v FROM t WHERE k = 1")
	if err != nil || rows.Data[0][0].Int != 21 {
		t.Fatalf("poisoned write leaked: %v %v", rows, err)
	}

	// Empty and oversized batches are client-side errors.
	if res, err := c.Pipeline(nil); res != nil || err != nil {
		t.Fatalf("empty pipeline: %v %v", res, err)
	}
	big := make([]PipelineStmt, protocol.MaxBatch+1)
	if _, err := c.Pipeline(big); err == nil {
		t.Fatal("oversized pipeline accepted")
	}
	if !c.Healthy() {
		t.Fatal("connection should survive client-side validation errors")
	}
}
