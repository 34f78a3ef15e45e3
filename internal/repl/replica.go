package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// ReplicaConfig tells Connect where the primary is and who we are.
type ReplicaConfig struct {
	// Addr is the primary mtdserver's "host:port".
	Addr string
	// Tenant and Token are ordinary handshake credentials (a replica
	// authenticates like any client before subscribing).
	Tenant int64
	Token  string
	// DialTimeout bounds connect + handshake (default 5s).
	DialTimeout time.Duration
	// RetryInterval paces reconnect attempts after the stream drops
	// (default 250ms).
	RetryInterval time.Duration
}

// Replica is a network follower: it subscribes to a primary's WAL
// stream, bootstraps from the shipped snapshot, applies frames as they
// arrive, and acknowledges its applied position. The stream survives
// disconnects — the receive loop reconnects and re-subscribes from the
// replica's own durable horizon, and a primary whose checkpoint outran
// us re-ships a full snapshot, which atomically replaces the local DB.
type Replica struct {
	cfg ReplicaConfig

	mu  sync.Mutex
	db  *engine.DB
	app *engine.Applier

	closed atomic.Bool
	conn   atomic.Pointer[net.TCPConn] // only for unblocking Close

	wg sync.WaitGroup
}

// Connect dials the primary, performs the bootstrap, and starts the
// background apply loop. It returns once the replica holds a complete,
// queryable database.
func Connect(cfg ReplicaConfig) (*Replica, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 250 * time.Millisecond
	}
	r := &Replica{cfg: cfg}
	ready := make(chan error, 1)
	r.wg.Add(1)
	go r.loop(ready)
	if err := <-ready; err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// DB returns the replica database current as of now. After a
// re-bootstrap (snapshot re-ship) this is a NEW object; long-lived
// holders should re-fetch, and sessions on the old object keep reading
// its frozen state.
func (r *Replica) DB() *engine.DB {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.db
}

// AppliedLSN is the stream position up to which every record is
// applied locally.
func (r *Replica) AppliedLSN() wal.LSN {
	r.mu.Lock()
	app := r.app
	r.mu.Unlock()
	if app == nil {
		return 0
	}
	return app.AppliedLSN()
}

// AppliedCommitLSN is the replica's published, snapshot-consistent
// position: the LSN of the newest applied commit.
func (r *Replica) AppliedCommitLSN() wal.LSN {
	r.mu.Lock()
	app := r.app
	r.mu.Unlock()
	if app == nil {
		return 0
	}
	return app.AppliedCommitLSN()
}

// WaitForLSN blocks until the applied position reaches lsn or the
// timeout expires — the read-your-writes helper: a client that saw the
// primary's durable horizon at L can wait for L here, then read.
func (r *Replica) WaitForLSN(lsn wal.LSN, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for r.AppliedLSN() < lsn {
		if r.closed.Load() {
			return errors.New("repl: replica closed")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("repl: timed out at applied LSN %d waiting for %d", r.AppliedLSN(), lsn)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// Close stops the apply loop and drops the connection. The replica DB
// remains readable at its last applied position.
func (r *Replica) Close() {
	if r.closed.Swap(true) {
		return
	}
	if nc := r.conn.Load(); nc != nil {
		nc.Close()
	}
	r.wg.Wait()
}

// loop owns the stream for the replica's lifetime: dial, subscribe,
// consume, reconnect. The first iteration reports the bootstrap
// outcome on ready — Connect blocks on it — and a failure before the
// first successful bootstrap ends the loop (Connect surfaces the
// error; there is nothing local worth retrying toward).
func (r *Replica) loop(ready chan<- error) {
	defer r.wg.Done()
	bootstrapped := false
	report := func(err error) {
		if !bootstrapped {
			ready <- err
			bootstrapped = err == nil
		}
	}
	for !r.closed.Load() {
		nc, br, err := r.dial()
		if err != nil {
			if !bootstrapped {
				report(err)
				return
			}
			time.Sleep(r.cfg.RetryInterval)
			continue
		}
		err = r.runStream(nc, br, report)
		nc.Close()
		if !bootstrapped {
			if err == nil {
				err = errors.New("repl: stream ended before bootstrap completed")
			}
			report(err)
			return
		}
		if !r.closed.Load() {
			time.Sleep(r.cfg.RetryInterval)
		}
	}
}

// dial opens an authenticated connection and sends the subscription.
// From is the replica's durable horizon (0 on first connect: ship me
// everything, snapshot first).
func (r *Replica) dial() (net.Conn, *bufio.Reader, error) {
	nc, err := net.DialTimeout("tcp", r.cfg.Addr, r.cfg.DialTimeout)
	if err != nil {
		return nil, nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		r.conn.Store(tc)
	}
	nc.SetDeadline(time.Now().Add(r.cfg.DialTimeout))
	br := bufio.NewReader(nc)
	bw := bufio.NewWriter(nc)
	if err := protocol.WriteFrame(bw, protocol.Encode(&protocol.Hello{
		Version: protocol.Version,
		Tenant:  r.cfg.Tenant,
		Token:   r.cfg.Token,
	})); err != nil {
		nc.Close()
		return nil, nil, err
	}
	if err := bw.Flush(); err != nil {
		nc.Close()
		return nil, nil, err
	}
	reply, err := protocol.ReadMsg(br)
	if err != nil {
		nc.Close()
		return nil, nil, err
	}
	switch m := reply.(type) {
	case *protocol.HelloOK:
	case *protocol.Error:
		nc.Close()
		return nil, nil, m
	default:
		nc.Close()
		return nil, nil, fmt.Errorf("repl: unexpected handshake reply %T", m)
	}
	var from wal.LSN
	r.mu.Lock()
	if r.db != nil {
		from = r.db.WAL().DurableLSN()
	}
	r.mu.Unlock()
	if err := protocol.WriteFrame(bw, protocol.Encode(&protocol.ReplSubscribe{From: uint64(from)})); err != nil {
		nc.Close()
		return nil, nil, err
	}
	if err := bw.Flush(); err != nil {
		nc.Close()
		return nil, nil, err
	}
	nc.SetDeadline(time.Time{})
	return nc, br, nil
}

// runStream consumes one connection's worth of the stream: an optional
// snapshot (first connect, or the primary truncated past us), then
// frames forever. Returns when the connection dies. report is invoked
// with nil once a bootstrap completes.
func (r *Replica) runStream(nc net.Conn, br *bufio.Reader, report func(error)) error {
	bw := bufio.NewWriter(nc)
	var snapshot []byte
	for {
		msg, err := protocol.ReadMsg(br)
		if err != nil {
			return err
		}
		switch m := msg.(type) {
		case *protocol.ReplSnapshot:
			snapshot = append(snapshot, m.Chunk...)
			if !m.Last {
				continue
			}
			img, err := engine.DecodeReplImage(snapshot)
			if err != nil {
				return err
			}
			snapshot = nil
			db, app, err := engine.OpenReplica(img)
			if err != nil {
				return err
			}
			r.mu.Lock()
			r.db, r.app = db, app
			r.mu.Unlock()
			// Announce the restored position immediately: an idle stream
			// whose history fit entirely inside the image ships no frames,
			// so without this ack the primary's lag telemetry would never
			// learn the follower is current.
			if protocol.WriteFrame(bw, protocol.Encode(&protocol.ReplAck{
				Applied: uint64(app.AppliedLSN()),
			})) == nil {
				bw.Flush()
			}
			report(nil)

		case *protocol.ReplFrames:
			r.mu.Lock()
			app := r.app
			r.mu.Unlock()
			if app == nil {
				return errors.New("repl: frames before snapshot")
			}
			if _, err := app.Feed(wal.LSN(m.Start), m.Frames); err != nil {
				return err
			}
			// Acknowledge the applied position (telemetry; best effort).
			if protocol.WriteFrame(bw, protocol.Encode(&protocol.ReplAck{
				Applied: uint64(app.AppliedLSN()),
			})) == nil {
				bw.Flush()
			}

		case *protocol.Error:
			return m

		default:
			return fmt.Errorf("repl: unexpected stream message %T", msg)
		}
	}
}
