package server

import (
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
)

// connState is one live connection's server-side state: its engine
// session (or session-backed mapper in layout mode) and the reap hook that tears all of it down exactly once
// no matter who notices the connection die first — the read loop, the
// server's Close, or a handler error path.
type connState struct {
	id     uint64
	tenant int64
	nc     net.Conn

	// sess is always the engine session to reap; in layout mode it is
	// mapper.Session and logical statements go through mapper.
	sess   *engine.Session
	mapper *core.Mapper

	reapOnce sync.Once
}

// registry tracks live connections by id; the server's drain check and
// shutdown walk it. All methods are safe for concurrent use.
type registry struct {
	mu    sync.Mutex
	conns map[uint64]*connState
}

func newRegistry() *registry {
	return &registry{conns: make(map[uint64]*connState)}
}

func (r *registry) add(c *connState) {
	r.mu.Lock()
	r.conns[c.id] = c
	r.mu.Unlock()
}

func (r *registry) remove(id uint64) {
	r.mu.Lock()
	delete(r.conns, id)
	r.mu.Unlock()
}

// len reports the number of live sessions (the bench's zero-leak check).
func (r *registry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.conns)
}

// snapshot returns the live connections (for shutdown).
func (r *registry) snapshot() []*connState {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*connState, 0, len(r.conns))
	for _, c := range r.conns {
		out = append(out, c)
	}
	return out
}
