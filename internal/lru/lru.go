// Package lru is the one statement-cache type, of the engine's compiled
// plans and of the mapping layer's rewrites: a bounded LRU whose entries
// carry a stamp — the generation of what a value was computed from —
// and whose fills run once per key at a time. A hit compares the
// caller's stamp, read before it asks, with the entry's: a fill that
// began under an older stamp is never served under a newer one, and
// the next lookup drops and refills it. Errors are not cached.
package lru

import (
	"container/list"
	"sync"
)

// Outcome says how Do answered.
type Outcome uint8

const (
	Hit    Outcome = iota // a live entry
	Waited                // another caller's fill under the same stamp
	Filled                // this caller's fill
)

// Cache maps K to V under stamps S; the zero value is not usable (New).
type Cache[K, S comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // of *entry; front = LRU victim, back = most recent
	entries map[K]*list.Element
	flight  map[K]*flight[S, V]
	stale   int64
}

type entry[K, S comparable, V any] struct {
	key   K
	stamp S
	val   V
}

// flight is one key's fill in progress: waiters block on done.
type flight[S comparable, V any] struct {
	done    chan struct{}
	stamp   S
	val     V
	err     error
	waiters int // callers that found it, under Cache.mu
}

// New returns an empty cache of at most capacity entries.
func New[K, S comparable, V any](capacity int) *Cache[K, S, V] {
	return &Cache[K, S, V]{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[K]*list.Element),
		flight:  make(map[K]*flight[S, V]),
	}
}

// Get returns the value under key if it was filled under stamp, and
// marks it the most recent; a value under another stamp is dropped. Get
// keeps no reference to key, which may view a caller's buffer.
func (c *Cache[K, S, V]) Get(key K, stamp S) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hitLocked(key, stamp)
}

func (c *Cache[K, S, V]) hitLocked(key K, stamp S) (v V, ok bool) {
	e := c.entries[key]
	if e == nil {
		return v, false
	}
	ent := e.Value.(*entry[K, S, V])
	if ent.stamp != stamp {
		c.order.Remove(e)
		delete(c.entries, key)
		c.stale++
		return v, false
	}
	c.order.MoveToBack(e)
	return ent.val, true
}

// Do returns the value under key filled under stamp, calling fill for it
// when there is none. While one caller fills a key, the others asking
// for it wait and take its result — its error too — if they asked under
// the same stamp, and otherwise look again once it is done. A failed
// fill leaves no entry.
func (c *Cache[K, S, V]) Do(key K, stamp S, fill func() (V, error)) (V, Outcome, error) {
	for {
		c.mu.Lock()
		if v, ok := c.hitLocked(key, stamp); ok {
			c.mu.Unlock()
			return v, Hit, nil
		}
		if f := c.flight[key]; f != nil {
			f.waiters++
			c.mu.Unlock()
			<-f.done
			if f.stamp == stamp {
				return f.val, Waited, f.err
			}
			continue
		}
		f := &flight[S, V]{done: make(chan struct{}), stamp: stamp}
		c.flight[key] = f
		c.mu.Unlock()

		f.val, f.err = fill()
		c.mu.Lock()
		delete(c.flight, key)
		if f.err == nil {
			c.entries[key] = c.order.PushBack(&entry[K, S, V]{key: key, stamp: stamp, val: f.val})
			for len(c.entries) > c.cap {
				victim := c.order.Remove(c.order.Front()).(*entry[K, S, V])
				delete(c.entries, victim.key)
			}
		}
		c.mu.Unlock()
		close(f.done)
		return f.val, Filled, f.err
	}
}

// Clear drops every entry. Fills in flight finish and insert theirs.
func (c *Cache[K, S, V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	clear(c.entries)
}

// Counts reports the entries held, and how many were dropped for a
// stamp other than the caller's.
func (c *Cache[K, S, V]) Counts() (entries int, stale int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.stale
}
