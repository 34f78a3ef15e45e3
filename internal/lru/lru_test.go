package lru

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func entries[K, S comparable, V any](c *Cache[K, S, V]) int {
	n, _ := c.Counts()
	return n
}

func stale[K, S comparable, V any](c *Cache[K, S, V]) int64 {
	_, n := c.Counts()
	return n
}

// blockingFill is a fill that reports its start on started and returns
// v once release is closed.
func blockingFill(started chan<- struct{}, release <-chan struct{}, v string) func() (string, error) {
	return func() (string, error) {
		started <- struct{}{}
		<-release
		return v, nil
	}
}

// awaitWaiters returns once n callers have found key's fill in flight:
// each then blocks until the fill ends, so the outcome every one of them
// reports is decided by the fill, not by scheduling.
func awaitWaiters[S comparable](c *Cache[string, S, string], key string, n int) {
	for {
		c.mu.Lock()
		got := c.flight[key].waiters
		c.mu.Unlock()
		if got >= n {
			return
		}
		runtime.Gosched()
	}
}

func TestConcurrentCallersShareOneFill(t *testing.T) {
	c := New[string, int, string](4)
	started, release := make(chan struct{}), make(chan struct{})
	type result struct {
		v   string
		how Outcome
		err error
	}
	const n = 8
	out := make(chan result, n)
	go func() {
		v, how, err := c.Do("k", 1, blockingFill(started, release, "v"))
		out <- result{v, how, err}
	}()
	<-started
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, how, err := c.Do("k", 1, func() (string, error) {
				t.Error("a second fill ran while one was in flight")
				return "", nil
			})
			out <- result{v, how, err}
		}()
	}
	awaitWaiters(c, "k", n-1)
	if len(out) != 0 {
		t.Fatalf("%d callers answered before the fill ended", len(out))
	}
	close(release)
	wg.Wait()
	var filled, waited int
	for i := 0; i < n; i++ {
		r := <-out
		if r.err != nil || r.v != "v" {
			t.Fatalf("got %q, %v", r.v, r.err)
		}
		switch r.how {
		case Filled:
			filled++
		case Waited:
			waited++
		}
	}
	if filled != 1 || waited != n-1 {
		t.Fatalf("filled %d, waited %d; want 1, %d", filled, waited, n-1)
	}
	if v, how, _ := c.Do("k", 1, nil); v != "v" || how != Hit {
		t.Fatalf("after the fill: %q, %v; want a hit", v, how)
	}
}

func TestStampBumpedMidFillIsNotServed(t *testing.T) {
	c := New[string, int, string](4)
	started, release := make(chan struct{}), make(chan struct{})
	first := make(chan Outcome)
	go func() {
		_, how, _ := c.Do("k", 1, blockingFill(started, release, "old"))
		first <- how
	}()
	<-started
	// The stamp moves to 2 while the stamp-1 fill runs: a caller under
	// 2 waits for that fill, then fills its own rather than take "old".
	type result struct {
		v   string
		how Outcome
	}
	newer := make(chan result)
	go func() {
		v, how, _ := c.Do("k", 2, func() (string, error) { return "new", nil })
		newer <- result{v, how}
	}()
	awaitWaiters(c, "k", 1)
	close(release)
	if how := <-first; how != Filled {
		t.Fatalf("first caller: %v; want Filled", how)
	}
	if r := <-newer; r.v != "new" || r.how != Filled {
		t.Fatalf("under the newer stamp: %q, %v; want its own fill", r.v, r.how)
	}
	if v, ok := c.Get("k", 2); !ok || v != "new" {
		t.Fatalf("Get under 2: %q, %v", v, ok)
	}
	if stale(c) != 1 {
		t.Fatalf("stale %d; want the stamp-1 entry dropped once", stale(c))
	}

	// An entry filled under 1 and looked up under 2 is dropped; the next
	// lookup refills.
	c = New[string, int, string](4)
	c.Do("k", 1, func() (string, error) { return "old", nil })
	if _, ok := c.Get("k", 2); ok {
		t.Fatal("Get served a stale entry")
	}
	v, how, _ := c.Do("k", 2, func() (string, error) { return "new", nil })
	if v != "new" || how != Filled || stale(c) != 1 || entries(c) != 1 {
		t.Fatalf("refill: %q, %v, stale %d, len %d", v, how, stale(c), entries(c))
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New[string, int, string](4)
	boom := errors.New("boom")
	started, release := make(chan struct{}), make(chan struct{})
	first := make(chan error)
	go func() {
		_, _, err := c.Do("k", 1, func() (string, error) {
			started <- struct{}{}
			<-release
			return "", boom
		})
		first <- err
	}()
	<-started
	type result struct {
		how Outcome
		err error
	}
	waiter := make(chan result)
	go func() {
		_, how, err := c.Do("k", 1, func() (string, error) { return "retried", nil })
		waiter <- result{how, err}
	}()
	awaitWaiters(c, "k", 1)
	close(release)
	if err := <-first; err != boom {
		t.Fatalf("filler: %v", err)
	}
	if r := <-waiter; r.err != boom || r.how != Waited {
		t.Fatalf("waiter under the same stamp: %v, %v; want Waited with the fill's error", r.how, r.err)
	}
	if entries(c) != 0 {
		t.Fatalf("a failed fill left %d entries", entries(c))
	}
	v, how, err := c.Do("k", 1, func() (string, error) { return "retried", nil })
	if err != nil || v != "retried" || how != Filled {
		t.Fatalf("retry: %q, %v, %v", v, how, err)
	}
}

func TestLeastRecentlyUsedIsEvicted(t *testing.T) {
	c := New[string, int, string](3)
	for _, k := range []string{"a", "b", "c"} {
		c.Do(k, 0, func() (string, error) { return k, nil })
	}
	c.Get("a", 0) // b is now the least recently used
	c.Do("d", 0, func() (string, error) { return "d", nil })
	if entries(c) != 3 {
		t.Fatalf("len %d past capacity 3", entries(c))
	}
	for k, want := range map[string]bool{"a": true, "b": false, "c": true, "d": true} {
		if _, ok := c.Get(k, 0); ok != want {
			t.Errorf("%s cached %v; want %v", k, ok, want)
		}
	}
	if stale(c) != 0 {
		t.Fatalf("eviction counted %d stale", stale(c))
	}
}

func TestClear(t *testing.T) {
	c := New[int, int, string](8)
	for i := 0; i < 5; i++ {
		c.Do(i, 0, func() (string, error) { return fmt.Sprint(i), nil })
	}
	c.Clear()
	if entries(c) != 0 {
		t.Fatalf("len %d after Clear", entries(c))
	}
	if _, how, _ := c.Do(1, 0, func() (string, error) { return "1", nil }); how != Filled {
		t.Fatalf("after Clear: %v; want a fill", how)
	}
}
