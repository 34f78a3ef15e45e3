package storage

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Fault injection lets tests fail specific physical or logical page
// operations to prove that DML statements are all-or-nothing. Two hooks
// exist: Disk.SetFault intercepts physical reads and writes (including
// write-backs during eviction), and BufferPool.SetFetchFault intercepts
// logical page accesses, which is deterministic even when the page is
// cached. Production code never installs either hook.

// ErrInjectedFault is the conventional error returned by injected
// faults; tests match it with errors.Is.
var ErrInjectedFault = errors.New("storage: injected fault")

// FaultOp distinguishes physical reads from writes in a FaultInfo.
type FaultOp uint8

const (
	// FaultRead marks a physical page read.
	FaultRead FaultOp = iota
	// FaultWrite marks a physical page write.
	FaultWrite
)

func (op FaultOp) String() string {
	if op == FaultWrite {
		return "write"
	}
	return "read"
}

// FaultInfo describes one physical page operation about to happen. Seq
// is the 1-based ordinal of the operation since the hook was installed,
// counted across both reads and writes.
type FaultInfo struct {
	Op  FaultOp
	ID  PageID
	Cat Category
	Seq int64
}

// FaultFn inspects an imminent page operation and returns a non-nil
// error to make it fail before any state changes.
type FaultFn func(FaultInfo) error

// FailNth returns a FaultFn that fails the nth (1-based) operation
// accepted by match with ErrInjectedFault; a nil match accepts every
// operation. The hook fires at most once.
func FailNth(n int64, match func(FaultInfo) bool) FaultFn {
	var count atomic.Int64
	return func(fi FaultInfo) error {
		if match != nil && !match(fi) {
			return nil
		}
		if count.Add(1) == n {
			return ErrInjectedFault
		}
		return nil
	}
}

// ParkReads returns a FaultFn that holds every physical read accepted
// by match (nil: every read) until n of them are held together, then
// lets them all go and holds no more: the way a test shows, by
// counting, that n reads were in flight at once. A read held longer
// than timeout goes on alone. met reports whether the n ever met.
func ParkReads(n int, timeout time.Duration, match func(FaultInfo) bool) (hook FaultFn, met func() bool) {
	var mu sync.Mutex
	parked, done := 0, false
	open := make(chan struct{})
	hook = func(fi FaultInfo) error {
		if fi.Op != FaultRead || match != nil && !match(fi) {
			return nil
		}
		mu.Lock()
		if done {
			mu.Unlock()
			return nil
		}
		parked++
		if parked == n {
			done = true
			close(open)
		}
		mu.Unlock()
		select {
		case <-open:
		case <-time.After(timeout):
			mu.Lock()
			parked--
			mu.Unlock()
		}
		return nil
	}
	return hook, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return done
	}
}

// FetchFaultFn inspects an imminent logical page access (Fetch or
// NewPage; for NewPage the id is InvalidPageID since no page exists
// yet) and returns a non-nil error to fail it.
type FetchFaultFn func(id PageID, cat Category) error

// FailNthFetch returns a FetchFaultFn failing the nth (1-based)
// logical access to a page of the given category with
// ErrInjectedFault. The hook fires at most once.
func FailNthFetch(n int64, cat Category) FetchFaultFn {
	var count atomic.Int64
	return func(_ PageID, c Category) error {
		if c != cat {
			return nil
		}
		if count.Add(1) == n {
			return ErrInjectedFault
		}
		return nil
	}
}

// MatchOp accepts operations of the given kind.
func MatchOp(op FaultOp) func(FaultInfo) bool {
	return func(fi FaultInfo) bool { return fi.Op == op }
}

// MatchCat accepts operations on pages of the given category.
func MatchCat(cat Category) func(FaultInfo) bool {
	return func(fi FaultInfo) bool { return fi.Cat == cat }
}

// MatchAll accepts operations accepted by every given matcher.
func MatchAll(ms ...func(FaultInfo) bool) func(FaultInfo) bool {
	return func(fi FaultInfo) bool {
		for _, m := range ms {
			if !m(fi) {
				return false
			}
		}
		return true
	}
}
