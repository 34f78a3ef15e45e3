package mvcc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/storage"
)

// modelTxn is the test's own record of one transaction: visibility is
// decided from these epochs, not from the Txn under test.
type modelTxn struct {
	tx     *Txn
	begin  int          // commits that had happened when it began
	commit int          // its own commit's ordinal; 0 while open
	undo   []modelWrite // its writes, oldest first
}

type modelWrite struct {
	rid  storage.RID
	pre  []byte
	post []byte
}

// version is one write in a row's full history, which the model keeps
// for ever: what the chains may forget, the model must still answer.
type version struct {
	w   *modelTxn
	val []byte
}

func (r *modelTxn) sees(w *modelTxn) bool {
	return w == r || (w.commit != 0 && w.commit <= r.begin)
}

// chainModel drives a VersionStore the way catalog's mutators do — a
// write passes CheckWrite, changes the "heap", records its pre-image;
// a rollback pops in reverse and then aborts — and checks the store
// against a model that never forgets.
type chainModel struct {
	t       *testing.T
	mgr     *Manager
	s       *VersionStore
	rids    []storage.RID
	heap    map[storage.RID][]byte    // newest bytes, nil: dead slot
	history map[storage.RID][]version // every surviving write, oldest first
	open    []*modelTxn
	commits int
	nextVal int
}

func (m *chainModel) visible(r *modelTxn, rid storage.RID) []byte {
	h := m.history[rid]
	for i := len(h) - 1; i >= 0; i-- {
		if r.sees(h[i].w) {
			return h[i].val
		}
	}
	return nil // every row starts out not existing
}

func (m *chainModel) check(step string) {
	m.t.Helper()
	s := m.s
	want := map[storage.RID]struct{}{}
	for rid, ch := range s.chains {
		if len(ch) == 0 {
			m.t.Fatalf("%s: empty chain kept for %v", step, rid)
		}
		for _, e := range ch {
			if e.moved {
				want[rid] = struct{}{}
			}
		}
	}
	if len(want) != len(s.moved) {
		m.t.Fatalf("%s: moved set has %d RIDs, the chains' flags give %d", step, len(s.moved), len(want))
	}
	for rid := range want {
		if _, ok := s.moved[rid]; !ok {
			m.t.Fatalf("%s: %v has a moved entry but is not in the moved set", step, rid)
		}
	}
	moved := s.MovedRIDs()
	if len(moved) != len(want) || !slices.IsSortedFunc(moved, func(a, b storage.RID) int {
		if a.Page != b.Page {
			return int(a.Page) - int(b.Page)
		}
		return int(a.Slot) - int(b.Slot)
	}) {
		m.t.Fatalf("%s: MovedRIDs() = %v, want the %d moved RIDs in order", step, moved, len(want))
	}
	if got := s.HasVersions(); got != (len(s.chains) > 0) {
		m.t.Fatalf("%s: HasVersions() = %v with %d chains", step, got, len(s.chains))
	}
	if got := len(s.RIDs()); got != len(s.chains) {
		m.t.Fatalf("%s: RIDs() has %d entries, %d chains", step, got, len(s.chains))
	}
	for _, rid := range m.rids {
		_, chained := s.chains[rid]
		if s.Pinned(rid) != chained {
			m.t.Fatalf("%s: Pinned(%v) = %v, chain exists: %v", step, rid, !chained, chained)
		}
		for _, r := range m.open {
			want := m.visible(r, rid)
			got, ok := s.Resolve(r.tx, rid, m.heap[rid])
			if ok != (want != nil) || !bytes.Equal(got, want) {
				m.t.Fatalf("%s: txn %d resolves %v to %q (visible %v), model says %q",
					step, r.tx.ID(), rid, got, ok, want)
			}
		}
	}
	// UncommittedPreImages: exactly the moved entries of open writers
	// that had something to move away from.
	wantPre := map[string]int{}
	for _, r := range m.open {
		for _, w := range r.undo {
			if w.moved() {
				wantPre[fmt.Sprintf("%v/%d/%s", w.rid, r.tx.ID(), w.pre)]++
			}
		}
	}
	s.UncommittedPreImages(func(rid storage.RID, w *Txn, pre []byte) bool {
		wantPre[fmt.Sprintf("%v/%d/%s", rid, w.ID(), pre)]--
		return true
	})
	for k, n := range wantPre {
		if n != 0 {
			m.t.Fatalf("%s: UncommittedPreImages off by %d on %s", step, -n, k)
		}
	}
}

// moved reports the flag the model passes for w — a delete, or an
// update marked as key-changing in the value itself, so the model needs
// no second table.
func (w modelWrite) moved() bool {
	return w.pre != nil && (w.post == nil || bytes.HasSuffix(w.post, []byte("!")))
}

func (m *chainModel) begin() {
	m.open = append(m.open, &modelTxn{tx: m.mgr.Begin(), begin: m.commits})
}

// write makes r write rid if first-updater-wins lets it: an update, a
// delete of a live row, or an insert into a dead slot without a chain
// (the slot pin keeps inserts out of chained slots).
func (m *chainModel) write(rng *rand.Rand, r *modelTxn, rid storage.RID) {
	h := m.history[rid]
	free := len(h) == 0 || r.sees(h[len(h)-1].w)
	err := m.s.CheckWrite(r.tx, rid)
	if (err == nil) != free {
		m.t.Fatalf("CheckWrite(%d, %v) = %v, model says free=%v", r.tx.ID(), rid, err, free)
	}
	if err != nil {
		if !errors.Is(err, ErrWriteConflict) {
			m.t.Fatalf("CheckWrite: %v", err)
		}
		return
	}
	pre := m.heap[rid]
	var post []byte
	switch {
	case pre == nil:
		if m.s.Pinned(rid) {
			return
		}
		m.nextVal++
		post = []byte(fmt.Sprintf("v%d", m.nextVal))
	case rng.Intn(4) == 0:
		post = nil // delete
	default:
		m.nextVal++
		post = []byte(fmt.Sprintf("v%d", m.nextVal))
		if rng.Intn(3) == 0 {
			post = append(post, '!') // a key-changing update
		}
	}
	w := modelWrite{rid: rid, pre: pre, post: post}
	m.heap[rid] = post
	m.s.RecordWrite(r.tx, rid, pre, w.moved())
	m.history[rid] = append(m.history[rid], version{w: r, val: post})
	r.undo = append(r.undo, w)
}

func (m *chainModel) finish(i int, commit bool) {
	r := m.open[i]
	m.open = append(m.open[:i], m.open[i+1:]...)
	if commit {
		m.commits++
		r.commit = m.commits
		r.tx.Commit()
		return
	}
	for j := len(r.undo) - 1; j >= 0; j-- {
		w := r.undo[j]
		m.s.PopWrite(r.tx, w.rid)
		m.heap[w.rid] = w.pre
		h := m.history[w.rid]
		if h[len(h)-1].w != r {
			m.t.Fatalf("rollback of txn %d: newest write of %v is not its own", r.tx.ID(), w.rid)
		}
		m.history[w.rid] = h[:len(h)-1]
	}
	r.tx.Abort()
}

// TestStoreProperty runs seeded histories of writes, rollbacks, commits
// and the sweeps they trigger from several transactions, and after
// every step holds the store to the model: the moved set is exactly
// what the surviving entries' flags say, HasVersions/Pinned/RIDs agree
// with the chains, UncommittedPreImages visits the moved pre-images of
// open writers, and Resolve hands every live snapshot the newest
// version it may see — including versions whose entries were collected.
func TestStoreProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			mgr := NewManager()
			m := &chainModel{
				t: t, mgr: mgr, s: NewStore(mgr),
				heap:    map[storage.RID][]byte{},
				history: map[storage.RID][]version{},
			}
			for p := 1; p <= 2; p++ {
				for sl := 0; sl < 4; sl++ {
					m.rids = append(m.rids, storage.RID{Page: storage.PageID(p), Slot: uint16(sl)})
				}
			}
			for step := 0; step < 400; step++ {
				var what string
				switch op := rng.Intn(10); {
				case len(m.open) == 0 || (op == 0 && len(m.open) < 5):
					m.begin()
					what = "begin"
				case op <= 6:
					r := m.open[rng.Intn(len(m.open))]
					rid := m.rids[rng.Intn(len(m.rids))]
					m.write(rng, r, rid)
					what = fmt.Sprintf("write %v by %d", rid, r.tx.ID())
				default:
					i := rng.Intn(len(m.open))
					commit := rng.Intn(3) != 0
					what = fmt.Sprintf("finish %d commit=%v", m.open[i].tx.ID(), commit)
					m.finish(i, commit)
				}
				m.check(fmt.Sprintf("step %d (%s)", step, what))
			}
			for len(m.open) > 0 {
				m.finish(0, true)
				m.check("drain")
			}
			if m.s.HasVersions() {
				t.Fatalf("chains left with no transaction open: %v", m.s.RIDs())
			}
		})
	}
}

// TestResolveCounters: a point resolution of a stable chain counts in
// ChainedRowsResolved, a captured moved set in VersionsEnumerated, and
// a row without a chain in neither.
func TestResolveCounters(t *testing.T) {
	mgr := NewManager()
	s := NewStore(mgr)
	old := mgr.Begin()
	defer old.Abort()
	w := mgr.Begin()
	stable, moved, plain := storage.RID{Page: 1, Slot: 1}, storage.RID{Page: 1, Slot: 2}, storage.RID{Page: 1, Slot: 3}
	s.RecordWrite(w, stable, []byte("a"), false)
	s.RecordWrite(w, moved, []byte("b"), true)
	w.Commit()

	if got, ok := s.Resolve(old, stable, []byte("a2")); !ok || string(got) != "a" {
		t.Fatalf("old snapshot resolves the stable chain to %q, %v", got, ok)
	}
	if got, ok := s.Resolve(old, plain, []byte("c")); !ok || string(got) != "c" {
		t.Fatalf("unchained row resolves to %q, %v", got, ok)
	}
	if got := s.MovedRIDs(); len(got) != 1 || got[0] != moved {
		t.Fatalf("MovedRIDs() = %v", got)
	}
	if got, ok := s.Resolve(old, moved, nil); !ok || string(got) != "b" {
		t.Fatalf("old snapshot resolves the deleted row to %q, %v", got, ok)
	}
	c := mgr.Contention()
	if c.ChainedRowsResolved != 1 || c.VersionsEnumerated != 1 {
		t.Fatalf("ChainedRowsResolved = %d, VersionsEnumerated = %d, want 1 and 1", c.ChainedRowsResolved, c.VersionsEnumerated)
	}
}

func TestCheckWrite(t *testing.T) {
	mgr := NewManager()
	s := NewStore(mgr)
	rid := storage.RID{Page: 1, Slot: 0}

	a := mgr.Begin()
	if err := s.CheckWrite(a, rid); err != nil {
		t.Fatalf("unchained row: %v", err)
	}
	s.RecordWrite(a, rid, []byte("v0"), false)
	if err := s.CheckWrite(a, rid); err != nil {
		t.Fatalf("own write: %v", err)
	}
	b := mgr.Begin()
	if err := s.CheckWrite(b, rid); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("row held by an active writer: %v, want ErrWriteConflict", err)
	}
	a.Commit()
	if err := s.CheckWrite(b, rid); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("writer committed after b's snapshot: %v, want ErrWriteConflict", err)
	}
	c := mgr.Begin()
	if err := s.CheckWrite(c, rid); err != nil {
		t.Fatalf("writer committed before c's snapshot: %v", err)
	}
	b.Abort()
	c.Abort()
}

// waitParked blocks until some statement has parked on a row.
func waitParked(t *testing.T, mgr *Manager, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for mgr.Contention().RowWaits < n {
		if time.Now().After(deadline) {
			t.Fatal("no statement parked")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWaitCheckWrites(t *testing.T) {
	rid := storage.RID{Page: 1, Slot: 0}
	rids := []storage.RID{{Page: 1, Slot: 9}, rid}

	t.Run("free", func(t *testing.T) {
		mgr := NewManager()
		s := NewStore(mgr)
		a := mgr.Begin()
		s.RecordWrite(a, rid, []byte("v"), false)
		if err := s.WaitCheckWrites(a, rids, time.Second); err != nil {
			t.Fatalf("own write and an unchained row: %v", err)
		}
		if c := mgr.Contention(); c.RowWaits != 0 {
			t.Fatalf("parked %d times with nothing to wait for", c.RowWaits)
		}
	})

	t.Run("holder rolls back", func(t *testing.T) {
		mgr := NewManager()
		s := NewStore(mgr)
		holder, waiter := mgr.Begin(), mgr.Begin()
		s.RecordWrite(holder, rid, []byte("v"), true)
		done := make(chan error, 1)
		go func() { done <- s.WaitCheckWrites(waiter, rids, time.Minute) }()
		waitParked(t, mgr, 1)
		s.PopWrite(holder, rid)
		holder.Abort()
		if err := <-done; err != nil {
			t.Fatalf("holder rolled back, waiter got %v", err)
		}
		if c := mgr.Contention(); c.RowWaitRescues != 1 || c.RowWaitTimeouts != 0 {
			t.Fatalf("rescues %d timeouts %d, want 1 and 0", c.RowWaitRescues, c.RowWaitTimeouts)
		}
	})

	t.Run("holder commits", func(t *testing.T) {
		mgr := NewManager()
		s := NewStore(mgr)
		holder, waiter := mgr.Begin(), mgr.Begin()
		s.RecordWrite(holder, rid, []byte("v"), false)
		done := make(chan error, 1)
		go func() { done <- s.WaitCheckWrites(waiter, rids, time.Minute) }()
		waitParked(t, mgr, 1)
		holder.Commit()
		if err := <-done; !errors.Is(err, ErrWriteConflict) {
			t.Fatalf("holder committed after the waiter's snapshot: %v, want ErrWriteConflict", err)
		}
	})

	t.Run("committed too new", func(t *testing.T) {
		mgr := NewManager()
		s := NewStore(mgr)
		waiter, holder := mgr.Begin(), mgr.Begin()
		s.RecordWrite(holder, rid, []byte("v"), false)
		holder.Commit()
		if err := s.WaitCheckWrites(waiter, rids, time.Minute); !errors.Is(err, ErrWriteConflict) {
			t.Fatalf("%v, want an immediate ErrWriteConflict", err)
		}
		if c := mgr.Contention(); c.ImmediateConflicts != 1 || c.RowWaits != 0 {
			t.Fatalf("immediate conflicts %d, waits %d, want 1 and 0", c.ImmediateConflicts, c.RowWaits)
		}
	})

	t.Run("no budget", func(t *testing.T) {
		mgr := NewManager()
		s := NewStore(mgr)
		holder, waiter := mgr.Begin(), mgr.Begin()
		s.RecordWrite(holder, rid, []byte("v"), false)
		if err := s.WaitCheckWrites(waiter, rids, 0); !errors.Is(err, ErrWriteConflict) {
			t.Fatalf("%v, want ErrWriteConflict", err)
		}
	})

	t.Run("timeout", func(t *testing.T) {
		mgr := NewManager()
		s := NewStore(mgr)
		holder, waiter := mgr.Begin(), mgr.Begin()
		s.RecordWrite(holder, rid, []byte("v"), false)
		if err := s.WaitCheckWrites(waiter, rids, 5*time.Millisecond); !errors.Is(err, ErrWriteConflict) {
			t.Fatalf("%v, want ErrWriteConflict", err)
		}
		if c := mgr.Contention(); c.RowWaitTimeouts != 1 {
			t.Fatalf("timeouts %d, want 1", c.RowWaitTimeouts)
		}
	})
}
