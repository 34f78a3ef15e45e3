package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/mvcc"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/types"
)

// snapshotLedger is the oracle of the concurrent test: the committed
// contents of t after every commit, indexed by commit timestamp. All
// commits go through commit(), one at a time, and nothing else stamps
// the clock, so the kth commit publishes timestamp k and a reader whose
// snapshot is k must see exactly states[k].
type snapshotLedger struct {
	mu     sync.Mutex
	cond   *sync.Cond
	states []map[int64][2]int64 // id -> (k, val)
}

// commit publishes tx and records the state it leaves: the newest state
// with the writer's own changes (nil value: deleted) applied.
func (l *snapshotLedger) commit(tx *mvcc.Txn, changes map[int64]*[2]int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	last := l.states[len(l.states)-1]
	next := make(map[int64][2]int64, len(last)+len(changes))
	for id, v := range last {
		next[id] = v
	}
	for id, v := range changes {
		if v == nil {
			delete(next, id)
		} else {
			next[id] = *v
		}
	}
	tx.Commit()
	l.states = append(l.states, next)
	l.cond.Broadcast()
}

// at renders the state a snapshot taken at ts must see, waiting out the
// instant between a commit's publication and its ledger entry.
func (l *snapshotLedger) at(ts uint64) string {
	l.mu.Lock()
	for uint64(len(l.states)) <= ts {
		l.cond.Wait()
	}
	st := l.states[ts]
	l.mu.Unlock()
	out := make([]string, 0, len(st))
	for id, v := range st {
		out = append(out, fmt.Sprintf("%d|%d|%d|", id, v[0], v[1]))
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

func renderSorted(rows [][]types.Value) string {
	out := renderRows(rows)
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestConcurrentSnapshotReads: reader goroutines scan one shared table
// by heap and by index, under the shared table latch, while writer
// goroutines — each on its own rows of the same table, as tenants of a
// chunk table are — update keys and non-keys, delete, insert, outgrow
// pages, commit and roll back, and every termination sweeps the version
// store without any latch. Every result of every reader must be exactly
// the committed state at its snapshot. Run under -race.
func TestConcurrentSnapshotReads(t *testing.T) {
	const (
		writers, readers = 3, 3
		rowsPerWriter    = 20
		txnsPerWriter    = 120
	)
	b := newDiffBed(t, 0)
	initial := map[int64][2]int64{}
	for w := 0; w < writers; w++ {
		for i := 0; i < rowsPerWriter; i++ {
			id := int64(1000*(w+1) + i)
			if _, err := b.t.InsertRow([]types.Value{
				types.NewInt(id), types.NewInt(id % 10), types.NewInt(10 * id), types.NewString(strings.Repeat("p", 600)),
			}); err != nil {
				t.Fatal(err)
			}
			initial[id] = [2]int64{id % 10, 10 * id}
		}
	}
	ledger := &snapshotLedger{states: []map[int64][2]int64{initial}}
	ledger.cond = sync.NewCond(&ledger.mu)

	// One statement as the engine's sessions run it: gather under the
	// shared latch, apply (or undo the failed attempt) under the
	// exclusive one.
	stmt := func(tx *mvcc.Txn, undo *catalog.UndoLog, q string) error {
		st, err := sql.Parse(q)
		if err != nil {
			return err
		}
		b.t.Mu.RLock()
		p, err := plan.New(b.cat, plan.Sophisticated).PlanStatement(st)
		var pd *PreparedDML
		if err == nil {
			pd, err = PrepareDML(p, nil, nil, tx)
		}
		b.t.Mu.RUnlock()
		if err != nil {
			return err
		}
		b.t.Mu.Lock()
		defer b.t.Mu.Unlock()
		mark := undo.Mark()
		if _, err := ApplyDML(pd, tx, undo); err != nil {
			if _, rbErr := undo.RollbackTo(mark); rbErr != nil {
				return errors.Join(err, rbErr)
			}
			return err
		}
		return nil
	}

	start, done := make(chan struct{}), make(chan struct{})
	var wwg, rwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			<-start
			rng := rand.New(rand.NewSource(int64(w + 1)))
			mine := map[int64][2]int64{} // this writer's committed rows
			for id, v := range initial {
				if id/1000 == int64(w+1) {
					mine[id] = v
				}
			}
			nextID := int64(1000*(w+1) + rowsPerWriter)
			for n := 0; n < txnsPerWriter; n++ {
				tx, undo := b.mgr.Begin(), &catalog.UndoLog{}
				changes := map[int64]*[2]int64{}
				// A transaction that will roll back frees no page space (no
				// delete, no relocation, no change of a row's length): a
				// rollback restores bytes in place and has no claim on space
				// another transaction took in the meantime.
				abort := rng.Intn(4) == 0
				cur := func(id int64) (v [2]int64, ok bool) {
					if c, changed := changes[id]; changed {
						if c == nil {
							return v, false
						}
						return *c, true
					}
					v, ok = mine[id]
					return v, ok
				}
				for s := 1 + rng.Intn(3); s > 0; s-- {
					var ids []int64
					for id := range mine {
						if _, ok := cur(id); ok {
							ids = append(ids, id)
						}
					}
					sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
					if len(ids) == 0 {
						break
					}
					id := ids[rng.Intn(len(ids))]
					v, _ := cur(id)
					var q string
					op := rng.Intn(6)
					if abort && (op == 1 || op == 3) {
						op = 0
					}
					switch op {
					case 0: // k stays in 0..9, so the row keeps its length
						q = fmt.Sprintf("UPDATE t SET k = 9 - k WHERE id = %d", id)
						changes[id] = &[2]int64{9 - v[0], v[1]}
					case 1:
						q = fmt.Sprintf("DELETE FROM t WHERE id = %d", id)
						changes[id] = nil
					case 2:
						nextID++
						q = fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d, 'new')", nextID, nextID%10, nextID)
						changes[nextID] = &[2]int64{nextID % 10, nextID}
					case 3:
						q = fmt.Sprintf("UPDATE t SET pad = '%s' WHERE id = %d", strings.Repeat("g", 2500), id)
					default:
						q = fmt.Sprintf("UPDATE t SET val = val + 1 WHERE id = %d", id)
						changes[id] = &[2]int64{v[0], v[1] + 1}
					}
					if err := stmt(tx, undo, q); err != nil {
						t.Errorf("writer %d: %q: %v", w, q, err)
						return
					}
				}
				if abort {
					b.t.Mu.Lock()
					err := undo.Rollback()
					b.t.Mu.Unlock()
					if err != nil {
						t.Errorf("writer %d: rollback: %v", w, err)
						return
					}
					tx.Abort()
					continue
				}
				ledger.commit(tx, changes)
				for id, v := range changes {
					if v == nil {
						delete(mine, id)
					} else {
						mine[id] = *v
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		// Planned before any writer runs; a plan is one goroutine's.
		seq := planQuery(t, b.cat, "SELECT id, k, val FROM t")
		idx := planQuery(t, b.cat, "SELECT id, k, val FROM t WHERE k >= 0")
		if !hasNode(seq, "TBSCAN") || !hasNode(idx, "IXSCAN") {
			t.Fatal("the readers' plans do not cover both access paths")
		}
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				tx := b.mgr.Begin()
				for pass := 0; pass < 3; pass++ {
					for name, p := range map[string]plan.Node{"seq scan": seq, "index scan": idx} {
						b.t.Mu.RLock()
						rows, err := runPlan(p, nil, nil, tx, false)
						b.t.Mu.RUnlock()
						if err != nil {
							t.Errorf("reader %d: %s: %v", r, name, err)
							return
						}
						if got, want := renderSorted(rows), ledger.at(tx.BeginTS()); got != want {
							t.Errorf("reader %d: %s at snapshot %d, pass %d: %d rows differ from the committed state",
								r, name, tx.BeginTS(), pass, len(rows))
							return
						}
					}
				}
				tx.Abort() // sweeps
			}
		}(r)
	}
	close(start)
	wwg.Wait()
	close(done)
	rwg.Wait()
	if c := b.mgr.Contention(); c.ChainedRowsResolved == 0 || c.VersionsEnumerated == 0 {
		t.Errorf("the readers met no chains: resolved %d, enumerated %d", c.ChainedRowsResolved, c.VersionsEnumerated)
	}
}

// TestConcurrentJoinsAcrossInserts: two sessions re-execute one index-NL
// join each, on a tree of their own that they recycle — so its probe
// cursor, and the leaf that cursor remembers, outlive every statement —
// while a third session inserts into the probed index between their
// statements, in runs on few keys so that the remembered leaves fill
// and split. Every execution must see exactly the rows committed under
// the latch it ran under. Run under -race: the sessions' cursors re-enter
// the same resident leaves at once.
func TestConcurrentJoinsAcrossInserts(t *testing.T) {
	_, cat := propFixture(t, 3, nil)
	acct, err := cat.Table("account")
	if err != nil {
		t.Fatal(err)
	}
	opp, err := cat.Table("opportunity")
	if err != nil {
		t.Fatal(err)
	}
	const q = "SELECT a.id, o.id FROM account a, opportunity o WHERE o.account_id = a.id"
	first, err := runPlan(planQuery(t, cat, q), nil, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	// Guarded by opp.Mu: the join's row count and the sum of its o.id.
	matches, sum := len(first), int64(0)
	for _, row := range first {
		sum += row[1].Int
	}

	const inserts, sessions = 400, 2
	done := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		p := planQuery(t, cat, q) // a plan is one goroutine's
		if !hasNode(p, "NLJOIN") {
			t.Fatal("the sessions' plan has no index-NL join")
		}
		tree, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for runs := 0; ; runs++ {
				select {
				case <-done:
					if runs >= 20 {
						return
					}
				default:
				}
				acct.Mu.RLock()
				opp.Mu.RLock()
				rows, err := tree.Collect(nil, nil, nil)
				wantRows, wantSum := matches, sum
				opp.Mu.RUnlock()
				acct.Mu.RUnlock()
				if err != nil || !tree.Reusable() {
					t.Errorf("session %d: %v (reusable %v)", s, err, tree.Reusable())
					return
				}
				got := int64(0)
				for _, row := range rows {
					got += row[1].Int
				}
				if len(rows) != wantRows || got != wantSum {
					t.Errorf("session %d run %d: %d rows, o.id sum %d; want %d and %d", s, runs, len(rows), got, wantRows, wantSum)
					return
				}
			}
		}(s)
	}
	for i := 0; i < inserts; i++ {
		id := int64(100000 + i)
		opp.Mu.Lock()
		_, err := opp.InsertRow([]types.Value{
			types.NewInt(id), types.NewInt(int64(1 + i/40)), types.NewString("won"), types.NewInt(1),
		})
		matches, sum = matches+1, sum+id
		opp.Mu.Unlock()
		if err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}
