// Package modeltest checks the engine's transactional semantics
// against an executable model: a tiny in-memory multi-version database
// implementing snapshot isolation with first-updater-wins conflicts,
// driven in lockstep with the real engine over randomized multi-tenant
// transaction workloads. Any divergence — in rows affected, error
// class, query results, or final committed state — is a bug in one of
// the two, and the model is small enough to audit by eye.
//
// The engine's bounded-wait machinery (row waits, write-admission
// parks, forced admission — DESIGN.md §12) needs no new outcome
// classes here: the driver issues statements serially, so every
// engine-side park runs its full deadline and then resolves exactly as
// an immediate decision would — a rescued wait is ClsOK, an expired
// one ClsConflict. Bounded waiting changes statement latency, never
// statement outcome, under a serial schedule. What the model does
// mirror is lazy snapshot pinning: a transaction's beginTS freezes at
// its first observing statement (pin), not at BEGIN.
package modeltest

import "sort"

// Error classes the model predicts; the driver maps engine errors onto
// the same labels.
const (
	ClsOK          = "ok"
	ClsConflict    = "conflict"    // mvcc.ErrWriteConflict (txn rolled back if one was open)
	ClsAborted     = "aborted"     // statement refused: txn already conflict-aborted
	ClsNoTxn       = "notxn"       // COMMIT/ROLLBACK/SAVEPOINT outside a transaction
	ClsTxnOpen     = "txnopen"     // BEGIN inside a transaction
	ClsNoSavepoint = "nosavepoint" // ROLLBACK TO an unknown name
	ClsUnique      = "unique"      // unique-constraint violation (statement-level)
)

// ver is one committed version of a row. ts is the model's commit
// clock value; del marks a tombstone.
type ver struct {
	ts  uint64
	del bool
	v   string
	bal int64
}

// mtable holds the committed version lists of one table, newest last,
// keyed by the unique key column.
type mtable struct {
	vers map[int64][]ver
}

// ovEntry is one uncommitted write in a transaction's overlay.
type ovEntry struct {
	del bool
	v   string
	bal int64
}

// overlay maps table -> key -> uncommitted state.
type overlay map[string]map[int64]*ovEntry

func (o overlay) clone() overlay {
	c := make(overlay, len(o))
	for t, keys := range o {
		ck := make(map[int64]*ovEntry, len(keys))
		for k, e := range keys {
			cp := *e
			ck[k] = &cp
		}
		c[t] = ck
	}
	return c
}

func (o overlay) get(table string, k int64) *ovEntry {
	if keys, ok := o[table]; ok {
		return keys[k]
	}
	return nil
}

func (o overlay) put(table string, k int64, e *ovEntry) {
	keys, ok := o[table]
	if !ok {
		keys = make(map[int64]*ovEntry)
		o[table] = keys
	}
	keys[k] = e
}

// Model is the reference database: committed versions plus the
// uncommitted overlays of its sessions. All methods assume a single
// driver goroutine (the harness serializes every statement).
type Model struct {
	clock    uint64
	tables   map[string]*mtable
	sessions []*MSession

	// Transaction outcome counters, mirroring engine.Stats: only
	// session transactions count (autocommit statements do not).
	Commits  int // durable COMMITs (including read-only)
	Aborts   int // explicit ROLLBACKs + conflict aborts
	Conflict int // conflict-forced aborts (subset of Aborts)
}

// NewModel builds a model with the given tables, all empty.
func NewModel(tables ...string) *Model {
	m := &Model{tables: make(map[string]*mtable)}
	for _, t := range tables {
		m.tables[t] = &mtable{vers: make(map[int64][]ver)}
	}
	return m
}

// Seed installs a committed row at clock zero (visible to every
// snapshot), bypassing transaction machinery — the driver seeds the
// real database before any session begins.
func (m *Model) Seed(table string, k int64, v string, bal int64) {
	mt := m.tables[table]
	mt.vers[k] = append(mt.vers[k], ver{ts: 0, v: v, bal: bal})
}

// Session adds a connection to the model.
func (m *Model) Session() *MSession {
	s := &MSession{m: m, id: len(m.sessions)}
	m.sessions = append(m.sessions, s)
	return s
}

// visibleAt returns the newest version of (table, k) committed at or
// before snapshot ts, or nil.
func (m *Model) visibleAt(table string, k int64, ts uint64) *ver {
	vs := m.tables[table].vers[k]
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].ts <= ts {
			return &vs[i]
		}
	}
	return nil
}

// newest returns the newest committed version of (table, k), or nil.
func (m *Model) newest(table string, k int64) *ver {
	vs := m.tables[table].vers[k]
	if len(vs) == 0 {
		return nil
	}
	return &vs[len(vs)-1]
}

// foreignWrite reports whether any other open transaction has an
// uncommitted write on (table, k) — the first-updater-wins "first
// updater is still active" case.
func (m *Model) foreignWrite(self *MSession, table string, k int64) bool {
	for _, s := range m.sessions {
		if s != self && s.inTxn && s.ov.get(table, k) != nil {
			return true
		}
	}
	return false
}

// keys returns every key that has either a committed version or an
// overlay entry visible to the reading session, sorted.
func (m *Model) keysFor(s *MSession, table string) []int64 {
	seen := map[int64]bool{}
	for k := range m.tables[table].vers {
		seen[k] = true
	}
	if s != nil && s.inTxn {
		for k := range s.ov[table] {
			seen[k] = true
		}
	}
	ks := make([]int64, 0, len(seen))
	for k := range seen {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// MSession mirrors engine.Session's transaction state machine.
type MSession struct {
	m       *Model
	id      int
	inTxn   bool
	aborted bool
	beginTS uint64
	pinned  bool // snapshot observed; beginTS frozen (lazy pinning)
	ov      overlay
	saves   []msave
}

type msave struct {
	name string
	ov   overlay
}

// InTxn mirrors engine.Session.InTxn (aborted still counts: the
// session owes a ROLLBACK).
func (s *MSession) InTxn() bool { return s.inTxn || s.aborted }

// Aborted reports the conflict-aborted state.
func (s *MSession) Aborted() bool { return s.aborted }

// pin freezes the transaction's snapshot at its first observation,
// mirroring the engine's lazy snapshot pinning (mvcc.Manager.Pin):
// BEGIN gives a provisional snapshot, and the first statement that
// could observe it re-stamps it at the current clock. Transaction
// control (SAVEPOINT, ROLLBACK TO) does not pin — it observes nothing
// beyond the session's own overlay.
func (s *MSession) pin() {
	if s.inTxn && !s.pinned {
		s.pinned = true
		s.beginTS = s.m.clock
	}
}

// read resolves (table, k) for this session: own overlay first, then
// the snapshot (or latest committed state outside a transaction).
func (s *MSession) read(table string, k int64) (string, int64, bool) {
	if s.inTxn {
		if e := s.ov.get(table, k); e != nil {
			if e.del {
				return "", 0, false
			}
			return e.v, e.bal, true
		}
		if v := s.m.visibleAt(table, k, s.beginTS); v != nil && !v.del {
			return v.v, v.bal, true
		}
		return "", 0, false
	}
	if v := s.m.newest(table, k); v != nil && !v.del {
		return v.v, v.bal, true
	}
	return "", 0, false
}

// --- transaction control ---

func (s *MSession) Begin() string {
	if s.aborted {
		return ClsAborted
	}
	if s.inTxn {
		return ClsTxnOpen
	}
	s.inTxn = true
	s.beginTS = s.m.clock // provisional until pinned
	s.pinned = false
	s.ov = make(overlay)
	s.saves = nil
	return ClsOK
}

func (s *MSession) Commit() string {
	if s.aborted {
		s.aborted = false
		return ClsAborted
	}
	if !s.inTxn {
		return ClsNoTxn
	}
	s.m.clock++
	ts := s.m.clock
	for table, keys := range s.ov {
		mt := s.m.tables[table]
		for k, e := range keys {
			mt.vers[k] = append(mt.vers[k], ver{ts: ts, del: e.del, v: e.v, bal: e.bal})
		}
	}
	s.m.Commits++
	s.clear()
	return ClsOK
}

func (s *MSession) Rollback() string {
	if s.aborted {
		s.aborted = false
		return ClsOK
	}
	if !s.inTxn {
		return ClsNoTxn
	}
	s.m.Aborts++
	s.clear()
	return ClsOK
}

func (s *MSession) Savepoint(name string) string {
	if s.aborted {
		return ClsAborted
	}
	if !s.inTxn {
		return ClsNoTxn
	}
	s.saves = append(s.saves, msave{name: name, ov: s.ov.clone()})
	return ClsOK
}

func (s *MSession) RollbackTo(name string) string {
	if s.aborted {
		return ClsAborted
	}
	if !s.inTxn {
		return ClsNoTxn
	}
	found := -1
	for i := len(s.saves) - 1; i >= 0; i-- {
		if s.saves[i].name == name {
			found = i
			break
		}
	}
	if found < 0 {
		return ClsNoSavepoint
	}
	// Later savepoints are destroyed; the named one survives (so its
	// snapshot must stay intact — restore from a fresh clone).
	s.saves = s.saves[:found+1]
	s.ov = s.saves[found].ov.clone()
	return ClsOK
}

func (s *MSession) clear() {
	s.inTxn = false
	s.aborted = false
	s.pinned = false
	s.ov = nil
	s.saves = nil
}

// conflictAbort rolls the open transaction back after a write-write
// conflict, mirroring the engine's forced abort.
func (s *MSession) conflictAbort() {
	s.m.Conflict++
	s.m.Aborts++
	s.clear()
	s.aborted = true
}

// --- DML ---

// writeConflicts decides first-updater-wins for an update/delete of a
// row this session can see: the newest committed version is newer than
// the snapshot, or another open transaction wrote the row.
func (s *MSession) writeConflicts(table string, k int64) bool {
	if s.m.foreignWrite(s, table, k) {
		return true
	}
	if s.inTxn {
		if n := s.m.newest(table, k); n != nil && n.ts > s.beginTS {
			return true
		}
	}
	return false
}

// Insert models INSERT INTO table VALUES (k, v, bal).
func (s *MSession) Insert(table string, k int64, v string, bal int64) (int64, string) {
	if s.aborted {
		return 0, ClsAborted
	}
	s.pin()
	// Unique check against current state, classified like the engine:
	// key held or shadowed by an uncommitted foreign write -> conflict;
	// committed live row (or own live write) -> violation.
	if s.m.foreignWrite(s, table, k) {
		if s.inTxn {
			s.conflictAbort()
		}
		return 0, ClsConflict
	}
	if s.inTxn {
		if e := s.ov.get(table, k); e != nil {
			if !e.del {
				return 0, ClsUnique
			}
			// Own uncommitted delete: the key is free again for this txn.
			s.ov.put(table, k, &ovEntry{v: v, bal: bal})
			return 1, ClsOK
		}
	}
	if n := s.m.newest(table, k); n != nil && !n.del {
		return 0, ClsUnique
	}
	if s.inTxn {
		s.ov.put(table, k, &ovEntry{v: v, bal: bal})
	} else {
		s.m.clock++
		mt := s.m.tables[table]
		mt.vers[k] = append(mt.vers[k], ver{ts: s.m.clock, v: v, bal: bal})
	}
	return 1, ClsOK
}

// UpdateBal models UPDATE table SET bal = bal + delta WHERE k = ?.
func (s *MSession) UpdateBal(table string, k, delta int64) (int64, string) {
	return s.pointWrite(table, k, func(e *ovEntry) { e.bal += delta })
}

// UpdateV models UPDATE table SET v = ? WHERE k = ?.
func (s *MSession) UpdateV(table string, k int64, v string) (int64, string) {
	return s.pointWrite(table, k, func(e *ovEntry) { e.v = v })
}

// Delete models DELETE FROM table WHERE k = ?.
func (s *MSession) Delete(table string, k int64) (int64, string) {
	return s.pointWrite(table, k, func(e *ovEntry) { e.del = true })
}

func (s *MSession) pointWrite(table string, k int64, mut func(*ovEntry)) (int64, string) {
	if s.aborted {
		return 0, ClsAborted
	}
	s.pin()
	v, bal, ok := s.read(table, k)
	if !ok {
		return 0, ClsOK // no visible row: zero rows affected, no conflict
	}
	if s.writeConflicts(table, k) {
		if s.inTxn {
			s.conflictAbort()
		}
		return 0, ClsConflict
	}
	e := &ovEntry{v: v, bal: bal}
	mut(e)
	if s.inTxn {
		s.ov.put(table, k, e)
		return 1, ClsOK
	}
	// Autocommit write: immediately committed.
	s.m.clock++
	mt := s.m.tables[table]
	mt.vers[k] = append(mt.vers[k], ver{ts: s.m.clock, del: e.del, v: e.v, bal: e.bal})
	return 1, ClsOK
}

// RangeUpdateBal models UPDATE table SET bal = bal + delta
// WHERE k >= lo AND k < hi.
func (s *MSession) RangeUpdateBal(table string, lo, hi, delta int64) (int64, string) {
	return s.writeWhere(table,
		func(k int64, _ string, _ int64) bool { return k >= lo && k < hi },
		func(e *ovEntry) { e.bal += delta })
}

// UpdateBalByBal models UPDATE table SET bal = bal + delta
// WHERE bal >= lo AND bal < hi: the column read is the column written.
func (s *MSession) UpdateBalByBal(table string, lo, hi, delta int64) (int64, string) {
	return s.writeWhere(table,
		func(_ int64, _ string, bal int64) bool { return bal >= lo && bal < hi },
		func(e *ovEntry) { e.bal += delta })
}

// UpdateAllV models UPDATE table SET v = ?, without a WHERE.
func (s *MSession) UpdateAllV(table, v string) (int64, string) {
	return s.writeWhere(table,
		func(int64, string, int64) bool { return true },
		func(e *ovEntry) { e.v = v })
}

// DeleteRange models DELETE FROM table WHERE k >= lo AND k < hi.
func (s *MSession) DeleteRange(table string, lo, hi int64) (int64, string) {
	return s.writeWhere(table,
		func(k int64, _ string, _ int64) bool { return k >= lo && k < hi },
		func(e *ovEntry) { e.del = true })
}

// writeWhere models an UPDATE or DELETE by predicate: all visible
// matches mutate, and a conflict on any of them aborts the whole
// statement (and transaction).
func (s *MSession) writeWhere(table string, match func(k int64, v string, bal int64) bool, mut func(*ovEntry)) (int64, string) {
	if s.aborted {
		return 0, ClsAborted
	}
	s.pin()
	var matched []int64
	for _, k := range s.m.keysFor(s, table) {
		if v, bal, ok := s.read(table, k); ok && match(k, v, bal) {
			matched = append(matched, k)
		}
	}
	for _, k := range matched {
		if s.writeConflicts(table, k) {
			if s.inTxn {
				s.conflictAbort()
			}
			return 0, ClsConflict
		}
	}
	if !s.inTxn && len(matched) > 0 {
		s.m.clock++
	}
	for _, k := range matched {
		v, bal, _ := s.read(table, k)
		e := &ovEntry{v: v, bal: bal}
		mut(e)
		if s.inTxn {
			s.ov.put(table, k, e)
		} else {
			mt := s.m.tables[table]
			mt.vers[k] = append(mt.vers[k], ver{ts: s.m.clock, del: e.del, v: e.v, bal: e.bal})
		}
	}
	return int64(len(matched)), ClsOK
}

// --- queries ---

// SelectPoint models SELECT v, bal FROM table WHERE k = ?.
func (s *MSession) SelectPoint(table string, k int64) ([][2]interface{}, string) {
	if s.aborted {
		return nil, ClsAborted
	}
	s.pin()
	if v, bal, ok := s.read(table, k); ok {
		return [][2]interface{}{{v, bal}}, ClsOK
	}
	return nil, ClsOK
}

// SelectRange models SELECT k, bal FROM table WHERE k >= lo AND k < hi
// ORDER BY k.
func (s *MSession) SelectRange(table string, lo, hi int64) ([][2]int64, string) {
	if s.aborted {
		return nil, ClsAborted
	}
	s.pin()
	var out [][2]int64
	for _, k := range s.m.keysFor(s, table) {
		if k >= lo && k < hi {
			if _, bal, ok := s.read(table, k); ok {
				out = append(out, [2]int64{k, bal})
			}
		}
	}
	return out, ClsOK
}

// SelectAgg models SELECT COUNT(*), SUM(bal) FROM table. The second
// return is (sum, sumIsNull): SQL SUM over zero rows is NULL.
func (s *MSession) SelectAgg(table string) (count int64, sum int64, sumNull bool, cls string) {
	if s.aborted {
		return 0, 0, false, ClsAborted
	}
	s.pin()
	for _, k := range s.m.keysFor(s, table) {
		if _, bal, ok := s.read(table, k); ok {
			count++
			sum += bal
		}
	}
	return count, sum, count == 0, ClsOK
}

// CommittedState returns the committed rows of a table as sorted
// [k, v, bal] triples — the ground truth an autocommit reader must see.
func (m *Model) CommittedState(table string) [][3]interface{} {
	var out [][3]interface{}
	for _, k := range m.keysFor(nil, table) {
		if v := m.newest(table, k); v != nil && !v.del {
			out = append(out, [3]interface{}{k, v.v, v.bal})
		}
	}
	return out
}
