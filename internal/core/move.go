package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/types"
)

// This file implements the paper's §7 "on-the-fly" half of migration:
// moving ONE tenant between two layout representations while that
// tenant — and every other tenant — keeps serving traffic (a tenant
// with no traffic is the same procedure with one convergence round).
// The protocol is the classic online-move shape, the same
// publish-then-catch-up idea as the engine's online ALTER
// (internal/engine/alter.go), lifted to the schema-mapping layer:
//
//  1. Register the tenant in the destination layout and start dirty
//     tracking: every logical write the tenant issues from here on
//     marks its table dirty inside the routing mux.
//  2. Convergence rounds: atomically swap out the dirty set (a
//     microsecond write-gate pause, not a stop-the-world), re-copy
//     exactly those tables source → destination, repeat until a round
//     starts with nothing dirty. Each swap also bumps the tenant's
//     route generation, so the first write per statement shape after a
//     swap — an INSERT's, whose cached statements bind fresh row ids on
//     every hit, as much as an UPDATE's or a DELETE's — re-enters the
//     mux's Rewrite and re-marks its table: cached rewrites cannot leak
//     writes past the tracker.
//  3. Cutover: take the tenant's write gate exclusively (draining
//     in-flight statements — a latch-scale wait, bounded by one
//     statement), copy the final delta, flip the route — which bumps the
//     generation again, staling the tenant's cached rewrites — release.
//     Statements that were queued behind the gate execute against the
//     destination.
//
// Correctness of the dirty protocol: a Mapper holds the tenant's gate
// in read mode across one whole statement (cache lookup through
// execution), and each round's swap runs under the gate held
// exclusively. So every statement that executes inside round window i
// acquired the gate — and therefore ran its cache lookup — after round
// i's swap and bump, which means it either refilled through
// Mux.Rewrite (marking its table into the new dirty set) or hit an
// entry some other post-swap statement filled (which marked the same
// table). Either way round i+1's swap sees the table dirty and
// re-copies it. A statement can never execute in window i carrying a
// pre-window rewrite, because the exclusive swap drained it first.
//
// Caveat: an interactive transaction spanning statements (BEGIN ...
// COMMIT on a session-backed mapper) holds the gate per statement, not
// per transaction; moving a tenant while it runs multi-statement
// transactions can cut over mid-transaction. Pause such sessions or
// move tenants during their idle windows — the same operational posture
// the paper assumes for representation changes.

// gatedLayout is implemented by layouts that gate per-tenant execution.
// Mapper entry points type-assert it; plain layouts pay nothing.
type gatedLayout interface {
	// acquire takes the tenant's statement gate shared and returns the
	// release func.
	acquire(tenant int64) func()
}

// LayoutMux is a routing Layout: every tenant resolves to the default
// layout unless an override route says otherwise. It is the unit of
// on-the-fly representation change — a Mover rewires one tenant's route
// while the mux keeps rewriting everyone's statements — and is
// transparent to Mapper (it implements Layout).
type LayoutMux struct {
	def   Layout
	cache cacheSlot // see SharedRewriteCache

	mu     sync.RWMutex
	routes map[int64]Layout
	gates  map[int64]*sync.RWMutex
	moving map[int64]map[string]bool // tenant -> dirty logical tables
	// gens counts, per tenant, the route flips and dirty-set swaps: what
	// makes a rewrite cached through the mux stale (stamp).
	gens map[int64]int64
}

// NewLayoutMux wraps a default layout.
func NewLayoutMux(def Layout) *LayoutMux {
	return &LayoutMux{
		def:    def,
		routes: make(map[int64]Layout),
		gates:  make(map[int64]*sync.RWMutex),
		moving: make(map[int64]map[string]bool),
		gens:   make(map[int64]int64),
	}
}

// Route returns the layout currently serving a tenant.
func (x *LayoutMux) Route(tenant int64) Layout {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.routeLocked(tenant)
}

func (x *LayoutMux) routeLocked(tenant int64) Layout {
	if l, ok := x.routes[tenant]; ok {
		return l
	}
	return x.def
}

// stamp is what a rewrite cached through the mux depends on: the
// tenant's route generation here and its placement generation in the
// layout the route points at.
func (x *LayoutMux) stamp(tenant int64) rcStamp {
	x.mu.RLock()
	l, route := x.routeLocked(tenant), x.gens[tenant]
	x.mu.RUnlock()
	return rcStamp{route: route, place: stampOf(l, tenant).place}
}

// SetRoute points a tenant at a layout. Passing the default layout
// clears the override.
func (x *LayoutMux) SetRoute(tenant int64, l Layout) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.gens[tenant]++
	if l == x.def {
		delete(x.routes, tenant)
		return
	}
	x.routes[tenant] = l
}

// Name reports the default technique; per-tenant overrides are a
// routing detail, not a different technique.
func (x *LayoutMux) Name() string { return x.def.Name() }

// Schema returns the logical schema (identical across routed layouts by
// construction — a move requires it).
func (x *LayoutMux) Schema() *Schema { return x.def.Schema() }

// Create provisions the default layout.
func (x *LayoutMux) Create(db *engine.DB, tenants []*Tenant) error {
	return x.def.Create(db, tenants)
}

// AddTenant registers a tenant with its routed layout.
func (x *LayoutMux) AddTenant(db *engine.DB, t *Tenant) error {
	return x.Route(t.ID).AddTenant(db, t)
}

// Rewrite routes one statement and, when the tenant is mid-move, marks
// the tables a write touches dirty. Marking here (fill time) rather
// than at execution is what makes cached rewrites safe: see the
// protocol note at the top of the file.
func (x *LayoutMux) Rewrite(tenantID int64, st sql.Statement) (*Rewritten, error) {
	x.mu.Lock()
	l := x.routeLocked(tenantID)
	if dirty, ok := x.moving[tenantID]; ok {
		switch st := st.(type) {
		case *sql.InsertStmt:
			dirty[strings.ToLower(st.Table)] = true
		case *sql.UpdateStmt:
			dirty[strings.ToLower(st.Table)] = true
		case *sql.DeleteStmt:
			dirty[strings.ToLower(st.Table)] = true
		}
	}
	x.mu.Unlock()
	return l.Rewrite(tenantID, st)
}

// gate returns the tenant's statement gate, creating it on first use.
func (x *LayoutMux) gate(tenant int64) *sync.RWMutex {
	x.mu.RLock()
	g, ok := x.gates[tenant]
	x.mu.RUnlock()
	if ok {
		return g
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if g, ok := x.gates[tenant]; ok {
		return g
	}
	g = &sync.RWMutex{}
	x.gates[tenant] = g
	return g
}

// acquire implements gatedLayout.
func (x *LayoutMux) acquire(tenant int64) func() {
	g := x.gate(tenant)
	g.RLock()
	return g.RUnlock
}

// startTracking begins dirty tracking with every logical table dirty,
// so the first convergence round copies everything.
func (x *LayoutMux) startTracking(tenant int64) {
	all := make(map[string]bool)
	for _, t := range x.Schema().Tables {
		all[strings.ToLower(t.Name)] = true
	}
	x.mu.Lock()
	x.moving[tenant] = all
	x.mu.Unlock()
}

// takeDirty swaps the tenant's dirty set for an empty one, stales its
// cached rewrites so new writes re-mark, and returns the taken tables
// sorted. Callers synchronize via the tenant gate.
func (x *LayoutMux) takeDirty(tenant int64) []string {
	x.mu.Lock()
	x.gens[tenant]++
	dirty := x.moving[tenant]
	if dirty != nil {
		x.moving[tenant] = make(map[string]bool)
	}
	x.mu.Unlock()
	out := make([]string, 0, len(dirty))
	for t := range dirty {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// stopTracking ends dirty tracking for a tenant.
func (x *LayoutMux) stopTracking(tenant int64) {
	x.mu.Lock()
	delete(x.moving, tenant)
	x.mu.Unlock()
}

// MoveReport summarizes one on-the-fly tenant move.
type MoveReport struct {
	Tenant       int64
	From, To     string // layout names
	Rounds       int    // convergence rounds before the cutover
	TablesCopied int    // table copies across all rounds (with repeats)
	RowsCopied   int64
	CutoverDirty int           // tables still dirty at cutover
	GatePause    time.Duration // exclusive-gate hold at cutover
}

// Mover executes on-the-fly tenant moves over one database.
type Mover struct {
	DB  *engine.DB
	Mux *LayoutMux
	// BatchRows is the INSERT batch size (default 64).
	BatchRows int
	// MaxRounds bounds convergence (default 8); if the tenant writes
	// faster than copies converge, the cutover gate absorbs the rest.
	MaxRounds int
	// Verify re-reads and compares every table at cutover (inside the
	// gate) before flipping the route.
	Verify bool
}

// Move transfers tenantID from its current route to dst while the
// tenant keeps executing statements, and flips the route atomically at
// the end. dst must be built over the same logical schema and the same
// *engine.DB the mux serves.
func (mv *Mover) Move(tenantID int64, dst Layout) (*MoveReport, error) {
	src := mv.Mux.Route(tenantID)
	if src == dst {
		return nil, fmt.Errorf("core: tenant %d already on layout %s", tenantID, dst.Name())
	}
	srcTn, err := layoutTenant(src, tenantID)
	if err != nil {
		return nil, err
	}
	if dstTn, err := layoutTenant(dst, tenantID); err != nil {
		// Not registered at the destination yet: register now (online —
		// AddTenant is metadata except for Private, which creates empty
		// tables).
		if err := dst.AddTenant(mv.DB, &Tenant{ID: srcTn.ID, Extensions: append([]string(nil), srcTn.Extensions...)}); err != nil {
			return nil, fmt.Errorf("core: register tenant %d at destination: %w", tenantID, err)
		}
	} else if !sameExtensions(srcTn, dstTn) {
		return nil, fmt.Errorf("core: tenant %d extension sets differ between layouts", tenantID)
	}

	rep := &MoveReport{Tenant: tenantID, From: src.Name(), To: dst.Name()}
	g := mv.Mux.gate(tenantID)
	mv.Mux.startTracking(tenantID)
	defer mv.Mux.stopTracking(tenantID)

	maxRounds := mv.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 8
	}
	// Rounds may run out before one starts clean: the gated final delta
	// below covers the rest.
	for round := 0; round < maxRounds; round++ {
		// Swap under the gate: drains in-flight statements so every
		// already-consumed mark's write is visible to this round's copy.
		g.Lock()
		dirty := mv.Mux.takeDirty(tenantID)
		g.Unlock()
		if len(dirty) == 0 {
			break
		}
		rep.Rounds++
		for _, table := range dirty {
			n, err := mv.copyTable(src, dst, srcTn, table)
			if err != nil {
				return rep, fmt.Errorf("core: move tenant %d table %s: %w", tenantID, table, err)
			}
			rep.TablesCopied++
			rep.RowsCopied += n
		}
	}
	// Cutover: exclusive gate, final delta, flip.
	g.Lock()
	start := time.Now()
	finish := func() { rep.GatePause = time.Since(start); g.Unlock() }
	dirty := mv.Mux.takeDirty(tenantID)
	rep.CutoverDirty = len(dirty)
	for _, table := range dirty {
		n, err := mv.copyTable(src, dst, srcTn, table)
		if err != nil {
			finish()
			return rep, fmt.Errorf("core: move tenant %d final delta %s: %w", tenantID, table, err)
		}
		rep.TablesCopied++
		rep.RowsCopied += n
	}
	if mv.Verify {
		for _, t := range src.Schema().Tables {
			if err := mv.verifyTable(src, dst, srcTn, t.Name); err != nil {
				finish()
				return rep, fmt.Errorf("core: move tenant %d verify: %w", tenantID, err)
			}
		}
	}
	mv.Mux.SetRoute(tenantID, dst)
	finish()
	return rep, nil
}

// copyTable replaces the destination's rows for one logical table with
// the source's. It talks to the layouts directly, never through the
// gated mux — the cutover calls it with the gate held exclusively: it
// reads with queryLogical and writes through a Mapper over dst itself.
func (mv *Mover) copyTable(src, dst Layout, tn *Tenant, tableName string) (int64, error) {
	table := src.Schema().Table(tableName)
	if table == nil {
		return 0, fmt.Errorf("no logical table %s", tableName)
	}
	names, err := columnNames(src, tn, table.Name)
	if err != nil {
		return 0, err
	}

	// Clear the destination first: rounds re-copy tables whose rows may
	// have been updated or deleted at the source since the last copy.
	w := NewMapper(mv.DB, dst)
	if _, err := w.execParsed(tn.ID, &sql.DeleteStmt{Table: table.Name}, nil); err != nil {
		return 0, err
	}

	rows, err := mv.queryLogical(src, tn.ID, table.Name, names)
	if err != nil {
		return 0, err
	}
	batch := mv.BatchRows
	if batch <= 0 {
		batch = 64
	}
	for start := 0; start < len(rows); start += batch {
		end := start + batch
		if end > len(rows) {
			end = len(rows)
		}
		ins := &sql.InsertStmt{Table: table.Name, Columns: names}
		for _, r := range rows[start:end] {
			vals := make([]sql.Expr, len(r))
			for i, v := range r {
				vals[i] = &sql.Literal{Val: v}
			}
			ins.Rows = append(ins.Rows, vals)
		}
		if _, err := w.execParsed(tn.ID, ins, nil); err != nil {
			return int64(start), err
		}
	}
	return int64(len(rows)), nil
}

// columnNames lists the tenant's logical columns of a table.
func columnNames(l Layout, tn *Tenant, table string) ([]string, error) {
	cols, err := l.Schema().LogicalColumns(tn, table)
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return names, err
}

// queryLogical reads one table's logical rows through a layout,
// bypassing Mapper (and its gate).
func (mv *Mover) queryLogical(l Layout, tenant int64, table string, cols []string) ([][]types.Value, error) {
	sel := &sql.SelectStmt{From: []sql.TableRef{&sql.NamedTable{Name: table}}}
	for _, c := range cols {
		sel.Items = append(sel.Items, sql.SelectItem{Expr: &sql.ColumnRef{Name: c}})
	}
	rw, err := l.Rewrite(tenant, sel)
	if err != nil {
		return nil, err
	}
	rows, err := mv.DB.QueryStmt(rw.Query, "")
	if err != nil {
		return nil, err
	}
	return rows.Data, nil
}

// verifyTable compares one table's logical contents between layouts.
func (mv *Mover) verifyTable(src, dst Layout, tn *Tenant, table string) error {
	names, err := columnNames(src, tn, table)
	if err != nil {
		return err
	}
	a, err := mv.queryLogical(src, tn.ID, table, names)
	if err != nil {
		return err
	}
	b, err := mv.queryLogical(dst, tn.ID, table, names)
	if err != nil {
		return err
	}
	if err := sameRowMultiset(a, b); err != nil {
		return fmt.Errorf("table %s diverges: %w", table, err)
	}
	return nil
}

// layoutTenant resolves a tenant in a layout's registry (every layout
// keeps one in its shared state).
func layoutTenant(l Layout, id int64) (*Tenant, error) {
	fl, ok := l.(*FragmentLayout)
	if !ok {
		return nil, fmt.Errorf("core: layout %s does not expose tenants", l.Name())
	}
	return fl.st.tenant(id)
}

func sameExtensions(a, b *Tenant) bool {
	if len(a.Extensions) != len(b.Extensions) {
		return false
	}
	for _, e := range a.Extensions {
		if !b.HasExtension(e) {
			return false
		}
	}
	return true
}

// sameRowMultiset compares two result sets order-insensitively.
func sameRowMultiset(a, b [][]types.Value) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d rows", len(a), len(b))
	}
	key := func(r []types.Value) string {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.Kind.String() + ":" + v.String()
		}
		return strings.Join(parts, "|")
	}
	counts := map[string]int{}
	for _, r := range a {
		counts[key(r)]++
	}
	for _, r := range b {
		k := key(r)
		counts[k]--
		if counts[k] < 0 {
			return fmt.Errorf("row %s only in destination", k)
		}
	}
	for k, n := range counts {
		if n != 0 {
			return fmt.Errorf("row %s only in source", k)
		}
	}
	return nil
}
