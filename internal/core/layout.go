package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/types"
)

// Layout is a schema-mapping technique: it provisions the physical
// multi-tenant schema and rewrites logical single-tenant statements
// into physical statements (the paper's query-transformation layer).
type Layout interface {
	// Name identifies the technique ("chunk", "private", ...).
	Name() string
	// Schema returns the logical schema the layout was built for.
	Schema() *Schema
	// Create provisions the physical schema on db and registers the
	// initial tenants.
	Create(db *engine.DB, tenants []*Tenant) error
	// AddTenant registers a tenant while the system is on-line.
	AddTenant(db *engine.DB, t *Tenant) error
	// Rewrite transforms one logical statement for a tenant.
	Rewrite(tenantID int64, st sql.Statement) (*Rewritten, error)
}

// Rewritten is the physical form of a logical statement. Exactly one
// of the shapes is populated:
//
//   - Query: a SELECT, rewritten in place.
//   - Direct (+DirectIsCount / Inserted): statements that run as-is.
//   - RowQuery + PhaseB: the paper's §6.3 two-phase DML — phase (a)
//     collects the affected logical rows (and any computed SET values),
//     phase (b) applies per-chunk physical writes built from them.
//
// An UPDATE or DELETE is Direct when everything it touches is stored in
// one fragment (the fusion rule, placement.direct) — in Basic and
// Private, whose placements are one fragment, always — and two-phase
// otherwise.
type Rewritten struct {
	Query *sql.SelectStmt

	Direct []sql.Statement
	// DirectIsCount: logical rows affected = first Direct statement's
	// RowsAffected (a fused UPDATE or DELETE).
	DirectIsCount bool
	// Inserted: logical rows inserted (multi-statement inserts).
	Inserted int64
	// rowIDs is an INSERT's Row literal for each logical row it inserts,
	// in order: the ids the rewrite reserved. reserve reserves Inserted
	// more, consecutive, for the same tenant and table; it is unset where
	// the placement has no Row, and no statement carries rowIDs. They let
	// a cached INSERT run again under fresh ids (compile).
	rowIDs  []*sql.Literal
	reserve func() int64

	RowQuery *sql.SelectStmt
	// PhaseB takes RowQuery's result — [row id, SET values...] per
	// affected row — and returns the writes in execution order; for no
	// rows, none.
	PhaseB func(rows [][]types.Value) []sql.Statement
}

// statements lists the physical statements of whichever shape rw is:
// Query, the Direct ones, or RowQuery.
func (rw *Rewritten) statements() []sql.Statement {
	switch {
	case rw.Query != nil:
		return []sql.Statement{rw.Query}
	case rw.RowQuery != nil:
		return []sql.Statement{rw.RowQuery}
	}
	return rw.Direct
}

// Mapper executes logical statements for tenants through a layout.
// With a Session attached (NewSessionMapper), statements run inside
// that session, so interactive transactions (BEGIN/COMMIT/ROLLBACK/
// SAVEPOINT) span logical statements: every physical statement a
// logical DML rewrites into joins the same transaction, making the
// rewrite itself atomic under rollback.
//
// Every statement resolves through Cache, the rewrite cache the Mappers
// over one layout share: a steady-state SELECT/INSERT/UPDATE/DELETE
// costs one scan of its text (none without literals) and skips parsing
// and the layout rewrite entirely, and its physical statements reach the
// engine with precomputed plan-cache keys.
// Assigning Cache swaps in a private one (NewRewriteCache); it is never
// nil — build Mappers with the constructors.
type Mapper struct {
	DB      *engine.DB
	Layout  Layout
	Session *engine.Session
	Cache   *RewriteCache
}

// NewMapper pairs a database with a layout.
func NewMapper(db *engine.DB, l Layout) *Mapper {
	return &Mapper{DB: db, Layout: l, Cache: SharedRewriteCache(l)}
}

// NewSessionMapper pairs a database with a layout and routes statements
// through one interactive session.
func NewSessionMapper(db *engine.DB, l Layout) *Mapper {
	return &Mapper{DB: db, Layout: l, Session: db.Session(), Cache: SharedRewriteCache(l)}
}

// execStmt runs one physical statement through the session if present.
// key is the engine plan-cache key ("" = derive from the statement).
func (m *Mapper) execStmt(ps sql.Statement, key string, params ...types.Value) (engine.Result, error) {
	if m.Session != nil {
		return m.Session.ExecStmt(ps, key, params...)
	}
	return m.DB.ExecStmt(ps, key, params...)
}

// queryStmt runs one physical SELECT through the session if present.
func (m *Mapper) queryStmt(sel *sql.SelectStmt, key string, params ...types.Value) (*engine.Rows, error) {
	if m.Session != nil {
		return m.Session.QueryStmt(sel, key, params...)
	}
	return m.DB.QueryStmt(sel, key, params...)
}

// gate takes the tenant's statement gate when the layout is gated (a
// LayoutMux with a move in flight blocks for the cutover instant; any
// other layout returns a no-op). Held across the whole call — cache
// lookup through execution — which is what the move protocol's dirty
// tracking relies on.
func (m *Mapper) gate(tenantID int64) func() {
	if g, ok := m.Layout.(gatedLayout); ok {
		return g.acquire(tenantID)
	}
	return func() {}
}

// Query runs a logical SELECT for a tenant.
func (m *Mapper) Query(tenantID int64, query string, params ...types.Value) (*engine.Rows, error) {
	_, rows, err := m.do(tenantID, query, params, wantRows)
	return rows, err
}

// Exec runs a logical INSERT, UPDATE, DELETE, supported DDL, or — on a
// session-backed mapper — transaction control for a tenant and returns
// the count of affected logical rows.
func (m *Mapper) Exec(tenantID int64, query string, params ...types.Value) (engine.Result, error) {
	res, _, err := m.do(tenantID, query, params, wantResult)
	return res, err
}

// Do runs one logical statement of either kind for a tenant: SELECTs
// answer rows, everything else answers a Result. It is the server's
// batch entry point — one cache lookup decides the shape instead of the
// caller pre-parsing to route between Query and Exec.
func (m *Mapper) Do(tenantID int64, query string, params ...types.Value) (engine.Result, *engine.Rows, error) {
	return m.do(tenantID, query, params, wantRows|wantResult)
}

// What a caller of do accepts: a SELECT's rows, another statement's
// Result, or either.
const (
	wantRows = 1 << iota
	wantResult
)

// do is the one statement path: (tenant, text) resolves to a cached
// compiled rewrite plus its bindings, or to the parsed statement for
// what the cache refuses (DDL, transaction control). A statement of a
// kind the caller does not accept is refused unexecuted.
func (m *Mapper) do(tenantID int64, query string, params []types.Value, want int) (engine.Result, *engine.Rows, error) {
	defer m.gate(tenantID)()
	cr, bound, st, err := m.Cache.lookup(tenantID, query)
	if err != nil {
		return engine.Result{}, nil, err
	}
	if cr != nil && cr.rw.Query != nil {
		if want&wantRows == 0 {
			return engine.Result{}, nil, fmt.Errorf("core: use Query for SELECT statements")
		}
		return m.run(cr, 0, bound, params)
	}
	if want&wantResult == 0 {
		return engine.Result{}, nil, fmt.Errorf("core: Query needs a SELECT")
	}
	if cr != nil {
		res, err := m.execRewritten(cr, bound, params)
		return res, nil, err
	}
	res, err := m.execParsed(tenantID, st, params)
	return res, nil, err
}

// execParsed runs a parsed logical statement outside the rewrite cache:
// transaction control goes to the session, anything else through the
// full rewrite path — where the layout refuses DDL, and where a Mover's
// copies, built as statements, run.
func (m *Mapper) execParsed(tenantID int64, st sql.Statement, params []types.Value) (engine.Result, error) {
	// Transaction control is tenant-independent: no rewriting, straight
	// to the session.
	switch st.(type) {
	case *sql.BeginStmt, *sql.CommitStmt, *sql.RollbackStmt, *sql.SavepointStmt:
		if m.Session == nil {
			return engine.Result{}, fmt.Errorf("core: transaction control needs a session-backed mapper")
		}
		return m.Session.ExecStmt(st, "")
	}
	cr, err := compile(m.Layout.Rewrite(tenantID, st))
	if err != nil {
		return engine.Result{}, err
	}
	return m.execRewritten(cr, nil, params)
}

// run executes statement i of cr under its vector in bound or, where
// bound is nil, params bound now; a SELECT answers rows. An empty key
// falls back to the engine deriving it.
func (m *Mapper) run(cr *cachedRewrite, i int, bound [][]types.Value, params []types.Value) (engine.Result, *engine.Rows, error) {
	ps := &cr.stmts[i]
	var args []types.Value
	var err error
	if bound != nil {
		args = bound[i]
	} else if args, err = ps.bind(params); err != nil {
		return engine.Result{}, nil, err
	}
	if sel, ok := ps.st.(*sql.SelectStmt); ok {
		rows, err := m.queryStmt(sel, ps.key, args...)
		return engine.Result{}, rows, err
	}
	res, err := m.execStmt(ps.st, ps.key, args...)
	return res, nil, err
}

// execRewritten executes a rewritten non-query statement's physical
// plan (see run for bound and params): the Direct statements, an
// INSERT's under row ids of its own (bindRows), or the two-phase
// RowQuery/PhaseB shape. A logical statement is atomic: a plan of more
// than one physical statement runs as one transaction (Session.Atomic)
// — on m's session, or, for a sessionless Mapper, on one the database
// recycles (DB.Atomic).
func (m *Mapper) execRewritten(cr *cachedRewrite, bound [][]types.Value, params []types.Value) (engine.Result, error) {
	if len(cr.stmts) <= 1 && cr.rw.RowQuery == nil {
		return m.execPlan(cr, bound, params)
	}
	atomic := m.DB.Atomic
	if m.Session != nil {
		atomic = m.Session.Atomic
	}
	var res engine.Result
	if err := atomic(func(s *engine.Session) (err error) {
		tm := *m
		tm.Session = s
		res, err = tm.execPlan(cr, bound, params)
		return err
	}); err != nil {
		return engine.Result{}, err
	}
	return res, nil
}

// execPlan is execRewritten inside whatever transaction m's statements
// run in.
func (m *Mapper) execPlan(cr *cachedRewrite, bound [][]types.Value, params []types.Value) (engine.Result, error) {
	rw := cr.rw
	if rw.RowQuery != nil {
		_, rows, err := m.run(cr, 0, bound, params)
		if err != nil {
			return engine.Result{}, err
		}
		// Phase (b) statements are built from phase (a)'s result values,
		// literals only: lifted, a repeated shape hits the plan cache.
		for _, st := range rw.PhaseB(rows.Data) {
			ps := lift(st)
			args, _ := ps.bind(nil) // no parameters to miss
			if _, err := m.execStmt(ps.st, ps.key, args...); err != nil {
				return engine.Result{}, err
			}
		}
		return engine.Result{RowsAffected: int64(len(rows.Data))}, nil
	}
	if cr.reserve != nil {
		var err error
		if bound, err = cr.bindRows(bound, params); err != nil {
			return engine.Result{}, err
		}
	}
	var affected int64
	for i := range cr.stmts {
		res, _, err := m.run(cr, i, bound, params)
		if err != nil {
			return engine.Result{}, err
		}
		if rw.DirectIsCount && i == 0 {
			affected = res.RowsAffected
		}
	}
	if rw.Inserted > 0 {
		affected = rw.Inserted
	}
	return engine.Result{RowsAffected: affected}, nil
}

// RewriteSQL returns the physical SQL a logical statement maps to
// (phase (a) for two-phase DML), primarily for inspection and tests.
func (m *Mapper) RewriteSQL(tenantID int64, query string) ([]string, error) {
	st, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	rw, err := m.Layout.Rewrite(tenantID, st)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, ps := range rw.statements() {
		out = append(out, ps.String())
	}
	return out, nil
}

// Explain shows the physical plan of a rewritten logical SELECT.
func (m *Mapper) Explain(tenantID int64, query string) (string, error) {
	stmts, err := m.RewriteSQL(tenantID, query)
	if err != nil {
		return "", err
	}
	return m.DB.Explain(stmts[0])
}

// --- shared layout state -------------------------------------------------------

// state holds the tenant registry, table-ID map, per-(tenant,table)
// logical row sequences, and what every tenant sees of every base table
// and where it lives: views, each carrying its placement. Views and
// placements are computed when a tenant is added or extended and
// published with that change; rewriting a statement only looks them up.
// gens counts those publications per tenant: what a cached rewrite is
// stamped with.
type state struct {
	mu       sync.RWMutex
	schema   *Schema
	tenants  map[int64]*Tenant
	tableIDs map[string]int
	rowSeq   map[placementKey]int64
	gens     map[int64]int64
	cache    cacheSlot // see SharedRewriteCache
	// base is every table as a tenant with no extension on it sees it,
	// placed once by the first tenant registered (AddTenant); views
	// holds the others, one per (tenant, table it extends) — and in
	// Private, whose tables are the tenant's own, one per (tenant, table).
	// So a schema of 1 500 tables costs its 150 Basic tenants 1 500
	// placements, not 225 000.
	base  map[*Table]*view
	views map[placementKey]*view
}

func newState(schema *Schema) *state {
	return &state{
		schema:   schema,
		tenants:  make(map[int64]*Tenant),
		tableIDs: schema.TableIDs(),
		rowSeq:   make(map[placementKey]int64),
		gens:     make(map[int64]int64),
		base:     make(map[*Table]*view, len(schema.Tables)),
		views:    make(map[placementKey]*view),
	}
}

func (st *state) tenant(id int64) (*Tenant, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	t, ok := st.tenants[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown tenant %d", id)
	}
	return t, nil
}

// addTenant registers a tenant together with its views of the tables it
// has to itself (own) and the base views it placed first (base, kept
// only where none is published yet).
func (st *state) addTenant(t *Tenant, own, base map[*Table]*view) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.tenants[t.ID]; dup {
		return fmt.Errorf("core: tenant %d already registered", t.ID)
	}
	st.tenants[t.ID] = t
	for bt, v := range own {
		st.views[placementKey{t.ID, bt}] = v
	}
	for bt, v := range base {
		if st.base[bt] == nil {
			st.base[bt] = v
		}
	}
	return nil
}

// removeTenant unregisters a tenant and drops the views it had to
// itself; its generation moves on, so nothing cached for it outlives it.
func (st *state) removeTenant(id int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.tenants, id)
	for _, bt := range st.schema.Tables {
		delete(st.views, placementKey{id, bt})
	}
	st.gens[id]++
}

// extend publishes an extension a tenant enabled on-line — the
// extension and the tenant's new view of the base table, placed —
// together, and with them the tenant's generation: every rewrite cached
// for it is stale.
func (st *state) extend(tn *Tenant, ext *Extension, v *view) {
	st.mu.Lock()
	defer st.mu.Unlock()
	tn.Extensions = append(tn.Extensions, ext.Name)
	st.views[placementKey{tn.ID, st.schema.Table(ext.Base)}] = v
	st.gens[tn.ID]++
}

// generation counts the extensions published for a tenant.
func (st *state) generation(tenantID int64) int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.gens[tenantID]
}

// Table implements viewSource.
func (st *state) Table(name string) *Table { return st.schema.Table(name) }

// view implements viewSource: a registered tenant's published view, its
// own or else the base.
func (st *state) view(tn *Tenant, table *Table) (*view, error) {
	st.mu.RLock()
	v := st.views[placementKey{tn.ID, table}]
	if v == nil {
		v = st.base[table]
	}
	st.mu.RUnlock()
	if v == nil {
		return nil, fmt.Errorf("core: tenant %d table %s is not placed", tn.ID, table.Name)
	}
	return v, nil
}

// placement returns where a registered tenant's logical table lives.
func (st *state) placement(tenantID int64, table *Table) (*placement, error) {
	tn, err := st.tenant(tenantID)
	if err != nil {
		return nil, err
	}
	v, err := st.view(tn, table)
	if err != nil {
		return nil, err
	}
	return v.place, nil
}

// extensible resolves an on-line ExtendTenant request: the tenant and
// the extension must exist and the tenant must not have it yet.
func (st *state) extensible(tenantID int64, extName string) (*Tenant, *Extension, error) {
	tn, err := st.tenant(tenantID)
	if err != nil {
		return nil, nil, err
	}
	ext := st.schema.Extension(extName)
	if ext == nil {
		return nil, nil, fmt.Errorf("core: no extension %s", extName)
	}
	if tn.HasExtension(extName) {
		return nil, nil, fmt.Errorf("core: tenant %d already has extension %s", tenantID, extName)
	}
	return tn, ext, nil
}

// tableID returns the numeric ID of a logical base table.
func (st *state) tableID(name string) (int, error) {
	id, ok := st.tableIDs[strings.ToLower(name)]
	if !ok {
		return 0, fmt.Errorf("core: no logical table %s", name)
	}
	return id, nil
}

// nextRows reserves n consecutive logical row IDs for (tenant, table).
func (st *state) nextRows(tenantID int64, table *Table, n int64) int64 {
	key := placementKey{tenantID, table}
	st.mu.Lock()
	defer st.mu.Unlock()
	first := st.rowSeq[key]
	st.rowSeq[key] = first + n
	return first
}

// --- logical statement analysis ------------------------------------------------

// tableUsage records which logical columns a statement touches for one
// FROM entry — step 1 of the paper's §6.1 compilation scheme.
type tableUsage struct {
	ref     *sql.NamedTable
	logical *Table // base table in the schema
	alias   string // effective alias in the query
	view    *view  // the tenant's columns of it
	used    []bool // by position in view.cols
	star    bool
}

// use marks a column as referenced; a name the table does not provide
// is someone else's.
func (u *tableUsage) use(col string) {
	if i, ok := u.view.find(col); ok {
		u.used[i] = true
	}
}

// usedAt returns the positions in u.view of the columns the statement
// references, in logical order.
func (u *tableUsage) usedAt() []int {
	var out []int
	for i, used := range u.used {
		if used {
			out = append(out, i)
		}
	}
	return out
}

// analyzeSelect resolves the logical tables a SELECT references and
// which of their (tenant-specific) columns it uses. Derived tables are
// not descended into — the caller rewrites them recursively.
func analyzeSelect(s viewSource, tn *Tenant, sel *sql.SelectStmt) ([]*tableUsage, error) {
	var usages []*tableUsage
	var err error
	sql.WalkStatement(sel, nil, func(tr sql.TableRef) {
		nt, ok := tr.(*sql.NamedTable)
		if !ok || err != nil {
			return // a derived table: rewritten recursively, no usage entry
		}
		lt := s.Table(nt.Name)
		if lt == nil {
			err = fmt.Errorf("core: no logical table %s", nt.Name)
			return
		}
		alias := nt.Alias
		if alias == "" {
			alias = nt.Name
		}
		var v *view
		if v, err = s.view(tn, lt); err == nil {
			usages = append(usages, &tableUsage{
				ref: nt, logical: lt, alias: alias, view: v, used: make([]bool, len(v.cols)),
			})
		}
	})
	if err != nil {
		return nil, err
	}

	provides := func(u *tableUsage, name string) bool {
		_, ok := u.view.find(name)
		return ok
	}

	markRef := func(cr *sql.ColumnRef) error {
		if cr.Table != "" {
			for _, u := range usages {
				if strings.EqualFold(u.alias, cr.Table) {
					if !provides(u, cr.Name) {
						return fmt.Errorf("core: table %s has no column %s for tenant %d", u.logical.Name, cr.Name, tn.ID)
					}
					u.use(cr.Name)
					return nil
				}
			}
			return nil // a derived-table alias; not ours to track
		}
		var owner *tableUsage
		for _, u := range usages {
			if provides(u, cr.Name) {
				if owner != nil {
					return fmt.Errorf("core: ambiguous column %s", cr.Name)
				}
				owner = u
			}
		}
		if owner != nil {
			owner.use(cr.Name)
		}
		return nil
	}

	for _, it := range sel.Items {
		for _, u := range usages {
			if it.Star && (it.StarQualifier == "" || strings.EqualFold(u.alias, it.StarQualifier)) {
				u.star = true
			}
		}
	}
	// IN subqueries are rewritten recursively by the caller.
	sql.WalkStatement(sel, func(e sql.Expr) {
		sql.Walk(e, func(n sql.Expr) bool {
			if cr, ok := n.(*sql.ColumnRef); ok && err == nil {
				err = markRef(cr)
			}
			return err == nil
		})
	}, nil)
	if err != nil {
		return nil, err
	}

	for _, u := range usages {
		if u.star {
			for i := range u.used {
				u.used[i] = true
			}
		}
		// Always include the key column: generic layouts anchor row
		// reconstruction on it.
		u.use(u.logical.Key)
	}
	return usages, nil
}

// --- small AST construction helpers ---------------------------------------------

func lit(v types.Value) sql.Expr { return &sql.Literal{Val: v} }

func intLit(n int64) sql.Expr { return lit(types.NewInt(n)) }

func colRef(qual, name string) *sql.ColumnRef { return &sql.ColumnRef{Table: qual, Name: name} }

func eq(l, r sql.Expr) sql.Expr { return &sql.BinaryExpr{Op: sql.OpEq, L: l, R: r} }

// inList builds `col IN (v1, v2, ...)`; a single value becomes `col = v1`.
func inList(col *sql.ColumnRef, vals []types.Value) sql.Expr {
	if len(vals) == 1 {
		return eq(col, lit(vals[0]))
	}
	in := &sql.InExpr{X: col}
	for _, v := range vals {
		in.List = append(in.List, lit(v))
	}
	return in
}

// buildCreateTable generates CREATE TABLE DDL text.
func buildCreateTable(name string, cols []Column) string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE ")
	sb.WriteString(name)
	sb.WriteString(" (")
	for i, c := range cols {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.Name + " " + c.Type.String())
		if c.NotNull {
			sb.WriteString(" NOT NULL")
		}
	}
	sb.WriteString(")")
	return sb.String()
}

// execAll runs DDL statements in order, stopping at the first error.
func execAll(db *engine.DB, ddl []string) error {
	for _, d := range ddl {
		if _, err := db.Exec(d); err != nil {
			return err
		}
	}
	return nil
}

// tenantSubquery is the sql.Map step that scopes an IN subquery to
// tenant tn: an InExpr's subquery is replaced by its rewrite, and any
// other node comes back as it is.
func tenantSubquery(s *state, tn *Tenant, n sql.Expr) (sql.Expr, error) {
	in, ok := n.(*sql.InExpr)
	if !ok || in.Subquery == nil {
		return n, nil
	}
	sub, err := genericSelect(s, tn, in.Subquery)
	if err != nil {
		return nil, err
	}
	in.Subquery = sub // in is Map's copy
	return in, nil
}

// tenantSubqueries maps an expression through tenantSubquery.
func tenantSubqueries(s *state, tn *Tenant) func(sql.Expr) (sql.Expr, error) {
	return func(e sql.Expr) (sql.Expr, error) {
		return sql.Map(e, func(n sql.Expr) (sql.Expr, error) { return tenantSubquery(s, tn, n) })
	}
}
