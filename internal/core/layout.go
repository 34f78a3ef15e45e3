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
	// AddTenant registers a tenant while the system is on-line. For
	// generic layouts this is pure meta-data bookkeeping (no DDL); the
	// Private layout issues CREATE TABLE statements.
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
// An UPDATE or DELETE is Direct when its layout stores everything the
// statement touches in one place (Basic, Private, and the fragment
// layouts' fusion rule: fragmentRows.direct), two-phase otherwise.
type Rewritten struct {
	Query *sql.SelectStmt

	Direct []sql.Statement
	// DirectIsCount: logical rows affected = first Direct statement's
	// RowsAffected (single-statement layouts).
	DirectIsCount bool
	// Inserted: logical rows inserted (multi-statement inserts).
	Inserted int64

	RowQuery *sql.SelectStmt
	// PhaseB takes RowQuery's result — [row id, SET values...] per
	// affected row — and returns the writes in execution order; for no
	// rows, none.
	PhaseB func(rows [][]types.Value) []sql.Statement
}

// Mapper executes logical statements for tenants through a layout.
// With a Session attached (NewSessionMapper), statements run inside
// that session, so interactive transactions (BEGIN/COMMIT/ROLLBACK/
// SAVEPOINT) span logical statements: every physical statement a
// logical DML rewrites into joins the same transaction, making the
// rewrite itself atomic under rollback.
//
// Every statement resolves through Cache, the rewrite cache the Mappers
// over one layout share: a steady-state SELECT/UPDATE/DELETE skips
// lexing, parsing, and the layout rewrite entirely, and its physical
// statements reach the engine with precomputed plan-cache keys.
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
// what the cache refuses (INSERT, DDL, transaction control). A
// statement of a kind the caller does not accept is refused unexecuted.
func (m *Mapper) do(tenantID int64, query string, params []types.Value, want int) (engine.Result, *engine.Rows, error) {
	defer m.gate(tenantID)()
	cr, bind, st, err := m.Cache.lookup(tenantID, query, params)
	if err != nil {
		return engine.Result{}, nil, err
	}
	if cr != nil && cr.rw.Query != nil {
		if want&wantRows == 0 {
			return engine.Result{}, nil, fmt.Errorf("core: use Query for SELECT statements")
		}
		rows, err := m.queryStmt(cr.rw.Query, cr.queryKey, bind...)
		return engine.Result{}, rows, err
	}
	if want&wantResult == 0 {
		return engine.Result{}, nil, fmt.Errorf("core: Query needs a SELECT")
	}
	if cr != nil {
		res, err := m.execRewritten(cr, bind)
		return res, nil, err
	}
	res, err := m.execParsed(tenantID, st, params)
	return res, nil, err
}

// execParsed runs a parsed logical statement the rewrite cache refuses
// — INSERT, DDL, transaction control — through the full rewrite path.
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
	rw, err := m.Layout.Rewrite(tenantID, st)
	if err != nil {
		return engine.Result{}, err
	}
	return m.execRewritten(&cachedRewrite{rw: rw}, params)
}

// execRewritten executes a rewritten non-query statement's physical
// plan: Direct statements, then the two-phase RowQuery/PhaseB shape.
// Empty key strings fall back to the engine deriving keys itself.
func (m *Mapper) execRewritten(cr *cachedRewrite, params []types.Value) (engine.Result, error) {
	rw := cr.rw
	var affected int64
	for i, ps := range rw.Direct {
		key := ""
		if cr.directKeys != nil {
			key = cr.directKeys[i]
		}
		res, err := m.execStmt(ps, key, params...)
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
	if rw.RowQuery != nil {
		rows, err := m.queryStmt(rw.RowQuery, cr.rowQueryKey, params...)
		if err != nil {
			return engine.Result{}, err
		}
		affected = int64(len(rows.Data))
		// Phase (b) statements are built from phase (a)'s result values —
		// always literal-only, never parameterized.
		for _, ps := range rw.PhaseB(rows.Data) {
			if _, err := m.execStmt(ps, ""); err != nil {
				return engine.Result{}, err
			}
		}
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
	if rw.Query != nil {
		out = append(out, rw.Query.String())
	}
	for _, d := range rw.Direct {
		out = append(out, d.String())
	}
	if rw.RowQuery != nil {
		out = append(out, rw.RowQuery.String())
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
// logical row sequences, every tenant's view of every base table, and —
// for the layouts that store rows as fragments — every tenant-table's
// placement, shared by all layout implementations. Views and placements
// are computed when a tenant is added or extended and published with
// that change; rewriting a statement only looks them up. gens counts
// those publications per tenant: what a cached rewrite is stamped with.
type state struct {
	mu       sync.RWMutex
	schema   *Schema
	tenants  map[int64]*Tenant
	tableIDs map[string]int
	rowSeq   map[placementKey]int64
	gens     map[int64]int64
	cache    cacheSlot // see SharedRewriteCache
	// base is every table as a tenant with no extension on it sees it;
	// views holds the others, one per (tenant, table it extends), so a
	// schema of 1 500 tables costs its 150 tenants nothing.
	base   map[*Table]*view
	views  map[placementKey]*view
	places map[placementKey]*placement
}

func newState(schema *Schema) *state {
	st := &state{
		schema:   schema,
		tenants:  make(map[int64]*Tenant),
		tableIDs: schema.TableIDs(),
		rowSeq:   make(map[placementKey]int64),
		gens:     make(map[int64]int64),
		base:     make(map[*Table]*view, len(schema.Tables)),
		views:    make(map[placementKey]*view),
		places:   make(map[placementKey]*placement),
	}
	for _, bt := range schema.Tables {
		st.base[bt] = newView(bt.Columns)
	}
	return st
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

// addTenant registers a tenant together with its view of every base
// table it extends — which is where its extension list is validated —
// and where its tables live (nil for layouts that do not fragment rows).
func (st *state) addTenant(t *Tenant, places map[placementKey]*placement) error {
	views := map[placementKey]*view{}
	for _, en := range t.Extensions {
		e := st.schema.Extension(en)
		if e == nil {
			return fmt.Errorf("core: tenant %d references unknown extension %s", t.ID, en)
		}
		bt := st.schema.Table(e.Base)
		if views[placementKey{t.ID, bt}] != nil {
			continue
		}
		v, err := st.schema.view(t, bt)
		if err != nil {
			return err
		}
		views[placementKey{t.ID, bt}] = v
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.tenants[t.ID]; dup {
		return fmt.Errorf("core: tenant %d already registered", t.ID)
	}
	st.tenants[t.ID] = t
	for k, v := range views {
		st.views[k] = v
	}
	for k, p := range places {
		st.places[k] = p
	}
	return nil
}

// extend publishes an extension a tenant enabled on-line — the
// extension, the tenant's new view of the base table and, for layouts
// that fragment rows, the table's new placement — together, and with
// them the tenant's generation: every rewrite cached for it is stale.
func (st *state) extend(tn *Tenant, ext *Extension, next *placement) error {
	table := st.schema.Table(ext.Base)
	v, err := st.schema.view(tn.with(ext.Name), table)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	tn.Extensions = append(tn.Extensions, ext.Name)
	st.views[placementKey{tn.ID, table}] = v
	if next != nil {
		st.places[placementKey{tn.ID, table}] = next
	}
	st.gens[tn.ID]++
	return nil
}

// generation counts the extensions published for a tenant.
func (st *state) generation(tenantID int64) int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.gens[tenantID]
}

// Table implements viewSource.
func (st *state) Table(name string) *Table { return st.schema.Table(name) }

// view implements viewSource: a registered tenant's published view.
func (st *state) view(tn *Tenant, table *Table) (*view, error) {
	st.mu.RLock()
	v := st.views[placementKey{tn.ID, table}]
	st.mu.RUnlock()
	if v == nil {
		v = st.base[table]
	}
	if v == nil {
		return nil, fmt.Errorf("core: no logical table %s", table.Name)
	}
	return v, nil
}

// placement returns where a registered tenant's logical table lives.
func (st *state) placement(tenantID int64, table *Table) (*placement, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	p := st.places[placementKey{tenantID, table}]
	if p == nil {
		return nil, fmt.Errorf("core: tenant %d table %s is not placed", tenantID, table.Name)
	}
	return p, nil
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

// usedColumns returns the tenant's logical columns of u's table that
// the statement references, in logical order.
func (u *tableUsage) usedColumns() []Column {
	var out []Column
	for i, c := range u.view.cols {
		if u.used[i] {
			out = append(out, c)
		}
	}
	return out
}

// analyzeSelect resolves the logical tables a SELECT references and
// which of their (tenant-specific) columns it uses. Derived tables are
// not descended into — the caller rewrites them recursively.
func analyzeSelect(s viewSource, tn *Tenant, sel *sql.SelectStmt) ([]*tableUsage, error) {
	var usages []*tableUsage
	var gather func(tr sql.TableRef) error
	gather = func(tr sql.TableRef) error {
		switch tr := tr.(type) {
		case *sql.NamedTable:
			lt := s.Table(tr.Name)
			if lt == nil {
				return fmt.Errorf("core: no logical table %s", tr.Name)
			}
			alias := tr.Alias
			if alias == "" {
				alias = tr.Name
			}
			v, err := s.view(tn, lt)
			if err != nil {
				return err
			}
			usages = append(usages, &tableUsage{
				ref: tr, logical: lt, alias: alias, view: v, used: make([]bool, len(v.cols)),
			})
		case *sql.JoinTable:
			if err := gather(tr.Left); err != nil {
				return err
			}
			return gather(tr.Right)
		case *sql.SubqueryTable:
			// handled by recursive rewrite; no usage entry
		}
		return nil
	}
	for _, tr := range sel.From {
		if err := gather(tr); err != nil {
			return nil, err
		}
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

	var walkExpr func(e sql.Expr) error
	walkExpr = func(e sql.Expr) error {
		switch e := e.(type) {
		case nil:
			return nil
		case *sql.ColumnRef:
			return markRef(e)
		case *sql.BinaryExpr:
			if err := walkExpr(e.L); err != nil {
				return err
			}
			return walkExpr(e.R)
		case *sql.UnaryExpr:
			return walkExpr(e.X)
		case *sql.IsNullExpr:
			return walkExpr(e.X)
		case *sql.LikeExpr:
			if err := walkExpr(e.X); err != nil {
				return err
			}
			return walkExpr(e.Pattern)
		case *sql.CastExpr:
			return walkExpr(e.X)
		case *sql.FuncExpr:
			for _, a := range e.Args {
				if err := walkExpr(a); err != nil {
					return err
				}
			}
		case *sql.InExpr:
			if err := walkExpr(e.X); err != nil {
				return err
			}
			for _, i := range e.List {
				if err := walkExpr(i); err != nil {
					return err
				}
			}
			// IN-subqueries are rewritten recursively by the caller.
		}
		return nil
	}

	for _, it := range sel.Items {
		switch {
		case it.Star && it.StarQualifier == "":
			for _, u := range usages {
				u.star = true
			}
		case it.Star:
			for _, u := range usages {
				if strings.EqualFold(u.alias, it.StarQualifier) {
					u.star = true
				}
			}
		default:
			if err := walkExpr(it.Expr); err != nil {
				return nil, err
			}
		}
	}
	if err := walkExpr(sel.Where); err != nil {
		return nil, err
	}
	for _, g := range sel.GroupBy {
		if err := walkExpr(g); err != nil {
			return nil, err
		}
	}
	if err := walkExpr(sel.Having); err != nil {
		return nil, err
	}
	for _, o := range sel.OrderBy {
		if err := walkExpr(o.Expr); err != nil {
			return nil, err
		}
	}
	var walkJoins func(tr sql.TableRef) error
	walkJoins = func(tr sql.TableRef) error {
		if jt, ok := tr.(*sql.JoinTable); ok {
			if err := walkExpr(jt.On); err != nil {
				return err
			}
			if err := walkJoins(jt.Left); err != nil {
				return err
			}
			return walkJoins(jt.Right)
		}
		return nil
	}
	for _, tr := range sel.From {
		if err := walkJoins(tr); err != nil {
			return nil, err
		}
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

func and(conjs ...sql.Expr) sql.Expr {
	var out sql.Expr
	for _, c := range conjs {
		if c == nil {
			continue
		}
		if out == nil {
			out = c
		} else {
			out = &sql.BinaryExpr{Op: sql.OpAnd, L: out, R: c}
		}
	}
	return out
}

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

// typeSQL renders a column type for generated DDL.
func typeSQL(t types.ColumnType) string { return t.String() }

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
		sb.WriteString(c.Name + " " + typeSQL(c.Type))
		if c.NotNull {
			sb.WriteString(" NOT NULL")
		}
	}
	sb.WriteString(")")
	return sb.String()
}

// rewriteInSubqueries rewrites IN (SELECT ...) subqueries inside an
// expression through the layout's SELECT rewriter.
func rewriteInSubqueries(e sql.Expr, rw func(*sql.SelectStmt) (*sql.SelectStmt, error)) (sql.Expr, error) {
	switch e := e.(type) {
	case nil:
		return nil, nil
	case *sql.InExpr:
		if e.Subquery == nil {
			return e, nil
		}
		sub, err := rw(e.Subquery)
		if err != nil {
			return nil, err
		}
		return &sql.InExpr{X: e.X, Subquery: sub, Not: e.Not}, nil
	case *sql.BinaryExpr:
		l, err := rewriteInSubqueries(e.L, rw)
		if err != nil {
			return nil, err
		}
		r, err := rewriteInSubqueries(e.R, rw)
		if err != nil {
			return nil, err
		}
		return &sql.BinaryExpr{Op: e.Op, L: l, R: r}, nil
	case *sql.UnaryExpr:
		x, err := rewriteInSubqueries(e.X, rw)
		if err != nil {
			return nil, err
		}
		return &sql.UnaryExpr{Op: e.Op, X: x}, nil
	}
	return e, nil
}
