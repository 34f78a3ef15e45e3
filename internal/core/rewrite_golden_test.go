package core

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/sql"
	"repro/internal/types"
)

// This file holds every layout's rewriter to a recording of itself.
// testdata/rewrite_golden.json was first written at c471cf7, the commit
// before Extension, Universal, Chunk, Chunk Folding and Vertical came
// to share one fragment rewriter, and written again when UPDATE and
// DELETE statements within one fragment became direct (every record of
// the first file is in the second byte for byte, or went from RowQuery
// + PhaseB to Direct), and a third time when Pivot became a placement of
// sparse fragments (only Pivot's INSERTs and phase-(b) DELETEs changed,
// to one statement per column writing or removing the same cells), and a
// fourth time to add Basic, as its own rewriter answered, before Basic
// came to the fragment rewriter too (every other record unchanged), and
// a fifth time when Basic and Private became one-fragment placements:
// only their records moved, each in one of four ways — a derived table
// where a table was renamed, a DML alias resolved away, an INSERT's
// column list made explicit (counted by inserted, not direct_is_count),
// or a statement the engine used to reject now failing at rewrite. The
// sixth recording came when the flat layout's SELECT became the generic
// form unnested by sql.Unnest and Universal's writes began casting to
// the logical type: only chunk-flat and universal records moved —
// chunk-flat's 7 kept their FROM lists and select items, and their WHERE
// the same conjuncts with each alias's in the same relative order (one
// reconstruction's after another's, instead of every meta-data conjunct
// before every aligning one); universal's 17 INSERTs and direct UPDATEs
// each gained a CAST to the logical type of every non-VARCHAR column
// they write.
// testdata/rewrite_golden_gen_test.go.txt over
// recordRewrites below writes it;
// everything here is the layouts' public surface. A record is the
// physical statements one logical statement turns into, as text: Query,
// Direct, RowQuery, and PhaseB applied to fixed row sets. Table aliases
// are renamed #0, #1 … in order of appearance, so an alias scheme may
// change; FROM order, conjunct order, select-item order, casts, and the
// number and order of DML statements may not.

const rewriteGoldenPath = "testdata/rewrite_golden.json"

// goldenSchema has what the corpus needs: two tables to join, Date and
// Bool columns in the base and in an extension, and the extension
// names allLayouts' Chunk Folding instance treats as conventional
// (HealthcareAccount) and folds (AutomotiveAccount).
func goldenSchema() *Schema {
	return &Schema{
		Tables: []*Table{
			{Name: "Account", Key: "Aid", Columns: []Column{
				{Name: "Aid", Type: types.IntType, NotNull: true, Indexed: true},
				{Name: "Name", Type: types.VarcharType(50)},
				{Name: "Opened", Type: types.DateType},
				{Name: "Active", Type: types.BoolType},
			}},
			{Name: "Contact", Key: "Cid", Columns: []Column{
				{Name: "Cid", Type: types.IntType, NotNull: true, Indexed: true},
				{Name: "Aid", Type: types.IntType, Indexed: true},
				{Name: "Email", Type: types.VarcharType(80)},
			}},
		},
		Extensions: []*Extension{
			{Name: "HealthcareAccount", Base: "Account", Columns: []Column{
				{Name: "Hospital", Type: types.VarcharType(50)},
				{Name: "Beds", Type: types.IntType},
			}},
			{Name: "AutomotiveAccount", Base: "Account", Columns: []Column{
				{Name: "Dealers", Type: types.IntType},
				{Name: "Certified", Type: types.BoolType},
			}},
		},
	}
}

// goldenTenants: 17 has a conventional and a folded extension, 35 has
// none, 42 only the folded one.
func goldenTenants() []*Tenant {
	return []*Tenant{
		{ID: 17, Extensions: []string{"HealthcareAccount", "AutomotiveAccount"}},
		{ID: 35},
		{ID: 42, Extensions: []string{"AutomotiveAccount"}},
	}
}

// goldenCase is one logical statement; phaseB lists the phase-(a)
// results its PhaseB is applied to ([Row, set values...] per row).
type goldenCase struct {
	tenant int64
	sql    string
	phaseB [][][]types.Value
}

func iv(n int64) types.Value  { return types.NewInt(n) }
func sv(s string) types.Value { return types.NewString(s) }

var (
	twoRows = [][]types.Value{{iv(3)}, {iv(5)}}
	oneRow  = [][]types.Value{{iv(3)}}
)

func goldenCorpus() []goldenCase {
	null := types.Null()
	return []goldenCase{
		// INSERT: multi-row, NULLs, Bool and Date, with and without a column list.
		{17, "INSERT INTO Account (Aid, Name, Opened, Active, Hospital, Beds, Dealers, Certified) VALUES (1, 'Acme', DATE '2008-06-09', TRUE, 'St. Mary', 135, 4, FALSE), (2, NULL, NULL, FALSE, NULL, NULL, NULL, NULL)", nil},
		{17, "INSERT INTO Account VALUES (3, 'Gump', DATE '2008-06-10', FALSE, 'State', 1042, NULL, TRUE)", nil},
		{17, "INSERT INTO Account (Beds, Aid) VALUES (7, 4)", nil},
		{17, "INSERT INTO Contact (Cid, Aid, Email) VALUES (1, 1, 'a@x'), (2, 1, NULL)", nil},
		{35, "INSERT INTO Account (Aid, Name, Opened, Active) VALUES (1, 'Ball', DATE '2008-01-01', TRUE), (2, 'Bell', NULL, NULL)", nil},
		{35, "INSERT INTO Contact VALUES (1, 2, 'b@y')", nil},
		{42, "INSERT INTO Account (Aid, Name, Dealers, Certified) VALUES (1, 'Big', 65, TRUE)", nil},
		{17, "INSERT INTO Account (Aid, NoSuch) VALUES (9, 1)", nil},
		{35, "INSERT INTO Account (Aid, Hospital) VALUES (9, 'x')", nil},

		// SELECT.
		{17, "SELECT Beds FROM Account WHERE Hospital = 'State'", nil},
		{17, "SELECT * FROM Account WHERE Aid = 1", nil},
		{17, "SELECT Aid FROM Account", nil},
		{17, "SELECT Dealers, Certified, Opened, Hospital FROM Account WHERE Certified = TRUE AND Active = FALSE", nil},
		{17, "SELECT a.Name, c.Email FROM Account a, Contact c WHERE a.Aid = c.Aid AND a.Beds > 100", nil},
		{17, "SELECT a.Name, c.Email FROM Account a JOIN Contact c ON a.Aid = c.Aid WHERE a.Dealers IS NULL", nil},
		{17, "SELECT a.Name, c.* FROM Account a LEFT JOIN Contact c ON a.Aid = c.Aid", nil},
		{17, "SELECT a.Name, b.Name FROM Account a, Account b WHERE a.Aid = b.Aid AND a.Beds > 500", nil},
		{17, "SELECT Name FROM Account WHERE Aid IN (SELECT Aid FROM Contact WHERE Email LIKE '%x')", nil},
		{17, "SELECT Hospital, COUNT(*), SUM(Beds) FROM Account GROUP BY Hospital ORDER BY Hospital", nil},
		{17, "SELECT d.Name FROM (SELECT Name, Beds FROM Account WHERE Beds > 10) d WHERE d.Beds < 500", nil},
		{17, "SELECT Name FROM Account WHERE Aid = ? AND Opened > DATE '2008-01-01' ORDER BY Name DESC LIMIT 3", nil},
		{35, "SELECT * FROM Account", nil},
		{35, "SELECT a.Name, c.Email FROM Account a, Contact c WHERE a.Aid = c.Aid", nil},
		{35, "SELECT Name FROM Account WHERE Aid NOT IN (SELECT Aid FROM Contact)", nil},
		{35, "SELECT Hospital FROM Account", nil},
		{42, "SELECT Name, Dealers FROM Account WHERE Certified = TRUE", nil},
		{42, "SELECT * FROM Contact", nil},
		{99, "SELECT Name FROM Account", nil},
		{17, "SELECT x FROM NoSuchTable", nil},

		// UPDATE: constant sets, per-row sets, NULL and Bool values.
		{17, "UPDATE Account SET Name = 'x', Beds = 7 WHERE Aid = 1", [][][]types.Value{
			{{iv(3), sv("x"), iv(7)}, {iv(5), sv("x"), iv(7)}},
			{{iv(3), sv("x"), iv(7)}},
		}},
		{17, "UPDATE Account SET Beds = Beds + 1, Active = FALSE WHERE Beds IS NOT NULL", [][][]types.Value{
			{{iv(3), iv(136), types.NewBool(false)}, {iv(5), iv(1043), types.NewBool(false)}},
			{{iv(3), null, types.NewBool(false)}, {iv(5), iv(8), types.NewBool(false)}},
		}},
		{17, "UPDATE Account SET Dealers = NULL, Certified = TRUE, Opened = DATE '2009-01-01' WHERE Aid IN (SELECT Aid FROM Contact)", [][][]types.Value{
			{{iv(0), null, types.NewBool(true), types.NewDate(14245)}, {iv(1), null, types.NewBool(true), types.NewDate(14245)}},
		}},
		{17, "UPDATE Account SET Certified = Active, Dealers = Beds WHERE Aid > 0", [][][]types.Value{
			{{iv(0), types.NewBool(true), iv(135)}, {iv(2), types.NewBool(false), iv(1042)}, {iv(3), null, null}},
		}},
		{17, "UPDATE Account a SET Name = a.Hospital WHERE a.Aid = 1", [][][]types.Value{
			{{iv(0), sv("St. Mary")}},
		}},
		{17, "UPDATE Contact SET Email = 'z' WHERE Cid = ?", [][][]types.Value{rowsWith(sv("z"))}},
		{35, "UPDATE Account SET Name = Name, Active = TRUE WHERE Aid > 0", [][][]types.Value{
			{{iv(0), sv("Ball"), types.NewBool(true)}, {iv(1), sv("Bell"), types.NewBool(true)}},
		}},
		{42, "UPDATE Account SET Dealers = Dealers + 1 WHERE Aid = 1", [][][]types.Value{
			{{iv(0), iv(66)}},
		}},
		{35, "UPDATE Account SET Beds = 1", nil},
		{17, "UPDATE Account SET NoSuch = 1", nil},

		// DELETE.
		{17, "DELETE FROM Account WHERE Aid = 2", [][][]types.Value{twoRows, oneRow}},
		{17, "DELETE FROM Contact WHERE Aid IN (SELECT Aid FROM Account WHERE Beds > 100)", [][][]types.Value{twoRows}},
		{17, "DELETE FROM Account a WHERE a.Certified = TRUE", [][][]types.Value{oneRow}},
		{35, "DELETE FROM Account", [][][]types.Value{twoRows, oneRow}},
		{42, "DELETE FROM Account WHERE Dealers > 10", [][][]types.Value{oneRow}},

		// Statements within one fragment in one layout or another: direct
		// there, two-phase elsewhere (TestDirectClassification has the rule).
		{17, "UPDATE Account SET Name = 'x' WHERE Aid = 1", [][][]types.Value{rowsWith(sv("x"))}},
		{17, "UPDATE Account a SET Name = a.Name, Active = TRUE WHERE a.Opened > DATE '2008-01-01' OR a.Active IS NULL", [][][]types.Value{
			{{iv(0), sv("Acme"), types.NewBool(true)}, {iv(2), sv("Gump"), types.NewBool(true)}},
		}},
		{17, "UPDATE Account SET Beds = Beds + 1 WHERE Hospital = 'State'", [][][]types.Value{
			{{iv(2), iv(1043)}},
		}},
		{42, "UPDATE Account SET Certified = TRUE WHERE Dealers > 3 OR Certified = FALSE", [][][]types.Value{rowsWith(types.NewBool(true))}},
		{17, "UPDATE Account SET Name = ? WHERE Aid IN (SELECT Aid FROM Contact WHERE Email LIKE '%x')", [][][]types.Value{rowsWith(sv("y"))}},
		{17, "UPDATE Account SET Dealers = ?, Certified = NULL", [][][]types.Value{rowsWith(iv(4), null)}},
		{35, "DELETE FROM Account WHERE Aid = ?", [][][]types.Value{oneRow}},
		{17, "DELETE FROM Contact c WHERE c.Email IS NULL AND c.Aid IN (SELECT Aid FROM Account WHERE Beds > 100)", [][][]types.Value{twoRows}},
	}
}

// rowsWith is rows 3 and 5 each followed by the same set values.
func rowsWith(set ...types.Value) [][]types.Value {
	return [][]types.Value{
		append([]types.Value{iv(3)}, set...),
		append([]types.Value{iv(5)}, set...),
	}
}

// goldenRecord is what one logical statement rewrote to.
type goldenRecord struct {
	Tenant   int64      `json:"tenant"`
	SQL      string     `json:"sql"`
	Error    string     `json:"error,omitempty"`
	Query    string     `json:"query,omitempty"`
	Direct   []string   `json:"direct,omitempty"`
	Inserted int64      `json:"inserted,omitempty"`
	IsCount  bool       `json:"direct_is_count,omitempty"`
	RowQuery string     `json:"row_query,omitempty"`
	PhaseB   [][]string `json:"phase_b,omitempty"`
}

type goldenFile struct {
	Source  string                    `json:"source"`
	Layouts map[string][]goldenRecord `json:"layouts"`
}

// goldenLayouts is every layout instance the corpus runs through: those
// of layoutsFor, and Basic, whose tenants are goldenTenants without their
// extensions (it cannot represent any).
func goldenLayouts(t *testing.T) map[string]*Mapper {
	t.Helper()
	out := layoutsFor(t, goldenSchema(), goldenTenants())
	out["basic"] = basicFor(t, goldenSchema(), goldenTenants())
	return out
}

// recordRewrites runs the corpus, in order, through a fresh instance of
// every layout (INSERTs draw logical row ids, so order is part of the
// record).
func recordRewrites(t *testing.T) map[string][]goldenRecord {
	t.Helper()
	out := map[string][]goldenRecord{}
	for name, m := range goldenLayouts(t) {
		for _, c := range goldenCorpus() {
			out[name] = append(out[name], recordCase(t, m.Layout, c))
		}
	}
	return out
}

func recordCase(t *testing.T, l Layout, c goldenCase) goldenRecord {
	t.Helper()
	rec := goldenRecord{Tenant: c.tenant, SQL: c.sql}
	st, err := sql.Parse(c.sql)
	if err != nil {
		t.Fatalf("corpus statement %q: %v", c.sql, err)
	}
	rw, err := l.Rewrite(c.tenant, st)
	return recordRewritten(t, rec, c, rw, err)
}

// recordRewritten fills rec with what a rewrite answered.
func recordRewritten(t *testing.T, rec goldenRecord, c goldenCase, rw *Rewritten, err error) goldenRecord {
	t.Helper()
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	if rw.Query != nil {
		rec.Query = canonText(t, rw.Query)
	}
	for _, d := range rw.Direct {
		rec.Direct = append(rec.Direct, canonText(t, d))
	}
	rec.Inserted, rec.IsCount = rw.Inserted, rw.DirectIsCount
	if rw.RowQuery != nil {
		rec.RowQuery = canonText(t, rw.RowQuery)
		for _, rows := range c.phaseB {
			set := []string{}
			for _, ps := range rw.PhaseB(rows) {
				set = append(set, canonText(t, ps))
			}
			rec.PhaseB = append(rec.PhaseB, set)
		}
	}
	return rec
}

// canonText renders a physical statement with its table aliases
// renamed in order of appearance. The statement is re-parsed first —
// physical SQL must re-parse anyway (TestRewriteRoundTripProperty) —
// so the renaming works on a private tree.
func canonText(t *testing.T, st sql.Statement) string {
	t.Helper()
	text := st.String()
	fresh, err := sql.Parse(text)
	if err != nil {
		t.Fatalf("physical SQL does not re-parse: %q: %v", text, err)
	}
	n := 0
	switch fresh := fresh.(type) {
	case *sql.SelectStmt:
		canonAliases(fresh, &n)
	case *sql.UpdateStmt:
		canonExpr(fresh.Where, nil, &n)
	case *sql.DeleteStmt:
		canonExpr(fresh.Where, nil, &n)
	}
	return fresh.String()
}

// canonAliases renames the aliases of the physical tables in sel's
// FROM clause, and the column references through them, then descends
// into derived tables and IN-subqueries, each a scope of its own.
func canonAliases(sel *sql.SelectStmt, n *int) {
	names := map[string]string{}
	var bind func(tr sql.TableRef)
	bind = func(tr sql.TableRef) {
		switch tr := tr.(type) {
		case *sql.NamedTable:
			if tr.Alias != "" {
				names[strings.ToLower(tr.Alias)] = fmt.Sprintf("#%d", *n)
				tr.Alias = names[strings.ToLower(tr.Alias)]
				*n++
			}
		case *sql.SubqueryTable:
			canonAliases(tr.Select, n)
		case *sql.JoinTable:
			bind(tr.Left)
			bind(tr.Right)
		}
	}
	var joins func(tr sql.TableRef)
	joins = func(tr sql.TableRef) {
		if jt, ok := tr.(*sql.JoinTable); ok {
			joins(jt.Left)
			joins(jt.Right)
			canonExpr(jt.On, names, n)
		}
	}
	for _, tr := range sel.From {
		bind(tr)
	}
	for _, tr := range sel.From {
		joins(tr)
	}
	for i := range sel.Items {
		if q, ok := names[strings.ToLower(sel.Items[i].StarQualifier)]; ok && sel.Items[i].Star {
			sel.Items[i].StarQualifier = q
		}
		canonExpr(sel.Items[i].Expr, names, n)
	}
	canonExpr(sel.Where, names, n)
	for _, g := range sel.GroupBy {
		canonExpr(g, names, n)
	}
	canonExpr(sel.Having, names, n)
	for _, o := range sel.OrderBy {
		canonExpr(o.Expr, names, n)
	}
}

func canonExpr(e sql.Expr, names map[string]string, n *int) {
	switch e := e.(type) {
	case *sql.ColumnRef:
		if q, ok := names[strings.ToLower(e.Table)]; ok {
			e.Table = q
		}
	case *sql.BinaryExpr:
		canonExpr(e.L, names, n)
		canonExpr(e.R, names, n)
	case *sql.UnaryExpr:
		canonExpr(e.X, names, n)
	case *sql.IsNullExpr:
		canonExpr(e.X, names, n)
	case *sql.LikeExpr:
		canonExpr(e.X, names, n)
		canonExpr(e.Pattern, names, n)
	case *sql.CastExpr:
		canonExpr(e.X, names, n)
	case *sql.FuncExpr:
		for _, a := range e.Args {
			canonExpr(a, names, n)
		}
	case *sql.InExpr:
		canonExpr(e.X, names, n)
		for _, i := range e.List {
			canonExpr(i, names, n)
		}
		if e.Subquery != nil {
			canonAliases(e.Subquery, n)
		}
	}
}

// TestRewriteGolden holds every layout's rewriter to the recording.
func TestRewriteGolden(t *testing.T) {
	data, err := os.ReadFile(rewriteGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := recordRewrites(t)
	var names []string
	for name := range want.Layouts {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(got) != len(names) {
		t.Errorf("recorded %d layouts, golden file has %d", len(got), len(names))
	}
	for _, name := range names {
		w, g := want.Layouts[name], got[name]
		if len(w) != len(g) {
			t.Errorf("%s: %d records, golden file has %d", name, len(g), len(w))
			continue
		}
		for i := range w {
			wj, _ := json.MarshalIndent(w[i], "", "  ")
			gj, _ := json.MarshalIndent(g[i], "", "  ")
			if string(wj) != string(gj) {
				t.Errorf("%s, tenant %d, %q:\ngolden %s\ngot    %s", name, w[i].Tenant, w[i].SQL, wj, gj)
			}
		}
	}
}

// TestCachedRewriteIsFreshRewrite: what the Mapper executes for a
// corpus statement — the rewrite cache's entry, on the fill and again on
// the raw-text hit — is, with its bindings put back in place of its
// parameters, byte for byte what a fresh Layout.Rewrite of the statement
// answers. Each statement's plan-cache key is its text, and sql.Parse of
// the key numbers the parameters exactly as the cached statement does.
// An INSERT's bindings are those of an execution, row ids included — the
// fill's own, then ids the hit reserved — and the fresh rewrite draws the
// same ids: the row sequences are put back before it. The corpus's own
// `?`s take the values 100, 101, …
func TestCachedRewriteIsFreshRewrite(t *testing.T) {
	for name, m := range goldenLayouts(t) {
		for _, c := range goldenCorpus() {
			params := corpusParams(c.sql)
			rec := goldenRecord{Tenant: c.tenant, SQL: c.sql}
			for _, pass := range []string{"fill", "hit"} {
				rewind := markRows(m.Layout)
				cr, bind, err := lookupBound(m.Cache, c.tenant, c.sql, params)
				var bound *Rewritten
				if err == nil {
					checkTemplates(t, cr)
					bound = boundRewrite(t, cr, bind)
				}
				got, _ := json.Marshal(recordRewritten(t, rec, c, bound, err))
				rewind()
				st, err := sql.Parse(bindText(c.sql, params))
				if err != nil {
					t.Fatal(err)
				}
				rw, err := m.Layout.Rewrite(c.tenant, st)
				want, _ := json.Marshal(recordRewritten(t, rec, c, rw, err))
				if string(got) != string(want) {
					t.Errorf("%s, tenant %d, %q, %s:\nfresh  %s\ncached %s", name, c.tenant, c.sql, pass, want, got)
				}
			}
		}
	}
}

// markRows notes where l's logical row sequences stand; rewind puts them
// back there, so that a fresh rewrite draws the ids an execution since
// the mark drew.
func markRows(l Layout) (rewind func()) {
	st := l.(*FragmentLayout).st
	st.mu.Lock()
	saved := maps.Clone(st.rowSeq)
	st.mu.Unlock()
	return func() {
		st.mu.Lock()
		st.rowSeq = saved
		st.mu.Unlock()
	}
}

// lookupBound is a cache lookup with each statement's parameter vector
// for one execution, as Mapper.run binds them: params bound where the
// entry has none, and an INSERT's row ids (bindRows).
func lookupBound(c *RewriteCache, tenant int64, text string, params []types.Value) (*cachedRewrite, [][]types.Value, error) {
	cr, bound, _, err := c.lookup(tenant, text)
	if err != nil {
		return cr, bound, err
	}
	if cr.reserve != nil {
		bound, err = cr.bindRows(bound, params)
		return cr, bound, err
	}
	if bound != nil {
		return cr, bound, nil
	}
	for i := range cr.stmts {
		args, err := cr.stmts[i].bind(params)
		if err != nil {
			return nil, nil, err
		}
		bound = append(bound, args)
	}
	return cr, bound, nil
}

// corpusParams is one value per `?` of q: 100, 101, …
func corpusParams(q string) []types.Value {
	var out []types.Value
	for i := 0; i < strings.Count(q, "?"); i++ {
		out = append(out, iv(int64(100+i)))
	}
	return out
}

// bindText puts vals, as literals, in place of text's `?`s in order.
func bindText(text string, vals []types.Value) string {
	var sb strings.Builder
	for _, part := range strings.SplitAfter(text, "?") {
		if strings.HasSuffix(part, "?") && len(vals) > 0 {
			part = strings.TrimSuffix(part, "?") + vals[0].SQLLiteral()
			vals = vals[1:]
		}
		sb.WriteString(part)
	}
	return sb.String()
}

// boundRewrite is cr with bind put back into its statements' texts,
// re-parsed: the rewrite a fresh Layout.Rewrite of the literal statement
// gives.
func boundRewrite(t *testing.T, cr *cachedRewrite, bind [][]types.Value) *Rewritten {
	t.Helper()
	out := *cr.rw
	var stmts []sql.Statement
	for i, ps := range cr.stmts {
		st, err := sql.Parse(bindText(ps.key, bind[i]))
		if err != nil {
			t.Fatalf("bound template %q: %v", ps.key, err)
		}
		stmts = append(stmts, st)
	}
	switch {
	case out.Query != nil:
		out.Query = stmts[0].(*sql.SelectStmt)
	case out.RowQuery != nil:
		out.RowQuery = stmts[0].(*sql.SelectStmt)
	default:
		out.Direct = stmts
	}
	return &out
}

// checkTemplates holds every statement of cr to its key: the key is the
// statement's text, and parsing it yields the statement itself, Param
// indexes included — what the engine plans for the key binds as cr does.
func checkTemplates(t *testing.T, cr *cachedRewrite) {
	t.Helper()
	for _, ps := range cr.stmts {
		if ps.key != ps.st.String() {
			t.Errorf("plan-cache key %q for statement %q", ps.key, ps.st)
		}
		parsed, err := sql.Parse(ps.key)
		if err != nil {
			t.Fatalf("template %q does not parse: %v", ps.key, err)
		}
		if !reflect.DeepEqual(parsed, ps.st) {
			t.Errorf("sql.Parse(%q) numbers its parameters differently", ps.key)
		}
		if n := strings.Count(ps.key, "?"); n != len(ps.slots) {
			t.Errorf("template %q: %d parameters, %d slots", ps.key, n, len(ps.slots))
		}
	}
}

// constants matches what EXPLAIN prints for a constant or a parameter.
var constants = regexp.MustCompile(`DATE '[^']*'|'(?:[^']|'')*'|\b\d+(?:\.\d+)?\b|\b(?:TRUE|FALSE|NULL)\b|\?`)

// TestTemplatesPlanAndAnswerAsLiterals runs checkAgainstLiterals on
// every cacheable corpus statement, the corpus's INSERTs loading the data
// first.
func TestTemplatesPlanAndAnswerAsLiterals(t *testing.T) {
	for _, m := range goldenLayouts(t) {
		corpus := goldenCorpus()
		for _, c := range corpus {
			if strings.HasPrefix(c.sql, "INSERT") {
				m.Exec(c.tenant, c.sql) // two are meant to fail (in Basic, more)
			}
		}
		for _, c := range corpus {
			if !strings.HasPrefix(c.sql, "INSERT") {
				checkAgainstLiterals(t, m, c.tenant, c.sql, corpusParams(c.sql)...)
			}
		}
	}
}

// checkAgainstLiterals holds the physical statements the rewrite cache
// answers one logical SELECT, UPDATE or DELETE with (params bind its
// `?`s) to the literal statements a fresh Layout.Rewrite of it, params
// in place, gives: checkTemplates holds; with its bindings put back each
// cached statement is the literal one; each plans like it — the same
// access paths and join order, EXPLAIN equal once constants are masked —
// and a plain DB.Query of a SELECT's text with its bound values answers
// what the literal statement does, and for a logical SELECT what the
// Mapper does.
func checkAgainstLiterals(t *testing.T, m *Mapper, tenant int64, text string, params ...types.Value) {
	t.Helper()
	explain := func(q string, params ...types.Value) string {
		p, err := m.DB.Explain(q, params...)
		if err != nil {
			return "error: " + err.Error()
		}
		return constants.ReplaceAllString(p, "$$")
	}
	st, err := sql.Parse(bindText(text, params))
	if err != nil {
		t.Fatal(err)
	}
	rw, err := m.Layout.Rewrite(tenant, st)
	if err != nil {
		return // TestCachedRewriteIsFreshRewrite compares the errors
	}
	cr, bind, err := lookupBound(m.Cache, tenant, text, params)
	if err != nil {
		t.Fatalf("%s: %q: %v", m.Layout.Name(), text, err)
	}
	checkTemplates(t, cr)
	for i, lit := range rw.statements() {
		ps, where := cr.stmts[i], fmt.Sprintf("%s, tenant %d, %q", m.Layout.Name(), tenant, text)
		if got, want := bindText(ps.key, bind[i]), lit.String(); got != want {
			t.Errorf("%s: bound template\n%s\nliteral statement\n%s", where, got, want)
		}
		if got, want := explain(ps.key, bind[i]...), explain(lit.String()); got != want {
			t.Errorf("%s: template plans\n%s\nliteral statement plans\n%s", where, got, want)
		}
		if _, ok := lit.(*sql.SelectStmt); !ok {
			continue
		}
		got, err := m.DB.Query(ps.key, bind[i]...)
		want, werr := m.DB.Query(lit.String())
		if err != nil || werr != nil {
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Errorf("%s: template fails with %v, literal statement with %v", where, err, werr)
			}
			continue
		}
		if fmt.Sprint(sortedRows(got)) != fmt.Sprint(sortedRows(want)) {
			t.Errorf("%s: template answers %v, literal statement %v", where, sortedRows(got), sortedRows(want))
		}
		if rw.Query != nil {
			if mapped := queryAll(t, m, tenant, text, params...); fmt.Sprint(mapped) != fmt.Sprint(sortedRows(got)) {
				t.Errorf("%s: template answers %v, the Mapper %v", where, sortedRows(got), mapped)
			}
		}
	}
}
