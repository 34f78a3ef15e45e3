package core

import (
	"encoding/json"
	"fmt"
	"os"
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
// + PhaseB to Direct). testdata/rewrite_golden_gen_test.go.txt over
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

// recordRewrites runs the corpus, in order, through a fresh instance of
// every layout (INSERTs draw logical row ids, so order is part of the
// record).
func recordRewrites(t *testing.T) map[string][]goldenRecord {
	t.Helper()
	out := map[string][]goldenRecord{}
	for name, m := range layoutsFor(t, goldenSchema(), goldenTenants()) {
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
// the raw-text hit — records exactly as a fresh Layout.Rewrite of the
// statement's template does, its plan-cache keys are the physical
// statements' texts, and it binds the literals the template lifted out.
func TestCachedRewriteIsFreshRewrite(t *testing.T) {
	for name, m := range layoutsFor(t, goldenSchema(), goldenTenants()) {
		for _, c := range goldenCorpus() {
			st, err := sql.Parse(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			if _, insert := st.(*sql.InsertStmt); insert {
				continue // never cached
			}
			lifted, _ := sql.ExtractParams(st)
			rw, err := m.Layout.Rewrite(c.tenant, st)
			rec := goldenRecord{Tenant: c.tenant, SQL: c.sql}
			want, _ := json.Marshal(recordRewritten(t, rec, c, rw, err))
			for _, pass := range []string{"fill", "hit"} {
				cr, bind, _, err := m.Cache.lookup(c.tenant, c.sql, nil)
				var crw *Rewritten
				if err == nil {
					crw = cr.rw
				}
				got, _ := json.Marshal(recordRewritten(t, rec, c, crw, err))
				if string(got) != string(want) {
					t.Errorf("%s, tenant %d, %q, %s:\nfresh  %s\ncached %s", name, c.tenant, c.sql, pass, want, got)
				}
				if err != nil {
					continue
				}
				if fmt.Sprint(bind) != fmt.Sprint(lifted) {
					t.Errorf("%s, %q, %s: binds %v, the template lifted %v", name, c.sql, pass, bind, lifted)
				}
				keys := append([]string{cr.queryKey, cr.rowQueryKey}, cr.directKeys...)
				texts := []string{"", ""}
				if crw.Query != nil {
					texts[0] = crw.Query.String()
				}
				if crw.RowQuery != nil {
					texts[1] = crw.RowQuery.String()
				}
				for _, d := range crw.Direct {
					texts = append(texts, d.String())
				}
				if fmt.Sprint(keys) != fmt.Sprint(texts) {
					t.Errorf("%s, %q, %s: plan-cache keys %q for statements %q", name, c.sql, pass, keys, texts)
				}
			}
		}
	}
}
