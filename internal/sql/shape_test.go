package sql

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/types"
)

// deckTexts are the CRM deck's SELECT, UPDATE and INSERT statements (§4,
// Figure 6) with their values inlined, as the benchmark sends them.
var deckTexts = []string{
	"INSERT INTO Case (Id, Attr00, Attr01, Attr02, Attr03) VALUES (65, 'v7', 712, DATE '2008-03-09', 101.25)",
	"INSERT INTO Account (Id, Name, Industry) VALUES (1, 'acct-1', 'retail'), (2, 'acct-2', 'energy')",
	"SELECT * FROM Account WHERE Id = 17",
	"SELECT * FROM Opportunity_i3 WHERE Id = 5",
	"SELECT COUNT(*), SUM(Quantity) FROM LineItem WHERE Quantity > 250",
	"SELECT Industry, COUNT(*) FROM Account GROUP BY Industry",
	"SELECT a.Industry, COUNT(*) FROM Account a, Opportunity o WHERE o.AccountId = a.Id GROUP BY a.Industry",
	"UPDATE Account SET Name = 'upd-421337' WHERE Industry = 'retail'",
	"UPDATE Case SET Attr01 = 712 WHERE Status = 'open'",
	"UPDATE Contact SET Attr00 = 'w90210' WHERE Id = 4",
	"UPDATE Asset SET Attr01 = Attr01 + 1 WHERE Id = 12",
}

// guardEdges are texts whose shape ParseTemplate refuses (from nil), and
// why.
var guardEdges = map[string]string{
	"SELECT Name FROM Account WHERE Aid = -5":                               "the parser folds -5",
	"SELECT 5, Name FROM Account WHERE Aid = 5":                             "a projection literal stays inline",
	"SELECT Name FROM Account WHERE Aid > 1 LIMIT 10":                       "a LIMIT is not a literal",
	"SELECT Name FROM Account WHERE Aid IN (SELECT Aid FROM T WHERE x = 1)": "an IN subquery's literal stays inline",
	"SELECT Name FROM Account WHERE Aid = ? AND Beds = 3":                   "a literal beside a ? stays inline",
	"SELECT Name FROM Account WHERE Aid = 1 AND Flag = TRUE":                "TRUE is lifted but is no literal token",
	"SELECT Name FROM Account WHERE Name = CAST(Aid AS VARCHAR(9))":         "a type width is no value",
	"SELECT 1":                                  "nothing to lift",
	"INSERT INTO Account VALUES (1, TRUE)":      "TRUE is lifted but is no literal token",
	"INSERT INTO Account VALUES (-1, 'a')":      "the parser folds -1",
	"INSERT INTO Account VALUES (?, 'a')":       "a literal beside a ? stays inline",
	"INSERT INTO Account (Aid) VALUES (NULL)":   "nothing to lift: a NULL stays",
	"SELECT Name FROM Account WHERE Aid = NULL": "NULL is lifted in WHERE but is no literal token",
}

func TestShapeScan(t *testing.T) {
	var s Shape
	if !s.Scan("UPDATE T SET a = 'it''s', b = 2.50 WHERE c = 7 -- 9\n") {
		t.Fatal("scan refused a statement")
	}
	want := "UPDATE T SET a = \x00\x04, b = \x00\x03 WHERE c = \x00\x02 -- 9\n"
	if string(s.Key) != want {
		t.Errorf("key %q, want %q", s.Key, want)
	}
	lits := []types.Value{types.NewString("it's"), types.NewFloat(2.5), types.NewInt(7)}
	if !reflect.DeepEqual(s.Lits, lits) {
		t.Errorf("literals %v, want %v", s.Lits, lits)
	}
	// DATE '…' is one literal of its own kind; a DATE not before a string
	// is a word, and NULL stays in the key.
	if !s.Scan("INSERT INTO T (Date) VALUES (date '2008-01-02', NULL, 'x'), (DATE 3, Date)") {
		t.Fatal("scan refused an INSERT")
	}
	want = "INSERT INTO T (Date) VALUES (\x00\x05, NULL, \x00\x04), (DATE \x00\x02, Date)"
	if string(s.Key) != want {
		t.Errorf("key %q, want %q", s.Key, want)
	}
	lits = []types.Value{types.NewDate(13880), types.NewString("x"), types.NewInt(3)}
	if !reflect.DeepEqual(s.Lits, lits) {
		t.Errorf("literals %v, want %v", s.Lits, lits)
	}
	for _, bad := range []string{"SELECT 'open", "SELECT 99999999999999999999", "SELECT 1 -- \x00", "SELECT #",
		"INSERT INTO T VALUES (DATE '2008-02-30')", "SELECT DATE 'x"} {
		if s.Scan(bad) {
			t.Errorf("scan of %q accepted", bad)
		}
	}
}

// TestParseTemplateGuard: the deck's statements are templates of their
// shape, and any text of the same shape binds its own literals into the
// same template; the guard's edge cases are refused.
func TestParseTemplateGuard(t *testing.T) {
	for _, text := range deckTexts {
		var s Shape
		if !s.Scan(text) {
			t.Fatalf("scan refused %q", text)
		}
		st, vals, from, err := ParseTemplate(text, s.Lits)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Lits) > 0 && from == nil {
			t.Errorf("%q: shape refused", text)
		}
		checkSibling(t, text, &s, st, vals, from)
	}
	for text, why := range guardEdges {
		var s Shape
		s.Scan(text)
		if _, _, from, _ := ParseTemplate(text, s.Lits); from != nil {
			t.Errorf("%q: shape accepted, but %s", text, why)
		}
	}
}

// TestLexAllocatesNothing: a token is a substring of the source, string
// literals without a doubled quote included; so is a scan once its
// buffers have grown.
func TestLexAllocatesNothing(t *testing.T) {
	var s Shape
	for _, text := range deckTexts {
		lex := func() {
			l := lexer{src: text}
			for {
				if tok, err := l.next(); err != nil || tok.kind == tokEOF {
					return
				}
			}
		}
		if n := testing.AllocsPerRun(100, lex); n != 0 {
			t.Errorf("lexing %q: %v allocs", text, n)
		}
		if n := testing.AllocsPerRun(100, func() { s.Scan(text) }); n != 0 {
			t.Errorf("scanning %q: %v allocs", text, n)
		}
	}
}

// TestUpperASCII: only ASCII letters change, bytes that are not UTF-8
// survive, and a name already upper-case comes back without a copy.
func TestUpperASCII(t *testing.T) {
	for in, want := range map[string]string{"count": "COUNT", "Sum_2": "SUM_2", "SUM": "SUM", "éÿx": "éÿX", "": ""} {
		if got := upperASCII(in); got != want {
			t.Errorf("upperASCII(%q) = %q, want %q", in, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { upperASCII("COUNT") }); n != 0 {
		t.Errorf("upperASCII of an upper-case name: %v allocs", n)
	}
}

// sibling is the text of s.Key with a different literal of the same kind
// in place of each: the k-th int is 7+k, the k-th float k.5, the k-th
// date in year 2000+k, the k-th string 'sk'.
func sibling(key []byte) string {
	var sb strings.Builder
	k := 0
	for i := 0; i < len(key); i++ {
		if key[i] != Marker {
			sb.WriteByte(key[i])
			continue
		}
		i++
		switch types.Kind(key[i]) {
		case types.KindInt:
			fmt.Fprintf(&sb, "%d", 7+k)
		case types.KindFloat:
			fmt.Fprintf(&sb, "%d.5", k)
		case types.KindDate:
			fmt.Fprintf(&sb, "DATE '%04d-01-01'", 2000+k%8000)
		default:
			fmt.Fprintf(&sb, "'s%d'", k)
		}
		k++
	}
	return sb.String()
}

// checkSibling holds a text of the same shape as text, whose template is
// st with vals and from (ParseTemplate's), to what the cache answers it
// with on a shape hit: parsed, it is st's template, and its values are its
// own literals bound by from.
func checkSibling(t *testing.T, text string, s *Shape, st Statement, vals []types.Value, from []int) {
	t.Helper()
	if from == nil {
		return
	}
	other := sibling(s.Key)
	var s2 Shape
	if !s2.Scan(other) || string(s2.Key) != string(s.Key) {
		t.Fatalf("%q: sibling %q has key %q, not %q", text, other, s2.Key, s.Key)
	}
	var bound []types.Value
	for _, k := range from {
		bound = append(bound, s2.Lits[k])
	}
	st2, vals2, from2, err := ParseTemplate(other, s2.Lits)
	if err != nil {
		t.Fatalf("%q: sibling %q: %v", text, other, err)
	}
	if st2.String() != st.String() || !reflect.DeepEqual(from2, from) {
		t.Fatalf("%q: sibling %q is template %q (from %v), not %q (from %v)", text, other, st2, from2, st, from)
	}
	if !reflect.DeepEqual(bound, vals2) {
		t.Fatalf("%q: sibling %q binds %v, its parse lifts %v", text, other, bound, vals2)
	}
}

// FuzzStatementShape holds the rewrite cache's scan to the parser on any
// text, as it arrives from the wire: Shape.Scan with ParseTemplate agrees
// with Parse and ExtractParams (both fail, or one template and the same
// values, kind and value), and a text of the same shape binds its own
// literals into that template; a text holding Marker has no shape; every
// statement Parse accepts prints to a text that parses back to the same
// print; the traversal keeps its contract on it (checkWalk); and a
// SELECT's unnest keeps its own (checkUnnest).
func FuzzStatementShape(f *testing.F) {
	for _, text := range deckTexts {
		f.Add(text)
	}
	for text := range guardEdges {
		f.Add(text)
	}
	for _, text := range []string{
		"SELECT Name FROM Account WHERE Aid = 5 OR Aid = 5",
		"INSERT INTO Account (Aid, Name, Opened) VALUES (1, NULL, DATE '2008-06-09'), (2, 'b', NULL), (3, 'c', DATE '2008-13-01')",
		"INSERT INTO Account VALUES (1, 'x', DATE '2008-06-09', 1.5), (1, 'x', DATE '2008-06-09', 1.5)",
		"INSERT INTO Account VALUES (DATE '2008-6-9')",
		"INSERT INTO Account VALUES (DATE 5, DATE, date '2008-01-01' -- c\n)",
		"SELECT Name FROM Account WHERE Opened = DATE '2008-02-29' OR Opened = DATE '2009-02-29'",
		"DELETE FROM Account WHERE Aid IN (1, 2.5, 'x') AND Name LIKE 'a%'",
		"SELECT Stage, COUNT(*), SUM(Attr01) FROM Opportunity GROUP BY Stage HAVING COUNT(*) > 2 ORDER BY Stage",
		"SELECT Name FROM Account WHERE Name = 'a\x00b'",
		"SELECT Name FROM Account WHERE Aid = 1 -- \x00\x02",
		"BEGIN", "COMMIT", "ROLLBACK TO SAVEPOINT s",
		"SELECT y\xe7\xffa()", // not UTF-8: upper-cased, it has to lex as it did
		"SELECT a, ? FROM (SELECT b FROM t WHERE c = ?) AS d JOIN u ON u.x IN (SELECT y FROM v WHERE z = ?) WHERE CAST(a IN (SELECT q FROM r WHERE s = ?) AS INT) = ? GROUP BY a HAVING a IN (?, 3) ORDER BY a IN (SELECT k FROM w WHERE k LIKE ?)",
		"UPDATE t SET a = CAST(b IN (SELECT c FROM u WHERE d = ?) AS INT), e = ? WHERE NOT (f IN (SELECT g FROM h WHERE i = 'x')) IS NULL",
		"INSERT INTO t VALUES (?, CAST(1 IN (SELECT a FROM u WHERE b = ?) AS INT)), (NULL, -?)",
		"DELETE FROM t WHERE a IN (SELECT b FROM (SELECT b FROM u WHERE c = ?) AS d WHERE b IN (SELECT e FROM f WHERE g = ?))",
		"SELECT d.b, a FROM t, (SELECT u.b, c AS e FROM u WHERE u.c = 1 AND b > 2) AS d WHERE d.e = a AND b < 3 ORDER BY b",
		"SELECT x FROM (SELECT y AS x FROM (SELECT z AS y FROM (SELECT w AS z FROM t WHERE w > 0) AS a WHERE z < 9) AS b) AS c WHERE x = 1",
		"SELECT * FROM t, (SELECT a, b FROM t WHERE a = 1) AS d, (SELECT COUNT(*) AS n FROM u) AS e",
		"SELECT *",
		"SELECT d.a FROM t JOIN (SELECT a FROM u WHERE b = 2) AS d ON t.a = d.a, (SELECT c FROM v) AS e WHERE e.c = t.c",
	} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		var s Shape
		scanned := s.Scan(text)
		if scanned && strings.IndexByte(text, Marker) >= 0 {
			t.Fatalf("%q holds the marker but has a shape", text)
		}
		var lits []types.Value
		if scanned {
			lits = s.Lits
		}
		st, vals, from, err := ParseTemplate(text, lits)
		ref, rerr := Parse(text)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("%q: ParseTemplate says %v, Parse %v", text, err, rerr)
		}
		if err != nil {
			return
		}
		refText := ref.String()
		again, err := Parse(refText)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", text, refText, err)
		}
		if again.String() != refText {
			t.Fatalf("%q prints as %q, then as %q", text, refText, again)
		}
		// The lifted statement renders a text that parses back to it, and
		// its slots bound into that text give the statement's own.
		lifted, slots := LiftParams(ref)
		liftedText := lifted.String()
		if again, err := Parse(liftedText); err != nil || again.String() != liftedText {
			t.Fatalf("%q lifts to %q, which parses to %v (%v)", text, liftedText, again, err)
		}
		if got := bindSlots(liftedText, slots); got != refText {
			t.Fatalf("%q lifts to %q, which binds to %q", text, liftedText, got)
		}
		refVals, _ := ExtractParams(ref)
		if st.String() != ref.String() || !reflect.DeepEqual(vals, refVals) {
			t.Fatalf("%q: template %q %v, Parse and ExtractParams %q %v", text, st, vals, ref, refVals)
		}
		checkSibling(t, text, &s, st, vals, from)
		checkWalk(t, text, ref)
		if sel, ok := ref.(*SelectStmt); ok {
			checkUnnest(t, text, sel)
		}
	})
}

// checkUnnest holds Unnest to its contract on sel, as Parse built it: it
// leaves sel's text as it was, unnesting its answer changes nothing, and
// the answer prints to a text that parses back to the same print.
func checkUnnest(t *testing.T, text string, sel *SelectStmt) {
	t.Helper()
	before := sel.String()
	flat := Unnest(sel, nil)
	if sel.String() != before {
		t.Fatalf("%q: Unnest wrote its input: %q became %q", text, before, sel)
	}
	flatText := flat.String()
	if again := Unnest(flat, nil).String(); again != flatText {
		t.Fatalf("%q unnests to %q, then to %q", text, flatText, again)
	}
	reparsed, err := Parse(flatText)
	if err != nil || reparsed.String() != flatText {
		t.Fatalf("%q unnests to %q, which parses to %v (%v)", text, flatText, reparsed, err)
	}
}

// checkWalk holds the traversal to its contract on st, as Parse built it:
// the identity map renders st's text byte for byte; a map that replaces
// every literal, entering derived tables and IN subqueries, leaves st as
// it was; and a deep walk meets st's parameters in index order 0..n-1,
// the render order the canonizer numbers its slots in.
func checkWalk(t *testing.T, text string, st Statement) {
	t.Helper()
	before := st.String()
	keep := func(e Expr) (Expr, error) {
		return Map(e, func(n Expr) (Expr, error) { return n, nil })
	}
	if same, err := MapStatement(st, keep, nil); err != nil || same.String() != before {
		t.Fatalf("%q: the identity map renders %v (%v), not %q", text, same, err, before)
	}
	var relit func(Statement) Statement
	relit = func(s Statement) Statement {
		out, _ := MapStatement(s, func(e Expr) (Expr, error) {
			return Map(e, func(n Expr) (Expr, error) {
				switch n := n.(type) {
				case *Literal:
					return &Literal{Val: types.NewInt(7)}, nil
				case *InExpr:
					if n.Subquery != nil {
						n.Subquery = relit(n.Subquery).(*SelectStmt)
					}
				}
				return n, nil
			})
		}, func(tr TableRef) (TableRef, error) {
			if sub, ok := tr.(*SubqueryTable); ok {
				return &SubqueryTable{Select: relit(sub.Select).(*SelectStmt), Alias: sub.Alias}, nil
			}
			return tr, nil
		})
		return out
	}
	if relit(st); st.String() != before {
		t.Fatalf("%q: mapping its literals wrote the input: %q, was %q", text, st, before)
	}
	next := 0
	var params func(Statement)
	var visit func(Expr) bool
	visit = func(n Expr) bool {
		switch n := n.(type) {
		case *Param:
			if n.Index != next {
				t.Fatalf("%q: the walk meets parameter %d where %d is next", text, n.Index, next)
			}
			next++
		case *InExpr:
			if n.Subquery != nil { // it renders after X
				Walk(n.X, visit)
				params(n.Subquery)
				return false
			}
		}
		return true
	}
	params = func(s Statement) {
		WalkStatement(s, func(e Expr) { Walk(e, visit) }, func(tr TableRef) {
			if sub, ok := tr.(*SubqueryTable); ok {
				params(sub.Select)
			}
		})
	}
	params(st)
	l, n := lexer{src: before}, 0
	for tok, err := l.next(); err == nil && tok.kind != tokEOF; tok, err = l.next() {
		if tok.kind == tokParam {
			n++
		}
	}
	if n != next {
		t.Fatalf("%q: the walk met %d parameters, the text holds %d", text, next, n)
	}
}

// bindSlots puts each slot's value, as a literal, in place of the `?` of
// text it binds (a caller's parameter stays a `?`).
func bindSlots(text string, slots []Slot) string {
	var sb strings.Builder
	l, gap, i := lexer{src: text}, 0, 0
	for {
		t, err := l.next()
		if err != nil || t.kind == tokEOF {
			break
		}
		if t.kind != tokParam || i >= len(slots) {
			continue
		}
		sb.WriteString(text[gap:t.pos])
		if slots[i].Param < 0 {
			sb.WriteString(slots[i].Val.SQLLiteral())
		} else {
			sb.WriteString("?")
		}
		i, gap = i+1, l.pos
	}
	return sb.String() + text[gap:]
}
