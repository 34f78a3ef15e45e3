package sql

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/types"
)

// Parse parses a single SQL statement (an optional trailing semicolon
// is allowed).
func Parse(src string) (Statement, error) {
	return (&parser{}).parse(src)
}

func (p *parser) parse(src string) (Statement, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p.toks = toks
	if p.noting {
		p.lits = make([]notedLit, 0, len(toks)/2)
	}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.acceptSymbol(";")
	if p.cur().kind != tokEOF {
		return nil, p.errf("unexpected %s after statement", p.cur())
	}
	return stmt, nil
}

// ParseExpr parses a standalone expression (used in tests and by the
// transformation layer to build predicates).
func ParseExpr(src string) (Expr, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("unexpected %s after expression", p.cur())
	}
	return e, nil
}

type parser struct {
	toks    []token
	pos     int
	nparams int
	// Where noting is set, lits is each literal read from a token, in
	// parse order (ParseTemplate).
	noting bool
	lits   []notedLit
}

// notedLit is a literal and the token it was read from.
type notedLit struct {
	lit *Literal
	tok int
}

func (p *parser) note(lit *Literal, tok int) {
	if p.noting {
		p.lits = append(p.lits, notedLit{lit, tok})
	}
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }
func (p *parser) advance()    { p.pos++ }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: near offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

// isKw reports whether the current token is the given keyword
// (case-insensitive identifier match).
func (p *parser) isKw(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) acceptKw(kw string) bool {
	if p.isKw(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s, found %s", kw, p.cur())
	}
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	t := p.cur()
	if t.kind == tokSymbol && t.text == s {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errf("expected %q, found %s", s, p.cur())
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, found %s", t)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.isKw("SELECT"):
		return p.parseSelect()
	case p.isKw("INSERT"):
		return p.parseInsert()
	case p.isKw("UPDATE"):
		return p.parseUpdate()
	case p.isKw("DELETE"):
		return p.parseDelete()
	case p.isKw("CREATE"):
		return p.parseCreate()
	case p.isKw("DROP"):
		return p.parseDrop()
	case p.isKw("ALTER"):
		return p.parseAlter()
	case p.isKw("BEGIN"), p.isKw("START"):
		return p.parseBegin()
	case p.isKw("COMMIT"), p.isKw("END"):
		p.advance()
		p.acceptKw("TRANSACTION")
		p.acceptKw("WORK")
		return &CommitStmt{}, nil
	case p.isKw("ROLLBACK"):
		return p.parseRollback()
	case p.isKw("SAVEPOINT"):
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &SavepointStmt{Name: name}, nil
	}
	return nil, p.errf("expected statement, found %s", p.cur())
}

func (p *parser) parseBegin() (Statement, error) {
	if p.acceptKw("START") {
		if err := p.expectKw("TRANSACTION"); err != nil {
			return nil, err
		}
		return &BeginStmt{}, nil
	}
	if err := p.expectKw("BEGIN"); err != nil {
		return nil, err
	}
	p.acceptKw("TRANSACTION")
	p.acceptKw("WORK")
	return &BeginStmt{}, nil
}

func (p *parser) parseRollback() (Statement, error) {
	if err := p.expectKw("ROLLBACK"); err != nil {
		return nil, err
	}
	p.acceptKw("TRANSACTION")
	p.acceptKw("WORK")
	if p.acceptKw("TO") {
		p.acceptKw("SAVEPOINT")
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &RollbackStmt{To: name}, nil
	}
	return &RollbackStmt{}, nil
}

// clauseKeywords cannot be consumed as implicit table/column aliases.
var clauseKeywords = map[string]bool{
	"FROM": true, "WHERE": true, "GROUP": true, "HAVING": true,
	"ORDER": true, "LIMIT": true, "ON": true, "JOIN": true,
	"INNER": true, "LEFT": true, "RIGHT": true, "AS": true,
	"SET": true, "VALUES": true, "AND": true, "OR": true, "NOT": true,
	"IS": true, "IN": true, "LIKE": true, "ASC": true, "DESC": true,
	"UNION": true, "SELECT": true, "DISTINCT": true,
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{}
	s.Distinct = p.acceptKw("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKw("FROM") {
		for {
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, tr)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, g)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKw("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		t := p.cur()
		if t.kind != tokNumber {
			return nil, p.errf("expected LIMIT count, found %s", t)
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		p.advance()
		s.Limit = &n
	}
	return s, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	// qualified star: ident.*
	if p.cur().kind == tokIdent && !clauseKeywords[strings.ToUpper(p.cur().text)] &&
		p.peek().kind == tokSymbol && p.peek().text == "." {
		save := p.pos
		qual := p.cur().text
		p.advance()
		p.advance()
		if p.acceptSymbol("*") {
			return SelectItem{Star: true, StarQualifier: qual}, nil
		}
		p.pos = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKw("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if t := p.cur(); t.kind == tokIdent && !clauseKeywords[strings.ToUpper(t.text)] {
		item.Alias = t.text
		p.advance()
	}
	return item, nil
}

// parseTableRef parses one FROM entry including JOIN chains.
func (p *parser) parseTableRef() (TableRef, error) {
	left, err := p.parsePrimaryTableRef()
	if err != nil {
		return nil, err
	}
	for {
		var jt JoinType
		switch {
		case p.isKw("JOIN"):
			p.advance()
			jt = InnerJoin
		case p.isKw("INNER"):
			p.advance()
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			jt = InnerJoin
		case p.isKw("LEFT"):
			p.advance()
			p.acceptKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			jt = LeftJoin
		default:
			return left, nil
		}
		right, err := p.parsePrimaryTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		left = &JoinTable{Left: left, Right: right, Type: jt, On: on}
	}
}

func (p *parser) parsePrimaryTableRef() (TableRef, error) {
	if p.acceptSymbol("(") {
		if p.isKw("SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			p.acceptKw("AS")
			alias, err := p.expectIdent()
			if err != nil {
				return nil, fmt.Errorf("%w (derived tables need an alias)", err)
			}
			return &SubqueryTable{Select: sub, Alias: alias}, nil
		}
		// Parenthesized join tree.
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return tr, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	nt := &NamedTable{Name: name}
	if p.acceptKw("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		nt.Alias = a
	} else if t := p.cur(); t.kind == tokIdent && !clauseKeywords[strings.ToUpper(t.text)] {
		nt.Alias = t.text
		p.advance()
	}
	return nt, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.advance() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: table}
	if p.acceptSymbol("(") {
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, c)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return st, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.advance() // UPDATE
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: table}
	if t := p.cur(); t.kind == tokIdent && !clauseKeywords[strings.ToUpper(t.text)] {
		st.Alias = t.text
		p.advance()
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, Assignment{Column: col, Value: val})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.advance() // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: table}
	if t := p.cur(); t.kind == tokIdent && !clauseKeywords[strings.ToUpper(t.text)] {
		st.Alias = t.text
		p.advance()
	}
	if p.acceptKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *parser) parseCreate() (Statement, error) {
	p.advance() // CREATE
	unique := p.acceptKw("UNIQUE")
	switch {
	case p.acceptKw("TABLE"):
		if unique {
			return nil, p.errf("UNIQUE TABLE is not a thing")
		}
		st := &CreateTableStmt{}
		if p.acceptKw("IF") {
			if err := p.expectKw("NOT"); err != nil {
				return nil, err
			}
			if err := p.expectKw("EXISTS"); err != nil {
				return nil, err
			}
			st.IfNotExists = true
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.Name = name
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, col)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return st, nil
	case p.acceptKw("INDEX"):
		st := &CreateIndexStmt{Unique: unique}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.Name = name
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		st.Table, err = p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, c)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return st, nil
	}
	return nil, p.errf("expected TABLE or INDEX after CREATE")
}

func (p *parser) parseDrop() (Statement, error) {
	p.advance() // DROP
	switch {
	case p.acceptKw("TABLE"):
		st := &DropTableStmt{}
		if p.acceptKw("IF") {
			if err := p.expectKw("EXISTS"); err != nil {
				return nil, err
			}
			st.IfExists = true
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.Name = name
		return st, nil
	case p.acceptKw("INDEX"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		table, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropIndexStmt{Name: name, Table: table}, nil
	}
	return nil, p.errf("expected TABLE or INDEX after DROP")
}

func (p *parser) parseAlter() (Statement, error) {
	p.advance() // ALTER
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	switch {
	case p.acceptKw("ADD"):
		p.acceptKw("COLUMN")
		col, err := p.parseColumnDef()
		if err != nil {
			return nil, err
		}
		return &AlterAddColumnStmt{Table: table, Col: col}, nil
	case p.acceptKw("DROP"):
		p.acceptKw("COLUMN")
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &AlterDropColumnStmt{Table: table, Col: col}, nil
	case p.acceptKw("ALTER"):
		p.acceptKw("COLUMN")
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		// TYPE <t> or SET DATA TYPE <t>.
		if p.acceptKw("SET") {
			if err := p.expectKw("DATA"); err != nil {
				return nil, err
			}
		}
		if err := p.expectKw("TYPE"); err != nil {
			return nil, err
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return &AlterColumnTypeStmt{Table: table, Col: col, Type: typ}, nil
	}
	return nil, p.errf("expected ADD, DROP, or ALTER COLUMN after ALTER TABLE %s", table)
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return ColumnDef{}, err
	}
	typ, err := p.parseType()
	if err != nil {
		return ColumnDef{}, err
	}
	def := ColumnDef{Name: name, Type: typ}
	if p.acceptKw("NOT") {
		if err := p.expectKw("NULL"); err != nil {
			return ColumnDef{}, err
		}
		def.NotNull = true
	}
	return def, nil
}

func (p *parser) parseType() (types.ColumnType, error) {
	name, err := p.expectIdent()
	if err != nil {
		return types.ColumnType{}, err
	}
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return types.IntType, nil
	case "DOUBLE", "FLOAT", "REAL", "DECIMAL", "NUMERIC":
		return types.FloatType, nil
	case "DATE":
		return types.DateType, nil
	case "BOOLEAN", "BOOL":
		return types.BoolType, nil
	case "TEXT":
		return types.ColumnType{Kind: types.KindString}, nil
	case "VARCHAR", "CHAR", "CHARACTER":
		width := 0
		if p.acceptSymbol("(") {
			t := p.cur()
			if t.kind != tokNumber {
				return types.ColumnType{}, p.errf("expected length in VARCHAR(n)")
			}
			w, err := strconv.Atoi(t.text)
			if err != nil {
				return types.ColumnType{}, p.errf("bad VARCHAR length %q", t.text)
			}
			p.advance()
			if err := p.expectSymbol(")"); err != nil {
				return types.ColumnType{}, err
			}
			width = w
		}
		return types.ColumnType{Kind: types.KindString, Width: width}, nil
	}
	return types.ColumnType{}, p.errf("unknown type %s", name)
}

// --- Expression parsing (precedence climbing) --------------------------------

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKw("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: OpNot, X: x}, nil
	}
	return p.parseComparison()
}

var cmpOps = map[string]BinOp{
	"=": OpEq, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) cmpOp() (BinOp, bool) {
	t := p.cur()
	if t.kind != tokSymbol {
		return 0, false
	}
	op, ok := cmpOps[t.text]
	return op, ok
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// postfix predicates
	for {
		if op, ok := p.cmpOp(); ok {
			p.advance()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: op, L: l, R: r}
			continue
		}
		switch {
		case p.isKw("IS"):
			p.advance()
			not := p.acceptKw("NOT")
			if err := p.expectKw("NULL"); err != nil {
				return nil, err
			}
			l = &IsNullExpr{X: l, Not: not}
		case p.isKw("IN"):
			p.advance()
			in, err := p.parseInTail(l, false)
			if err != nil {
				return nil, err
			}
			l = in
		case p.isKw("LIKE"):
			p.advance()
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &LikeExpr{X: l, Pattern: pat}
		case p.isKw("NOT"):
			// x NOT IN / x NOT LIKE
			save := p.pos
			p.advance()
			if p.acceptKw("IN") {
				in, err := p.parseInTail(l, true)
				if err != nil {
					return nil, err
				}
				l = in
			} else if p.acceptKw("LIKE") {
				pat, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				l = &LikeExpr{X: l, Pattern: pat, Not: true}
			} else {
				p.pos = save
				return l, nil
			}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseInTail(x Expr, not bool) (Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	in := &InExpr{X: x, Not: not}
	if p.isKw("SELECT") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		in.Subquery = sub
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch {
		case p.acceptSymbol("+"):
			op = OpAdd
		case p.acceptSymbol("-"):
			op = OpSub
		default:
			return l, nil
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch {
		case p.acceptSymbol("*"):
			op = OpMul
		case p.acceptSymbol("/"):
			op = OpDiv
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*Literal); ok {
			switch lit.Val.Kind {
			case types.KindInt:
				return &Literal{Val: types.NewInt(-lit.Val.Int)}, nil
			case types.KindFloat:
				return &Literal{Val: types.NewFloat(-lit.Val.Float())}, nil
			}
		}
		return &UnaryExpr{Op: OpNeg, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber, tokString:
		v, ok := literalValue(t)
		if !ok {
			return nil, p.errf("bad number %q", t.text)
		}
		lit := &Literal{Val: v}
		p.note(lit, p.pos)
		p.advance()
		return lit, nil
	case tokParam:
		p.advance()
		e := &Param{Index: p.nparams}
		p.nparams++
		return e, nil
	case tokSymbol:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokIdent:
		upper := strings.ToUpper(t.text)
		switch upper {
		case "NULL":
			p.advance()
			return &Literal{Val: types.Null()}, nil
		case "TRUE":
			p.advance()
			return &Literal{Val: types.NewBool(true)}, nil
		case "FALSE":
			p.advance()
			return &Literal{Val: types.NewBool(false)}, nil
		case "DATE":
			if p.peek().kind == tokString {
				p.advance()
				v, ok := dateValue(p.cur().text)
				if !ok {
					return nil, p.errf("bad DATE literal %q", p.cur().text)
				}
				lit := &Literal{Val: v}
				p.note(lit, p.pos) // the string: Shape.Scan counts DATE '…' once
				p.advance()
				return lit, nil
			}
		case "CAST":
			if p.peek().kind == tokSymbol && p.peek().text == "(" {
				p.advance()
				p.advance()
				x, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expectKw("AS"); err != nil {
					return nil, err
				}
				typ, err := p.parseType()
				if err != nil {
					return nil, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return &CastExpr{X: x, Type: typ}, nil
			}
		}
		// Function call?
		if p.peek().kind == tokSymbol && p.peek().text == "(" {
			name := t.text
			p.advance()
			p.advance()
			f := &FuncExpr{Name: upperASCII(name)}
			if p.acceptSymbol("*") {
				f.Star = true
			} else if !(p.cur().kind == tokSymbol && p.cur().text == ")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					f.Args = append(f.Args, a)
					if !p.acceptSymbol(",") {
						break
					}
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return f, nil
		}
		// Column reference, possibly qualified. Clause keywords can
		// never start an operand (Table/Chunk/Row stay usable: they are
		// not in the reserved set).
		if clauseKeywords[upper] {
			return nil, p.errf("unexpected keyword %s in expression", t.text)
		}
		p.advance()
		if p.cur().kind == tokSymbol && p.cur().text == "." {
			p.advance()
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.text, Name: col}, nil
		}
		return &ColumnRef{Name: t.text}, nil
	}
	return nil, p.errf("unexpected %s in expression", t)
}

// literalValue is the value a number or string token stands for (not ok:
// a number out of range), for the parser and Shape.Scan alike.
func literalValue(t token) (v types.Value, ok bool) {
	switch {
	case t.kind == tokString:
		return types.NewString(t.text), true
	case strings.IndexByte(t.text, '.') >= 0:
		f, err := strconv.ParseFloat(t.text, 64)
		return types.NewFloat(f), err == nil
	}
	n, err := strconv.ParseInt(t.text, 10, 64)
	return types.NewInt(n), err == nil
}

// dateValue is the date a DATE '…' literal's string stands for (not ok:
// not a date), for the parser and Shape.Scan alike.
func dateValue(s string) (types.Value, bool) {
	tm, err := time.Parse("2006-01-02", s)
	return types.DateFromTime(tm), err == nil
}

// upperASCII upper-cases s's ASCII letters alone: an identifier's bytes
// need not be UTF-8, and strings.ToUpper would replace those that are not.
// A name with no lower-case letter comes back as it is, without a copy.
func upperASCII(s string) string {
	i := strings.IndexFunc(s, func(r rune) bool { return 'a' <= r && r <= 'z' })
	if i < 0 {
		return s
	}
	b := []byte(s)
	for ; i < len(b); i++ {
		if c := b[i]; 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}
