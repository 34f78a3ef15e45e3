// Package sql contains the SQL dialect shared by the engine and the
// schema-mapping layer: a lexer, a recursive-descent parser, the AST,
// and an AST-to-SQL printer. The printer matters as much as the parser
// here — the paper's query-transformation layer (§6.1) rewrites logical
// SQL into physical SQL, and this package is the round-trip vehicle.
//
// The tree has one traversal (walk.go): edit lists an expression's
// children and clauses a statement's expression positions, both in
// render order, and every pass over the AST — here and in the engine,
// planner and rewriter — is a callback on Walk, Map, WalkStatement or
// MapStatement. A new node kind is one case in edit, and one in clauses
// where it holds expressions; only code that turns a node into another
// type (the printer, the planner's resolver) has a switch of its own.
package sql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
	String() string
}

// Expr is any SQL expression.
type Expr interface {
	expr()
	String() string
	appendTo(sb *strings.Builder)
}

// --- Statements -------------------------------------------------------------

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef // implicit cross join of these
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    *int64
}

// SelectItem is one projection: either a star (optionally qualified)
// or an expression with an optional alias.
type SelectItem struct {
	Star          bool
	StarQualifier string // "t" in t.*
	Expr          Expr
	Alias         string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// TableRef is an entry in a FROM clause.
type TableRef interface {
	tableRef()
	String() string
	appendTo(sb *strings.Builder)
}

// NamedTable references a base table, optionally aliased.
type NamedTable struct {
	Name  string
	Alias string
}

// SubqueryTable is a derived table: (SELECT ...) AS alias.
type SubqueryTable struct {
	Select *SelectStmt
	Alias  string
}

// JoinType distinguishes inner and left outer joins.
type JoinType uint8

const (
	// InnerJoin keeps only matching pairs.
	InnerJoin JoinType = iota
	// LeftJoin keeps unmatched left rows with NULL-extended right side.
	LeftJoin
)

// JoinTable is an explicit JOIN ... ON tree node.
type JoinTable struct {
	Left, Right TableRef
	Type        JoinType
	On          Expr
}

// InsertStmt is INSERT INTO ... VALUES.
type InsertStmt struct {
	Table   string
	Columns []string // empty = all columns in order
	Rows    [][]Expr
}

// Assignment is one SET clause of an UPDATE.
type Assignment struct {
	Column string
	Value  Expr
}

// UpdateStmt is UPDATE ... SET ... WHERE.
type UpdateStmt struct {
	Table string
	Alias string
	Set   []Assignment
	Where Expr
}

// DeleteStmt is DELETE FROM ... WHERE.
type DeleteStmt struct {
	Table string
	Alias string
	Where Expr
}

// ColumnDef is a column in CREATE TABLE / ALTER TABLE.
type ColumnDef struct {
	Name    string
	Type    types.ColumnType
	NotNull bool
}

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Name        string
	IfNotExists bool
	Cols        []ColumnDef
}

// CreateIndexStmt is CREATE [UNIQUE] INDEX.
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
}

// DropTableStmt is DROP TABLE.
type DropTableStmt struct {
	Name     string
	IfExists bool
}

// DropIndexStmt is DROP INDEX name ON table.
type DropIndexStmt struct {
	Name  string
	Table string
}

// AlterAddColumnStmt is ALTER TABLE ... ADD COLUMN.
type AlterAddColumnStmt struct {
	Table string
	Col   ColumnDef
}

// AlterDropColumnStmt is ALTER TABLE ... DROP COLUMN.
type AlterDropColumnStmt struct {
	Table string
	Col   string
}

// AlterColumnTypeStmt is ALTER TABLE ... ALTER COLUMN ... TYPE (also
// accepted as SET DATA TYPE) — a type widening.
type AlterColumnTypeStmt struct {
	Table string
	Col   string
	Type  types.ColumnType
}

// BeginStmt is BEGIN [TRANSACTION | WORK] / START TRANSACTION.
type BeginStmt struct{}

// CommitStmt is COMMIT [TRANSACTION | WORK] / END.
type CommitStmt struct{}

// RollbackStmt is ROLLBACK [TRANSACTION | WORK], or, with To set,
// ROLLBACK TO [SAVEPOINT] name (a partial rollback that keeps the
// transaction and the savepoint alive).
type RollbackStmt struct {
	To string
}

// SavepointStmt is SAVEPOINT name.
type SavepointStmt struct {
	Name string
}

func (*SelectStmt) stmt()          {}
func (*InsertStmt) stmt()          {}
func (*UpdateStmt) stmt()          {}
func (*DeleteStmt) stmt()          {}
func (*CreateTableStmt) stmt()     {}
func (*CreateIndexStmt) stmt()     {}
func (*DropTableStmt) stmt()       {}
func (*DropIndexStmt) stmt()       {}
func (*AlterAddColumnStmt) stmt()  {}
func (*AlterDropColumnStmt) stmt() {}
func (*AlterColumnTypeStmt) stmt() {}
func (*BeginStmt) stmt()           {}
func (*CommitStmt) stmt()          {}
func (*RollbackStmt) stmt()        {}
func (*SavepointStmt) stmt()       {}

func (*NamedTable) tableRef()    {}
func (*SubqueryTable) tableRef() {}
func (*JoinTable) tableRef()     {}

// --- Expressions ------------------------------------------------------------

// ColumnRef names a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table string
	Name  string
}

// Literal is a constant value.
type Literal struct {
	Val types.Value
}

// Param is a positional `?` placeholder (0-based Index in parse order).
type Param struct {
	Index int
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators in precedence groups.
const (
	OpOr BinOp = iota
	OpAnd
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
)

var binOpNames = map[BinOp]string{
	OpOr: "OR", OpAnd: "AND", OpEq: "=", OpNe: "<>",
	OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
}

// String returns the SQL spelling of the operator.
func (o BinOp) String() string { return binOpNames[o] }

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   BinOp
	L, R Expr
}

// UnOp enumerates unary operators.
type UnOp uint8

const (
	// OpNot is logical negation.
	OpNot UnOp = iota
	// OpNeg is arithmetic negation.
	OpNeg
)

// UnaryExpr applies a unary operator.
type UnaryExpr struct {
	Op UnOp
	X  Expr
}

// IsNullExpr is `x IS [NOT] NULL`.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// InExpr is `x [NOT] IN (list)` or `x [NOT] IN (subquery)`.
type InExpr struct {
	X        Expr
	List     []Expr
	Subquery *SelectStmt
	Not      bool
}

// LikeExpr is `x [NOT] LIKE pattern` with % and _ wildcards.
type LikeExpr struct {
	X       Expr
	Pattern Expr
	Not     bool
}

// FuncExpr is a function call; aggregates (COUNT/SUM/AVG/MIN/MAX) are
// recognized by name in the planner. Star marks COUNT(*).
type FuncExpr struct {
	Name string
	Star bool
	Args []Expr
}

// CastExpr is CAST(x AS type).
type CastExpr struct {
	X    Expr
	Type types.ColumnType
}

func (*ColumnRef) expr()  {}
func (*Literal) expr()    {}
func (*Param) expr()      {}
func (*BinaryExpr) expr() {}
func (*UnaryExpr) expr()  {}
func (*IsNullExpr) expr() {}
func (*InExpr) expr()     {}
func (*LikeExpr) expr()   {}
func (*FuncExpr) expr()   {}
func (*CastExpr) expr()   {}

// --- SQL printing ------------------------------------------------------------
//
// Expressions, table references and the four statements that contain
// them render through appendTo into one strings.Builder for the whole
// tree; String wraps it. (The engine derives plan-cache keys from
// String, so a rewritten statement with hundreds of nodes must not
// concatenate at every level.)

func render(n interface{ appendTo(*strings.Builder) }) string {
	var sb strings.Builder
	n.appendTo(&sb)
	return sb.String()
}

func appendList[E interface{ appendTo(*strings.Builder) }](sb *strings.Builder, list []E) {
	for i, x := range list {
		if i > 0 {
			sb.WriteString(", ")
		}
		x.appendTo(sb)
	}
}

func appendParens(sb *strings.Builder, parens bool, n interface{ appendTo(*strings.Builder) }) {
	if parens {
		sb.WriteByte('(')
	}
	n.appendTo(sb)
	if parens {
		sb.WriteByte(')')
	}
}

func (c *ColumnRef) String() string     { return render(c) }
func (l *Literal) String() string       { return l.Val.SQLLiteral() }
func (p *Param) String() string         { return "?" }
func (b *BinaryExpr) String() string    { return render(b) }
func (u *UnaryExpr) String() string     { return render(u) }
func (e *IsNullExpr) String() string    { return render(e) }
func (e *InExpr) String() string        { return render(e) }
func (e *LikeExpr) String() string      { return render(e) }
func (f *FuncExpr) String() string      { return render(f) }
func (c *CastExpr) String() string      { return render(c) }
func (t *NamedTable) String() string    { return render(t) }
func (t *SubqueryTable) String() string { return render(t) }
func (t *JoinTable) String() string     { return render(t) }
func (s *SelectStmt) String() string    { return render(s) }
func (s *InsertStmt) String() string    { return render(s) }
func (s *UpdateStmt) String() string    { return render(s) }
func (s *DeleteStmt) String() string    { return render(s) }

func (c *ColumnRef) appendTo(sb *strings.Builder) {
	if c.Table != "" {
		sb.WriteString(c.Table)
		sb.WriteByte('.')
	}
	sb.WriteString(c.Name)
}

func (l *Literal) appendTo(sb *strings.Builder) { sb.WriteString(l.Val.SQLLiteral()) }

func (p *Param) appendTo(sb *strings.Builder) { sb.WriteByte('?') }

func prec(op BinOp) int {
	switch op {
	case OpOr:
		return 1
	case OpAnd:
		return 2
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return 3
	case OpAdd, OpSub:
		return 4
	default:
		return 5
	}
}

func (b *BinaryExpr) appendTo(sb *strings.Builder) {
	lb, lok := b.L.(*BinaryExpr)
	appendParens(sb, lok && prec(lb.Op) < prec(b.Op), b.L)
	sb.WriteByte(' ')
	sb.WriteString(b.Op.String())
	sb.WriteByte(' ')
	// Right side also parenthesized at equal precedence to preserve
	// left associativity for - and /.
	rb, rok := b.R.(*BinaryExpr)
	appendParens(sb, rok && prec(rb.Op) <= prec(b.Op), b.R)
}

func (u *UnaryExpr) appendTo(sb *strings.Builder) {
	if u.Op == OpNot {
		sb.WriteString("NOT ")
	} else {
		sb.WriteByte('-')
	}
	appendParens(sb, true, u.X)
}

func (e *IsNullExpr) appendTo(sb *strings.Builder) {
	e.X.appendTo(sb)
	if e.Not {
		sb.WriteString(" IS NOT NULL")
	} else {
		sb.WriteString(" IS NULL")
	}
}

func (e *InExpr) appendTo(sb *strings.Builder) {
	e.X.appendTo(sb)
	if e.Not {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" IN (")
	if e.Subquery != nil {
		e.Subquery.appendTo(sb)
	} else {
		appendList(sb, e.List)
	}
	sb.WriteByte(')')
}

func (e *LikeExpr) appendTo(sb *strings.Builder) {
	e.X.appendTo(sb)
	if e.Not {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" LIKE ")
	e.Pattern.appendTo(sb)
}

func (f *FuncExpr) appendTo(sb *strings.Builder) {
	sb.WriteString(upperASCII(f.Name))
	sb.WriteByte('(')
	if f.Star {
		sb.WriteByte('*')
	} else {
		appendList(sb, f.Args)
	}
	sb.WriteByte(')')
}

func (c *CastExpr) appendTo(sb *strings.Builder) {
	sb.WriteString("CAST(")
	c.X.appendTo(sb)
	sb.WriteString(" AS ")
	sb.WriteString(c.Type.String())
	sb.WriteByte(')')
}

func (t *NamedTable) appendTo(sb *strings.Builder) {
	sb.WriteString(t.Name)
	if t.Alias != "" {
		sb.WriteByte(' ')
		sb.WriteString(t.Alias)
	}
}

func (t *SubqueryTable) appendTo(sb *strings.Builder) {
	appendParens(sb, true, t.Select)
	sb.WriteString(" AS ")
	sb.WriteString(t.Alias)
}

func (t *JoinTable) appendTo(sb *strings.Builder) {
	t.Left.appendTo(sb)
	if t.Type == LeftJoin {
		sb.WriteString(" LEFT")
	}
	sb.WriteString(" JOIN ")
	_, nested := t.Right.(*JoinTable)
	appendParens(sb, nested, t.Right)
	sb.WriteString(" ON ")
	t.On.appendTo(sb)
}

func (it SelectItem) appendTo(sb *strings.Builder) {
	switch {
	case it.Star && it.StarQualifier != "":
		sb.WriteString(it.StarQualifier)
		sb.WriteString(".*")
	case it.Star:
		sb.WriteByte('*')
	default:
		it.Expr.appendTo(sb)
		if it.Alias != "" {
			sb.WriteString(" AS ")
			sb.WriteString(it.Alias)
		}
	}
}

func (o OrderItem) appendTo(sb *strings.Builder) {
	o.Expr.appendTo(sb)
	if o.Desc {
		sb.WriteString(" DESC")
	}
}

func (s *SelectStmt) appendTo(sb *strings.Builder) {
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	appendList(sb, s.Items)
	if len(s.From) > 0 {
		sb.WriteString(" FROM ")
		appendList(sb, s.From)
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		s.Where.appendTo(sb)
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		appendList(sb, s.GroupBy)
	}
	if s.Having != nil {
		sb.WriteString(" HAVING ")
		s.Having.appendTo(sb)
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		appendList(sb, s.OrderBy)
	}
	if s.Limit != nil {
		sb.WriteString(" LIMIT ")
		sb.WriteString(strconv.FormatInt(*s.Limit, 10))
	}
}

func (s *InsertStmt) appendTo(sb *strings.Builder) {
	sb.WriteString("INSERT INTO ")
	sb.WriteString(s.Table)
	if len(s.Columns) > 0 {
		sb.WriteString(" (")
		sb.WriteString(strings.Join(s.Columns, ", "))
		sb.WriteByte(')')
	}
	sb.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteByte('(')
		appendList(sb, row)
		sb.WriteByte(')')
	}
}

func (a Assignment) appendTo(sb *strings.Builder) {
	sb.WriteString(a.Column)
	sb.WriteString(" = ")
	a.Value.appendTo(sb)
}

func (s *UpdateStmt) appendTo(sb *strings.Builder) {
	sb.WriteString("UPDATE ")
	sb.WriteString(s.Table)
	if s.Alias != "" {
		sb.WriteByte(' ')
		sb.WriteString(s.Alias)
	}
	sb.WriteString(" SET ")
	appendList(sb, s.Set)
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		s.Where.appendTo(sb)
	}
}

func (s *DeleteStmt) appendTo(sb *strings.Builder) {
	sb.WriteString("DELETE FROM ")
	sb.WriteString(s.Table)
	if s.Alias != "" {
		sb.WriteByte(' ')
		sb.WriteString(s.Alias)
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		s.Where.appendTo(sb)
	}
}

func (s *CreateTableStmt) String() string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE ")
	if s.IfNotExists {
		sb.WriteString("IF NOT EXISTS ")
	}
	sb.WriteString(s.Name + " (")
	for i, c := range s.Cols {
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

func (s *CreateIndexStmt) String() string {
	u := ""
	if s.Unique {
		u = "UNIQUE "
	}
	return fmt.Sprintf("CREATE %sINDEX %s ON %s (%s)", u, s.Name, s.Table, strings.Join(s.Columns, ", "))
}

func (s *DropTableStmt) String() string {
	if s.IfExists {
		return "DROP TABLE IF EXISTS " + s.Name
	}
	return "DROP TABLE " + s.Name
}

func (s *DropIndexStmt) String() string {
	return "DROP INDEX " + s.Name + " ON " + s.Table
}

func (s *AlterAddColumnStmt) String() string {
	out := "ALTER TABLE " + s.Table + " ADD COLUMN " + s.Col.Name + " " + s.Col.Type.String()
	if s.Col.NotNull {
		out += " NOT NULL"
	}
	return out
}

func (s *AlterDropColumnStmt) String() string {
	return "ALTER TABLE " + s.Table + " DROP COLUMN " + s.Col
}

func (s *AlterColumnTypeStmt) String() string {
	return "ALTER TABLE " + s.Table + " ALTER COLUMN " + s.Col + " TYPE " + s.Type.String()
}

func (s *BeginStmt) String() string { return "BEGIN" }

func (s *CommitStmt) String() string { return "COMMIT" }

func (s *RollbackStmt) String() string {
	if s.To != "" {
		return "ROLLBACK TO SAVEPOINT " + s.To
	}
	return "ROLLBACK"
}

func (s *SavepointStmt) String() string { return "SAVEPOINT " + s.Name }
