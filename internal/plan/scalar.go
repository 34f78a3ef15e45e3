// Package plan turns parsed SQL into physical operator trees: name
// resolution, subquery flattening, predicate pushdown, index selection,
// and join-algorithm/join-order choice. Two optimizer capability levels
// are provided (see Mode) because the paper's §6.2 Test 1 hinges on the
// difference between an optimizer that can unnest the generic chunk
// transformation (DB2) and one that cannot (MySQL).
package plan

import (
	"fmt"
	"strings"

	"repro/internal/sql"
	"repro/internal/types"
)

// Scalar is a resolved, executable expression. Row is the input tuple;
// params are the statement's `?` bindings.
type Scalar interface {
	Eval(row []types.Value, params []types.Value) (types.Value, error)
	String() string
}

// ColRef reads column Idx of the input row.
type ColRef struct {
	Idx  int
	Name string // for display
}

// Eval implements Scalar.
func (c *ColRef) Eval(row, _ []types.Value) (types.Value, error) { return row[c.Idx], nil }

func (c *ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Idx)
}

// Const is a literal.
type Const struct {
	Val types.Value
}

// Eval implements Scalar.
func (c *Const) Eval(_, _ []types.Value) (types.Value, error) { return c.Val, nil }

func (c *Const) String() string { return c.Val.SQLLiteral() }

// ParamRef reads parameter Idx.
type ParamRef struct {
	Idx int
}

// Eval implements Scalar.
func (p *ParamRef) Eval(_, params []types.Value) (types.Value, error) {
	if p.Idx >= len(params) {
		return types.Null(), fmt.Errorf("plan: missing value for parameter %d", p.Idx+1)
	}
	return params[p.Idx], nil
}

func (p *ParamRef) String() string { return "?" }

// Binary applies a SQL binary operator with three-valued logic.
type Binary struct {
	Op   sql.BinOp
	L, R Scalar
}

// Eval implements Scalar.
func (b *Binary) Eval(row, params []types.Value) (types.Value, error) {
	switch b.Op {
	case sql.OpAnd, sql.OpOr:
		return b.evalLogic(row, params)
	}
	l, err := b.L.Eval(row, params)
	if err != nil {
		return types.Null(), err
	}
	r, err := b.R.Eval(row, params)
	if err != nil {
		return types.Null(), err
	}
	if l.IsNull() || r.IsNull() {
		return types.Null(), nil
	}
	switch b.Op {
	case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
		c, err := types.Compare(l, r)
		if err != nil {
			return types.Null(), err
		}
		var out bool
		switch b.Op {
		case sql.OpEq:
			out = c == 0
		case sql.OpNe:
			out = c != 0
		case sql.OpLt:
			out = c < 0
		case sql.OpLe:
			out = c <= 0
		case sql.OpGt:
			out = c > 0
		case sql.OpGe:
			out = c >= 0
		}
		return types.NewBool(out), nil
	case sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv:
		return evalArith(b.Op, l, r)
	}
	return types.Null(), fmt.Errorf("plan: bad binary op %v", b.Op)
}

func (b *Binary) evalLogic(row, params []types.Value) (types.Value, error) {
	l, err := b.L.Eval(row, params)
	if err != nil {
		return types.Null(), err
	}
	// Short-circuit where three-valued logic allows it.
	if !l.IsNull() && l.Kind == types.KindBool {
		if b.Op == sql.OpAnd && !l.Bool() {
			return types.NewBool(false), nil
		}
		if b.Op == sql.OpOr && l.Bool() {
			return types.NewBool(true), nil
		}
	}
	r, err := b.R.Eval(row, params)
	if err != nil {
		return types.Null(), err
	}
	lv, lok := boolOrNull(l)
	rv, rok := boolOrNull(r)
	if b.Op == sql.OpAnd {
		switch {
		case lok && !lv, rok && !rv:
			return types.NewBool(false), nil
		case !lok || !rok:
			return types.Null(), nil
		default:
			return types.NewBool(true), nil
		}
	}
	switch {
	case lok && lv, rok && rv:
		return types.NewBool(true), nil
	case !lok || !rok:
		return types.Null(), nil
	default:
		return types.NewBool(false), nil
	}
}

func boolOrNull(v types.Value) (val bool, known bool) {
	if v.IsNull() {
		return false, false
	}
	return v.Bool(), true
}

func evalArith(op sql.BinOp, l, r types.Value) (types.Value, error) {
	if l.Kind == types.KindInt && r.Kind == types.KindInt {
		switch op {
		case sql.OpAdd:
			return types.NewInt(l.Int + r.Int), nil
		case sql.OpSub:
			return types.NewInt(l.Int - r.Int), nil
		case sql.OpMul:
			return types.NewInt(l.Int * r.Int), nil
		case sql.OpDiv:
			if r.Int == 0 {
				return types.Null(), fmt.Errorf("plan: division by zero")
			}
			return types.NewInt(l.Int / r.Int), nil
		}
	}
	lf, err := types.Cast(l, types.KindFloat)
	if err != nil {
		return types.Null(), fmt.Errorf("plan: arithmetic on %s", l.Kind)
	}
	rf, err := types.Cast(r, types.KindFloat)
	if err != nil {
		return types.Null(), fmt.Errorf("plan: arithmetic on %s", r.Kind)
	}
	switch op {
	case sql.OpAdd:
		return types.NewFloat(lf.Float + rf.Float), nil
	case sql.OpSub:
		return types.NewFloat(lf.Float - rf.Float), nil
	case sql.OpMul:
		return types.NewFloat(lf.Float * rf.Float), nil
	case sql.OpDiv:
		if rf.Float == 0 {
			return types.Null(), fmt.Errorf("plan: division by zero")
		}
		return types.NewFloat(lf.Float / rf.Float), nil
	}
	return types.Null(), fmt.Errorf("plan: bad arith op %v", op)
}

func (b *Binary) String() string {
	return fmt.Sprintf("%s %s %s", b.L, b.Op, b.R)
}

// Not is logical negation.
type Not struct {
	X Scalar
}

// Eval implements Scalar.
func (n *Not) Eval(row, params []types.Value) (types.Value, error) {
	v, err := n.X.Eval(row, params)
	if err != nil || v.IsNull() {
		return types.Null(), err
	}
	return types.NewBool(!v.Bool()), nil
}

func (n *Not) String() string { return fmt.Sprintf("NOT (%s)", n.X) }

// Neg is arithmetic negation.
type Neg struct {
	X Scalar
}

// Eval implements Scalar.
func (n *Neg) Eval(row, params []types.Value) (types.Value, error) {
	v, err := n.X.Eval(row, params)
	if err != nil || v.IsNull() {
		return types.Null(), err
	}
	switch v.Kind {
	case types.KindInt:
		return types.NewInt(-v.Int), nil
	case types.KindFloat:
		return types.NewFloat(-v.Float), nil
	}
	return types.Null(), fmt.Errorf("plan: cannot negate %s", v.Kind)
}

func (n *Neg) String() string { return fmt.Sprintf("-(%s)", n.X) }

// IsNull tests for SQL NULL.
type IsNull struct {
	X   Scalar
	Not bool
}

// Eval implements Scalar.
func (e *IsNull) Eval(row, params []types.Value) (types.Value, error) {
	v, err := e.X.Eval(row, params)
	if err != nil {
		return types.Null(), err
	}
	return types.NewBool(v.IsNull() != e.Not), nil
}

func (e *IsNull) String() string {
	if e.Not {
		return e.X.String() + " IS NOT NULL"
	}
	return e.X.String() + " IS NULL"
}

// InList is `x IN (v1, v2, ...)`.
type InList struct {
	X    Scalar
	List []Scalar
	Not  bool
}

// Eval implements Scalar.
func (e *InList) Eval(row, params []types.Value) (types.Value, error) {
	x, err := e.X.Eval(row, params)
	if err != nil {
		return types.Null(), err
	}
	if x.IsNull() {
		return types.Null(), nil
	}
	sawNull := false
	for _, item := range e.List {
		v, err := item.Eval(row, params)
		if err != nil {
			return types.Null(), err
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		if c, err := types.Compare(x, v); err == nil && c == 0 {
			return types.NewBool(!e.Not), nil
		}
	}
	if sawNull {
		return types.Null(), nil
	}
	return types.NewBool(e.Not), nil
}

func (e *InList) String() string {
	items := make([]string, len(e.List))
	for i, it := range e.List {
		items[i] = it.String()
	}
	op := " IN ("
	if e.Not {
		op = " NOT IN ("
	}
	return e.X.String() + op + strings.Join(items, ", ") + ")"
}

// InSubquery is `x IN (SELECT ...)` for uncorrelated subqueries. The
// first Eval of an execution materializes the subquery into a set
// through the Materialize callback; the executor installs the callback
// and Resets the set when the execution ends.
type InSubquery struct {
	X    Scalar
	Plan Node // single-column subquery plan
	Not  bool

	// Materialize runs Plan and returns its rows; installed by the
	// executor on its own copy of the plan (exec.Build, exec.PrepareDML).
	Materialize func(Node, []types.Value) ([][]types.Value, error)
	set         map[uint64][]types.Value
	sawNull     bool
}

// Eval implements Scalar.
func (e *InSubquery) Eval(row, params []types.Value) (types.Value, error) {
	if e.set == nil {
		if e.Materialize == nil {
			return types.Null(), fmt.Errorf("plan: IN subquery not bound to an executor")
		}
		rows, err := e.Materialize(e.Plan, params)
		if err != nil {
			return types.Null(), err
		}
		e.set = make(map[uint64][]types.Value, len(rows))
		for _, r := range rows {
			if r[0].IsNull() {
				e.sawNull = true
				continue
			}
			h := types.Hash(r[0])
			e.set[h] = append(e.set[h], r[0])
		}
	}
	x, err := e.X.Eval(row, params)
	if err != nil {
		return types.Null(), err
	}
	if x.IsNull() {
		return types.Null(), nil
	}
	for _, v := range e.set[types.Hash(x)] {
		if types.Equal(x, v) {
			return types.NewBool(!e.Not), nil
		}
	}
	if e.sawNull {
		return types.Null(), nil
	}
	return types.NewBool(e.Not), nil
}

// Reset clears the materialized set (a fresh execution must re-run the
// subquery, e.g. with new parameters).
func (e *InSubquery) Reset() { e.set = nil; e.sawNull = false }

func (e *InSubquery) String() string {
	op := " IN (<subquery>)"
	if e.Not {
		op = " NOT IN (<subquery>)"
	}
	return e.X.String() + op
}

// Like is SQL LIKE with % and _ wildcards.
type Like struct {
	X, Pattern Scalar
	Not        bool
}

// Eval implements Scalar.
func (e *Like) Eval(row, params []types.Value) (types.Value, error) {
	x, err := e.X.Eval(row, params)
	if err != nil {
		return types.Null(), err
	}
	p, err := e.Pattern.Eval(row, params)
	if err != nil {
		return types.Null(), err
	}
	if x.IsNull() || p.IsNull() {
		return types.Null(), nil
	}
	m := likeMatch(x.String(), p.String())
	return types.NewBool(m != e.Not), nil
}

func (e *Like) String() string {
	op := " LIKE "
	if e.Not {
		op = " NOT LIKE "
	}
	return e.X.String() + op + e.Pattern.String()
}

// likeMatch implements %/_ globbing with an iterative two-pointer
// algorithm (greedy with backtracking on %).
func likeMatch(s, pat string) bool {
	var si, pi int
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			star, match = pi, si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// Cast converts its operand.
type Cast struct {
	X    Scalar
	Type types.ColumnType
}

// Eval implements Scalar.
func (c *Cast) Eval(row, params []types.Value) (types.Value, error) {
	v, err := c.X.Eval(row, params)
	if err != nil {
		return types.Null(), err
	}
	return types.Cast(v, c.Type.Kind)
}

func (c *Cast) String() string {
	return fmt.Sprintf("CAST(%s AS %s)", c.X, c.Type)
}

// IsTrue reports whether v is boolean TRUE (filters keep such rows).
func IsTrue(v types.Value) bool {
	return v.Kind == types.KindBool && v.Bool()
}
