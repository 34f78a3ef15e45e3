package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/types"
)

// ColInfo describes one output column of a plan node.
type ColInfo struct {
	Qual string // table alias (empty for computed columns)
	Name string
	Type types.ColumnType
	// Hidden marks a physical column slot name resolution must skip: a
	// dropped column whose slot survives so physical ordinals (and older
	// schema versions) stay valid. Hidden columns never match references
	// or star expansion, but keep their position in scan schemas.
	Hidden bool
}

// Node is a physical plan operator.
type Node interface {
	Schema() []ColInfo
	Children() []Node
	// Label returns the operator name used by EXPLAIN, loosely matching
	// the DB2 operator names shown in the paper's Figure 8.
	Label() string
	// Detail returns a one-line operator annotation for EXPLAIN.
	Detail() string
}

// AccessPath describes an index access: an equality prefix and an
// optional range on the following index column. Values are scalars so
// parameters stay late-bound.
type AccessPath struct {
	Index    *catalog.Index
	EqPrefix []Scalar
	// Optional range bound on the column after the equality prefix.
	Lo, Hi       Scalar
	LoInc, HiInc bool

	// AST forms kept during planning, resolved into the scalar fields
	// once the evaluation scope (constants vs outer row) is known.
	eqASTs       []sql.Expr
	loAST, hiAST sql.Expr
}

func (a *AccessPath) String() string {
	if a == nil || a.Index == nil {
		return "full scan"
	}
	parts := make([]string, 0, 4)
	for i, e := range a.EqPrefix {
		parts = append(parts, fmt.Sprintf("col%d=%s", a.Index.Cols[i], e))
	}
	if a.Lo != nil {
		op := ">"
		if a.LoInc {
			op = ">="
		}
		parts = append(parts, fmt.Sprintf("col%d%s%s", a.Index.Cols[len(a.EqPrefix)], op, a.Lo))
	}
	if a.Hi != nil {
		op := "<"
		if a.HiInc {
			op = "<="
		}
		parts = append(parts, fmt.Sprintf("col%d%s%s", a.Index.Cols[len(a.EqPrefix)], op, a.Hi))
	}
	return a.Index.Name + "(" + strings.Join(parts, ",") + ")"
}

// tableSchema builds the ColInfo list for a base table under an alias,
// from the newest schema. Dropped slots stay in place (ordinals are
// physical) but are Hidden from resolution.
func tableSchema(t *catalog.Table, alias string) []ColInfo {
	return colInfos(t.Columns, t.Name, alias)
}

func colInfos(cols []catalog.Column, tableName, alias string) []ColInfo {
	if alias == "" {
		alias = tableName
	}
	out := make([]ColInfo, len(cols))
	for i, c := range cols {
		out[i] = ColInfo{Qual: alias, Name: c.Name, Type: c.Type, Hidden: c.Dropped}
	}
	return out
}

// SeqScan reads every live row of a table and applies Filter.
type SeqScan struct {
	Table  *catalog.Table
	Alias  string
	Filter Scalar // may be nil
	// Cols is the scan's output schema, fixed at plan time so an as-of
	// plan keeps its snapshot's column prefix even if the live schema
	// grows afterwards; nil derives from the table's newest schema.
	Cols []ColInfo
	// Needed lists the table column ordinals the query actually reads
	// (projections, filters, join keys), sorted ascending; nil means all.
	// Set by PruneColumns, immutable afterwards.
	Needed []int
}

// Schema implements Node.
func (s *SeqScan) Schema() []ColInfo {
	if s.Cols != nil {
		return s.Cols
	}
	return tableSchema(s.Table, s.Alias)
}

// Children implements Node.
func (s *SeqScan) Children() []Node { return nil }

// Label implements Node.
func (s *SeqScan) Label() string { return "TBSCAN" }

// Detail implements Node.
func (s *SeqScan) Detail() string {
	d := s.Table.Name
	if s.Filter != nil {
		d += " filter=" + s.Filter.String()
	}
	d += neededDetail(s.Table, s.Needed)
	return d
}

// neededDetail renders a pruned column set for EXPLAIN, e.g.
// " cols=[Id,Beds]"; empty when the scan decodes every column.
func neededDetail(t *catalog.Table, needed []int) string {
	if needed == nil {
		return ""
	}
	names := make([]string, len(needed))
	for i, ord := range needed {
		names[i] = t.Columns[ord].Name
	}
	return " cols=[" + strings.Join(names, ",") + "]"
}

// IndexScan reads rows via an index access path, fetching heap rows and
// applying the residual filter.
type IndexScan struct {
	Table    *catalog.Table
	Alias    string
	Path     AccessPath
	Residual Scalar // may be nil
	// Cols fixes the scan's output schema at plan time (see SeqScan.Cols).
	Cols []ColInfo
	// Needed lists the table column ordinals the query actually reads;
	// nil means all. Set by PruneColumns, immutable afterwards.
	Needed []int
}

// Schema implements Node.
func (s *IndexScan) Schema() []ColInfo {
	if s.Cols != nil {
		return s.Cols
	}
	return tableSchema(s.Table, s.Alias)
}

// Children implements Node.
func (s *IndexScan) Children() []Node { return nil }

// Label implements Node.
func (s *IndexScan) Label() string { return "IXSCAN" }

// Detail implements Node.
func (s *IndexScan) Detail() string {
	d := s.Table.Name + " via " + s.Path.String()
	if s.Residual != nil {
		d += " residual=" + s.Residual.String()
	}
	d += neededDetail(s.Table, s.Needed)
	return d
}

// Filter drops rows whose condition is not TRUE.
type Filter struct {
	Child Node
	Cond  Scalar
}

// Schema implements Node.
func (f *Filter) Schema() []ColInfo { return f.Child.Schema() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Child} }

// Label implements Node.
func (f *Filter) Label() string { return "FILTER" }

// Detail implements Node.
func (f *Filter) Detail() string { return f.Cond.String() }

// Project computes output expressions.
type Project struct {
	Child Node
	Exprs []Scalar
	Cols  []ColInfo
}

// Schema implements Node.
func (p *Project) Schema() []ColInfo { return p.Cols }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// Label implements Node.
func (p *Project) Label() string { return "PROJECT" }

// Detail implements Node.
func (p *Project) Detail() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}

// HashJoin builds a hash table on the right input keyed by RightKeys
// and probes with LeftKeys. Residual (non-equi) conditions are applied
// to joined rows. Type LeftJoin NULL-extends unmatched left rows.
type HashJoin struct {
	Left, Right         Node
	LeftKeys, RightKeys []Scalar
	Residual            Scalar // may be nil
	Type                sql.JoinType
	cols                []ColInfo // Left's then Right's, fixed where the planner builds the join
}

// Schema implements Node.
func (j *HashJoin) Schema() []ColInfo { return slices.Clone(j.cols) }

// Children implements Node.
func (j *HashJoin) Children() []Node { return []Node{j.Left, j.Right} }

// Label implements Node.
func (j *HashJoin) Label() string { return "HSJOIN" }

// Detail implements Node.
func (j *HashJoin) Detail() string {
	parts := make([]string, len(j.LeftKeys))
	for i := range j.LeftKeys {
		parts[i] = fmt.Sprintf("%s=%s", j.LeftKeys[i], j.RightKeys[i])
	}
	d := strings.Join(parts, " AND ")
	if j.Type == sql.LeftJoin {
		d = "LEFT " + d
	}
	return d
}

// IndexNLJoin probes the inner table's index once per outer row. The
// access-path scalars are evaluated against the *outer* row, which is
// how join keys flow in. FETCH of the inner heap row happens per match,
// mirroring the IXSCAN+FETCH pairs in the paper's Figure 8.
type IndexNLJoin struct {
	Outer    Node
	Inner    *catalog.Table
	Alias    string
	Path     AccessPath // scalars see the outer row
	Residual Scalar     // sees the combined row
	Type     sql.JoinType
	// InnerCols fixes the inner table's schema at plan time (see
	// SeqScan.Cols).
	InnerCols []ColInfo
	// NeededInner lists the inner-table column ordinals the query reads
	// from fetched rows; nil means all. Set by PruneColumns.
	NeededInner []int
}

// Schema implements Node.
func (j *IndexNLJoin) Schema() []ColInfo {
	inner := j.InnerCols
	if inner == nil {
		inner = tableSchema(j.Inner, j.Alias)
	}
	return append(append([]ColInfo{}, j.Outer.Schema()...), inner...)
}

// Children implements Node.
func (j *IndexNLJoin) Children() []Node { return []Node{j.Outer} }

// Label implements Node.
func (j *IndexNLJoin) Label() string { return "NLJOIN" }

// Detail implements Node.
func (j *IndexNLJoin) Detail() string {
	d := fmt.Sprintf("inner=%s via %s", j.Inner.Name, j.Path.String())
	if j.Type == sql.LeftJoin {
		d = "LEFT " + d
	}
	if j.Residual != nil {
		d += " residual=" + j.Residual.String()
	}
	d += neededDetail(j.Inner, j.NeededInner)
	return d
}

// NLJoin is the fallback nested-loop join with an arbitrary condition.
// The right input is materialized once.
type NLJoin struct {
	Left, Right Node
	Cond        Scalar // sees the combined row; may be nil (cross join)
	Type        sql.JoinType
}

// Schema implements Node.
func (j *NLJoin) Schema() []ColInfo {
	return append(append([]ColInfo{}, j.Left.Schema()...), j.Right.Schema()...)
}

// Children implements Node.
func (j *NLJoin) Children() []Node { return []Node{j.Left, j.Right} }

// Label implements Node.
func (j *NLJoin) Label() string { return "NLJOIN*" }

// Detail implements Node.
func (j *NLJoin) Detail() string {
	if j.Cond == nil {
		return "cross"
	}
	d := j.Cond.String()
	if j.Type == sql.LeftJoin {
		d = "LEFT " + d
	}
	return d
}

// AggFunc enumerates the supported aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggCountStar
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggCountStar:
		return "COUNT(*)"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	}
	return "?AGG"
}

// AggSpec is one aggregate computation.
type AggSpec struct {
	Func AggFunc
	Arg  Scalar // nil for COUNT(*)
}

// HashAggregate groups by GroupBy expressions and computes Aggs.
// Output row layout: group values, then aggregate results.
type HashAggregate struct {
	Child   Node
	GroupBy []Scalar
	Aggs    []AggSpec
	Cols    []ColInfo

	// AST forms of the group keys and aggregate calls, kept so
	// post-aggregation expressions can be matched against them.
	groupASTs []sql.Expr
	aggASTs   []sql.Expr
}

// Schema implements Node.
func (a *HashAggregate) Schema() []ColInfo { return a.Cols }

// Children implements Node.
func (a *HashAggregate) Children() []Node { return []Node{a.Child} }

// Label implements Node.
func (a *HashAggregate) Label() string { return "GRPBY" }

// Detail implements Node.
func (a *HashAggregate) Detail() string {
	var parts []string
	for _, g := range a.GroupBy {
		parts = append(parts, g.String())
	}
	for _, ag := range a.Aggs {
		if ag.Arg != nil {
			parts = append(parts, fmt.Sprintf("%s(%s)", ag.Func, ag.Arg))
		} else {
			parts = append(parts, ag.Func.String())
		}
	}
	return strings.Join(parts, ", ")
}

// SortKey is one ordering key over the child's output columns.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort orders rows by Keys.
type Sort struct {
	Child Node
	Keys  []SortKey
}

// Schema implements Node.
func (s *Sort) Schema() []ColInfo { return s.Child.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Child} }

// Label implements Node.
func (s *Sort) Label() string { return "SORT" }

// Detail implements Node.
func (s *Sort) Detail() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		d := ""
		if k.Desc {
			d = " DESC"
		}
		parts[i] = fmt.Sprintf("#%d%s", k.Col, d)
	}
	return strings.Join(parts, ", ")
}

// Limit passes through at most N rows.
type Limit struct {
	Child Node
	N     int64
}

// Schema implements Node.
func (l *Limit) Schema() []ColInfo { return l.Child.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Child} }

// Label implements Node.
func (l *Limit) Label() string { return "LIMIT" }

// Detail implements Node.
func (l *Limit) Detail() string { return fmt.Sprintf("%d", l.N) }

// Distinct removes duplicate rows.
type Distinct struct {
	Child Node
}

// Schema implements Node.
func (d *Distinct) Schema() []ColInfo { return d.Child.Schema() }

// Children implements Node.
func (d *Distinct) Children() []Node { return []Node{d.Child} }

// Label implements Node.
func (d *Distinct) Label() string { return "UNIQUE" }

// Detail implements Node.
func (d *Distinct) Detail() string { return "" }

// Materialize wraps a fully-evaluated subquery whose rows were computed
// before the outer query ran — the naive optimizer's treatment of
// derived tables (it cannot unnest them, the paper's Test 1 finding for
// MySQL). The rows are produced by running Sub to completion at Open.
type Materialize struct {
	Sub  Node
	Cols []ColInfo
}

// Schema implements Node.
func (m *Materialize) Schema() []ColInfo { return m.Cols }

// Children implements Node.
func (m *Materialize) Children() []Node { return []Node{m.Sub} }

// Label implements Node.
func (m *Materialize) Label() string { return "TEMP" }

// Detail implements Node.
func (m *Materialize) Detail() string { return "materialized derived table" }

// --- DML plans ---------------------------------------------------------------

// InsertPlan inserts literal rows into a table.
type InsertPlan struct {
	Table *catalog.Table
	// ColMap maps each value position to a table column ordinal.
	ColMap []int
	Rows   [][]Scalar
}

// Schema implements Node.
func (p *InsertPlan) Schema() []ColInfo { return nil }

// Children implements Node.
func (p *InsertPlan) Children() []Node { return nil }

// Label implements Node.
func (p *InsertPlan) Label() string { return "INSERT" }

// Detail implements Node.
func (p *InsertPlan) Detail() string {
	return fmt.Sprintf("%s (%d rows)", p.Table.Name, len(p.Rows))
}

// UpdatePlan updates rows matched by the access path + filter.
type UpdatePlan struct {
	Table  *catalog.Table
	Alias  string
	Path   *AccessPath // nil = sequential scan
	Filter Scalar      // sees the table row; may be nil
	// SetCols/SetExprs are parallel; expressions see the pre-update row.
	SetCols  []int
	SetExprs []Scalar
}

// Schema implements Node.
func (p *UpdatePlan) Schema() []ColInfo { return nil }

// Children implements Node.
func (p *UpdatePlan) Children() []Node { return nil }

// Label implements Node.
func (p *UpdatePlan) Label() string { return "UPDATE" }

// Detail implements Node.
func (p *UpdatePlan) Detail() string { return p.Table.Name }

// DeletePlan deletes rows matched by the access path + filter.
type DeletePlan struct {
	Table  *catalog.Table
	Alias  string
	Path   *AccessPath
	Filter Scalar
}

// Schema implements Node.
func (p *DeletePlan) Schema() []ColInfo { return nil }

// Children implements Node.
func (p *DeletePlan) Children() []Node { return nil }

// Label implements Node.
func (p *DeletePlan) Label() string { return "DELETE" }

// Detail implements Node.
func (p *DeletePlan) Detail() string { return p.Table.Name }

// Explain renders the plan tree with indentation, one operator per
// line, the way the paper discusses DB2 plans in §6.2.
func Explain(n Node) string {
	var sb strings.Builder
	explainRec(&sb, n, 0)
	return sb.String()
}

func explainRec(sb *strings.Builder, n Node, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(n.Label())
	if d := n.Detail(); d != "" {
		sb.WriteString(" [" + d + "]")
	}
	sb.WriteString("\n")
	for _, c := range n.Children() {
		explainRec(sb, c, depth+1)
	}
}
