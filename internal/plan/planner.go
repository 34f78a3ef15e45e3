package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sql"
)

// Mode selects the optimizer capability level.
type Mode uint8

const (
	// Sophisticated models DB2 in the paper's Test 1: it flattens
	// derived tables, reorders comma joins by selectivity, and picks
	// the best matching index per table.
	Sophisticated Mode = iota
	// Naive models MySQL in the paper's Test 1: derived tables are
	// materialized before outer predicates apply, join order follows
	// the FROM clause, and index choice takes the first usable match
	// in textual predicate order.
	Naive
)

// Planner compiles parsed statements into physical plans.
type Planner struct {
	Cat  *catalog.Catalog
	Mode Mode
	// AsOf, when AsOfSet, plans under the schema version each table had
	// at that commit timestamp instead of the newest one: a snapshot
	// transaction that began before an online ALTER resolves its column
	// prefix through the table's schema chain. Because the physical
	// column space only grows and slots never move, the resulting plan
	// addresses current rows with plain physical ordinals. (A separate
	// flag because 0 is a legitimate snapshot timestamp: the publish
	// clock only advances when versioned commits or ALTERs stamp it.)
	AsOf    uint64
	AsOfSet bool
}

// physCols returns the physical column slots visible to the planner's
// schema epoch (the newest schema when no as-of snapshot is set). Both
// come from the table's schema chain, which locks itself: the engine
// plans before it latches the tables the plan names.
func (p *Planner) physCols(t *catalog.Table) []catalog.Column {
	if p.AsOfSet {
		return t.Schemas.At(p.AsOf).Cols
	}
	return t.Schemas.Latest().Cols
}

// colIndex resolves a column name within the planner's schema epoch;
// dropped slots never match.
func (p *Planner) colIndex(t *catalog.Table, name string) int {
	for i, c := range p.physCols(t) {
		if !c.Dropped && strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// tableSchema builds a table's ColInfo list under the planner's schema
// epoch.
func (p *Planner) tableSchema(t *catalog.Table, alias string) []ColInfo {
	return colInfos(p.physCols(t), t.Name, alias)
}

// New creates a planner over cat.
func New(cat *catalog.Catalog, mode Mode) *Planner {
	return &Planner{Cat: cat, Mode: mode}
}

// PlanStatement plans SELECT, INSERT, UPDATE, and DELETE. DDL is
// executed directly by the engine, not planned. st is only read, and
// the plan returned is never written again: it may be shared by any
// number of concurrent executions.
func (p *Planner) PlanStatement(st sql.Statement) (Node, error) {
	var n Node
	var err error
	switch st := st.(type) {
	case *sql.SelectStmt:
		n, err = p.planSelect(st)
	case *sql.InsertStmt:
		n, err = p.planInsert(st)
	case *sql.UpdateStmt:
		n, err = p.planUpdate(st)
	case *sql.DeleteStmt:
		n, err = p.planDelete(st)
	default:
		return nil, fmt.Errorf("plan: statement %T is not plannable", st)
	}
	if err != nil {
		return nil, err
	}
	numberSubqueries(n)
	return n, nil
}

// --- FROM planning -----------------------------------------------------------

// source is one FROM entry during join planning.
type source struct {
	table *catalog.Table // non-nil for base tables
	alias string
	node  Node // pre-planned node for subqueries / join trees
	cols  []ColInfo
	local []sql.Expr // single-source conjuncts from WHERE
	// join holds the AST of an explicit join tree so buildSource can
	// replan it with the WHERE conjuncts pushed into its leaves.
	join *sql.JoinTable
}

func (p *Planner) makeSource(tr sql.TableRef) (*source, error) {
	switch tr := tr.(type) {
	case *sql.NamedTable:
		t, err := p.Cat.Table(tr.Name)
		if err != nil {
			return nil, err
		}
		alias := tr.Alias
		if alias == "" {
			alias = tr.Name
		}
		return &source{table: t, alias: alias, cols: p.tableSchema(t, alias)}, nil
	case *sql.SubqueryTable:
		sub, err := p.planSelect(tr.Select)
		if err != nil {
			return nil, err
		}
		cols := make([]ColInfo, len(sub.Schema()))
		for i, c := range sub.Schema() {
			cols[i] = ColInfo{Qual: tr.Alias, Name: c.Name, Type: c.Type}
		}
		var node Node = &renameNode{child: sub, cols: cols}
		if p.Mode == Naive {
			node = &Materialize{Sub: node, Cols: cols}
		}
		return &source{alias: tr.Alias, node: node, cols: cols}, nil
	case *sql.JoinTable:
		// Plan once to learn the schema; buildSource replans with the
		// WHERE conjuncts pushed into the tree's leaves.
		n, err := p.planJoinTree(tr, nil)
		if err != nil {
			return nil, err
		}
		return &source{node: n, cols: n.Schema(), join: tr}, nil
	}
	return nil, fmt.Errorf("plan: unsupported FROM entry %T", tr)
}

// renameNode re-qualifies a child's schema under a derived-table alias.
type renameNode struct {
	child Node
	cols  []ColInfo
}

// Schema implements Node.
func (r *renameNode) Schema() []ColInfo { return r.cols }

// Children implements Node.
func (r *renameNode) Children() []Node { return []Node{r.child} }

// Label implements Node.
func (r *renameNode) Label() string { return "SUBQ" }

// Detail implements Node.
func (r *renameNode) Detail() string {
	if len(r.cols) > 0 {
		return r.cols[0].Qual
	}
	return ""
}

// Child exposes the wrapped node for the executor.
func (r *renameNode) Child() Node { return r.child }

// sourceProvides reports whether the source exposes a column name.
func sourceProvides(s *source, name string) bool {
	for _, c := range s.cols {
		if strings.EqualFold(c.Name, name) {
			return true
		}
	}
	return false
}

// sourcesOf returns the indexes of the sources a conjunct references.
// Unqualified names are attributed to the unique providing source.
func sourcesOf(conj sql.Expr, srcs []*source) (map[int]bool, error) {
	refs := columnRefs(conj)
	out := map[int]bool{}
	for _, r := range refs {
		matched := -1
		for i, s := range srcs {
			if r.Table != "" {
				if matchAlias(s, r.Table) && sourceProvides(s, r.Name) {
					if matched >= 0 {
						return nil, fmt.Errorf("plan: ambiguous reference %s", r)
					}
					matched = i
				}
			} else if sourceProvides(s, r.Name) {
				if matched >= 0 {
					return nil, fmt.Errorf("plan: ambiguous column %s", r.Name)
				}
				matched = i
			}
		}
		if matched < 0 {
			return nil, fmt.Errorf("plan: unknown column %s", r)
		}
		out[matched] = true
	}
	return out, nil
}

// matchAlias reports whether qual names this source. Join-tree sources
// answer for any alias inside the tree.
func matchAlias(s *source, qual string) bool {
	if s.alias != "" {
		return strings.EqualFold(s.alias, qual)
	}
	for _, c := range s.cols {
		if strings.EqualFold(c.Qual, qual) {
			return true
		}
	}
	return false
}

type joinConjunct struct {
	expr sql.Expr
	srcs map[int]bool
	used bool
}

// planFrom builds the join tree for a SELECT, pushing single-table
// predicates into scans and choosing join order and algorithms.
func (p *Planner) planFrom(s *sql.SelectStmt) (Node, error) {
	if len(s.From) == 0 {
		return &Values{Rows: [][]Scalar{{}}}, nil
	}
	srcs := make([]*source, len(s.From))
	for i, tr := range s.From {
		src, err := p.makeSource(tr)
		if err != nil {
			return nil, err
		}
		srcs[i] = src
	}

	var joinConjs []*joinConjunct
	var constConjs []sql.Expr
	for _, c := range sql.SplitConjuncts(s.Where, nil) {
		set, err := sourcesOf(c, srcs)
		if err != nil {
			return nil, err
		}
		switch len(set) {
		case 0:
			constConjs = append(constConjs, c)
		case 1:
			for i := range set {
				srcs[i].local = append(srcs[i].local, c)
			}
		default:
			joinConjs = append(joinConjs, &joinConjunct{expr: c, srcs: set})
		}
	}

	order := p.joinOrder(srcs, joinConjs)

	cur, err := p.buildSource(srcs[order[0]])
	if err != nil {
		return nil, err
	}
	placed := map[int]bool{order[0]: true}
	for _, next := range order[1:] {
		// Conjuncts now fully covered by placed ∪ {next}.
		var conds []sql.Expr
		for _, jc := range joinConjs {
			if jc.used || !jc.srcs[next] {
				continue
			}
			covered := true
			for si := range jc.srcs {
				if si != next && !placed[si] {
					covered = false
					break
				}
			}
			if covered {
				conds = append(conds, jc.expr)
				jc.used = true
			}
		}
		cur, err = p.joinTo(cur, srcs[next], conds, sql.InnerJoin)
		if err != nil {
			return nil, err
		}
		placed[next] = true
	}

	// Leftover conjuncts (shouldn't happen, but be safe) and constant
	// conjuncts become filters on top.
	var leftover []sql.Expr
	for _, jc := range joinConjs {
		if !jc.used {
			leftover = append(leftover, jc.expr)
		}
	}
	leftover = append(leftover, constConjs...)
	if len(leftover) > 0 {
		sc := &scope{cols: cur.Schema()}
		cond, err := p.resolveExprList(leftover, sc)
		if err != nil {
			return nil, err
		}
		cur = &Filter{Child: cur, Cond: cond}
	}
	return cur, nil
}

func (p *Planner) resolveExprList(conjs []sql.Expr, sc *scope) (Scalar, error) {
	out := make([]Scalar, 0, len(conjs))
	for _, c := range conjs {
		s, err := p.resolveExpr(c, sc)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return andScalars(out), nil
}

// joinOrder decides the order sources are joined in. Naive keeps FROM
// order; Sophisticated starts from the most selective source and then
// follows join edges greedily.
func (p *Planner) joinOrder(srcs []*source, joinConjs []*joinConjunct) []int {
	n := len(srcs)
	order := make([]int, 0, n)
	if p.Mode == Naive || n == 1 {
		for i := 0; i < n; i++ {
			order = append(order, i)
		}
		return order
	}
	score := make([]int, n)
	for i, s := range srcs {
		score[i] = p.scoreSource(s)
	}
	best := 0
	for i := 1; i < n; i++ {
		if score[i] > score[best] {
			best = i
		}
	}
	placed := map[int]bool{best: true}
	order = append(order, best)
	for len(order) < n {
		cand, candScore := -1, -1<<30
		for i := 0; i < n; i++ {
			if placed[i] {
				continue
			}
			sc := score[i]
			if connected(i, placed, joinConjs) {
				sc += 1 << 20
			}
			if sc > candScore {
				cand, candScore = i, sc
			}
		}
		placed[cand] = true
		order = append(order, cand)
	}
	return order
}

func connected(i int, placed map[int]bool, joinConjs []*joinConjunct) bool {
	for _, jc := range joinConjs {
		if !jc.srcs[i] {
			continue
		}
		for si := range jc.srcs {
			if placed[si] {
				return true
			}
		}
	}
	return false
}

// scoreSource estimates how selective a source's local predicates are.
func (p *Planner) scoreSource(s *source) int {
	sc := len(s.local)
	if s.table == nil {
		return sc
	}
	cands := p.indexCandidates(s, s.local, nil)
	path, _ := p.chooseIndexPath(s.table, cands)
	if path != nil {
		sc += len(path.eqASTs) * 100
		if path.loAST != nil || path.hiAST != nil {
			sc += 10
		}
		if path.Index.Unique && len(path.eqASTs) == len(path.Index.Cols) {
			sc += 1000
		}
	}
	return sc
}

// candidate is a conjunct usable for index access on a table.
type candidate struct {
	colOrd int
	op     sql.BinOp
	val    sql.Expr // resolvable against outerScope (or constants)
	conj   sql.Expr // original conjunct, for consumption tracking
}

// indexCandidates extracts `tbl.col <op> expr` conjuncts where expr
// does not reference the table itself (so it is computable before the
// scan). outerScope may be nil, meaning only constants qualify.
func (p *Planner) indexCandidates(s *source, conjs []sql.Expr, outerScope *scope) []candidate {
	var out []candidate
	for _, c := range conjs {
		b, ok := c.(*sql.BinaryExpr)
		if !ok {
			continue
		}
		switch b.Op {
		case sql.OpEq, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
		default:
			continue
		}
		try := func(colSide, valSide sql.Expr, op sql.BinOp) bool {
			cr, ok := colSide.(*sql.ColumnRef)
			if !ok {
				return false
			}
			if cr.Table != "" && !strings.EqualFold(cr.Table, s.alias) {
				return false
			}
			ord := p.colIndex(s.table, cr.Name)
			if ord < 0 {
				return false
			}
			if !p.resolvableOutside(valSide, s, outerScope) {
				return false
			}
			out = append(out, candidate{colOrd: ord, op: op, val: valSide, conj: c})
			return true
		}
		if try(b.L, b.R, b.Op) {
			continue
		}
		try(b.R, b.L, flipOp(b.Op))
	}
	return out
}

func flipOp(op sql.BinOp) sql.BinOp {
	switch op {
	case sql.OpLt:
		return sql.OpGt
	case sql.OpLe:
		return sql.OpGe
	case sql.OpGt:
		return sql.OpLt
	case sql.OpGe:
		return sql.OpLe
	}
	return op
}

// resolvableOutside reports whether e can be evaluated without the
// source s: it references no columns (constant) or only columns the
// outer scope provides.
func (p *Planner) resolvableOutside(e sql.Expr, s *source, outerScope *scope) bool {
	refs := columnRefs(e)
	if len(refs) == 0 {
		if in, ok := e.(*sql.InExpr); ok && in.Subquery != nil {
			return false
		}
		return true
	}
	if outerScope == nil {
		return false
	}
	for _, r := range refs {
		if strings.EqualFold(r.Table, s.alias) {
			return false
		}
		if !outerScope.has(r.Table, r.Name) {
			return false
		}
	}
	return true
}

// chooseIndexPath picks an access path from candidates. Sophisticated
// mode maximizes the equality prefix (unique indexes win ties); Naive
// mode returns the first index, in creation order, whose leading column
// matches the textually-first candidate — the paper's Test 1 sensitivity
// to predicate order.
func (p *Planner) chooseIndexPath(t *catalog.Table, cands []candidate) (*AccessPath, []sql.Expr) {
	if len(cands) == 0 || len(t.Indexes) == 0 {
		return nil, nil
	}
	if p.Mode == Naive {
		first := cands[0]
		for _, ix := range t.Indexes {
			if ix.Cols[0] == first.colOrd {
				return buildPath(ix, cands)
			}
		}
		// Fall back: any index led by any candidate, textual order.
		for _, c := range cands {
			for _, ix := range t.Indexes {
				if ix.Cols[0] == c.colOrd {
					return buildPath(ix, cands)
				}
			}
		}
		return nil, nil
	}
	var bestPath *AccessPath
	var bestConsumed []sql.Expr
	bestScore := 0
	for _, ix := range t.Indexes {
		path, consumed := buildPath(ix, cands)
		if path == nil {
			continue
		}
		score := len(path.eqASTs) * 100
		if path.loAST != nil || path.hiAST != nil {
			score += 10
		}
		if ix.Unique && len(path.eqASTs) == len(ix.Cols) {
			score += 1000
		}
		if score > bestScore {
			bestScore, bestPath, bestConsumed = score, path, consumed
		}
	}
	return bestPath, bestConsumed
}

// buildPath matches candidates against one index: equality conjuncts
// cover a leading prefix; the next column may take range bounds.
func buildPath(ix *catalog.Index, cands []candidate) (*AccessPath, []sql.Expr) {
	path := &AccessPath{Index: ix}
	var consumed []sql.Expr
	// astVals holds the AST value exprs in prefix order; caller resolves.
	pos := 0
	for pos < len(ix.Cols) {
		col := ix.Cols[pos]
		found := false
		for _, c := range cands {
			if c.colOrd == col && c.op == sql.OpEq {
				path.eqASTs = append(path.eqASTs, c.val)
				consumed = append(consumed, c.conj)
				found = true
				break
			}
		}
		if !found {
			break
		}
		pos++
	}
	if pos < len(ix.Cols) {
		col := ix.Cols[pos]
		for _, c := range cands {
			if c.colOrd != col {
				continue
			}
			switch c.op {
			case sql.OpGt:
				if path.loAST == nil {
					path.loAST, path.LoInc = c.val, false
					consumed = append(consumed, c.conj)
				}
			case sql.OpGe:
				if path.loAST == nil {
					path.loAST, path.LoInc = c.val, true
					consumed = append(consumed, c.conj)
				}
			case sql.OpLt:
				if path.hiAST == nil {
					path.hiAST, path.HiInc = c.val, false
					consumed = append(consumed, c.conj)
				}
			case sql.OpLe:
				if path.hiAST == nil {
					path.hiAST, path.HiInc = c.val, true
					consumed = append(consumed, c.conj)
				}
			}
		}
	}
	if len(path.eqASTs) == 0 && path.loAST == nil && path.hiAST == nil {
		return nil, nil
	}
	return path, consumed
}

// resolvePath resolves the path's AST value expressions against the
// scope the access-path scalars will be evaluated in.
func (p *Planner) resolvePath(path *AccessPath, sc *scope) error {
	for _, e := range path.eqASTs {
		s, err := p.resolveExpr(e, sc)
		if err != nil {
			return err
		}
		path.EqPrefix = append(path.EqPrefix, s)
	}
	var err error
	if path.loAST != nil {
		if path.Lo, err = p.resolveExpr(path.loAST, sc); err != nil {
			return err
		}
	}
	if path.hiAST != nil {
		if path.Hi, err = p.resolveExpr(path.hiAST, sc); err != nil {
			return err
		}
	}
	return nil
}

// buildSource plans a standalone source with its local predicates.
func (p *Planner) buildSource(s *source) (Node, error) {
	if s.join != nil {
		return p.planJoinTree(s.join, s.local)
	}
	if s.node != nil {
		if len(s.local) == 0 {
			return s.node, nil
		}
		sc := &scope{cols: s.cols}
		cond, err := p.resolveExprList(s.local, sc)
		if err != nil {
			return nil, err
		}
		return &Filter{Child: s.node, Cond: cond}, nil
	}
	sc := &scope{cols: s.cols}
	cands := p.indexCandidates(s, s.local, nil)
	path, consumed := p.chooseIndexPath(s.table, cands)
	if path == nil {
		cond, err := p.resolveExprList(s.local, sc)
		if err != nil {
			return nil, err
		}
		return &SeqScan{Table: s.table, Alias: s.alias, Filter: cond, Cols: s.cols}, nil
	}
	// Constants resolve against the empty scope.
	if err := p.resolvePath(path, &scope{}); err != nil {
		return nil, err
	}
	residual, err := p.resolveExprList(subtract(s.local, consumed), sc)
	if err != nil {
		return nil, err
	}
	return &IndexScan{Table: s.table, Alias: s.alias, Path: *path, Residual: residual, Cols: s.cols}, nil
}

func subtract(all, consumed []sql.Expr) []sql.Expr {
	var out []sql.Expr
	for _, c := range all {
		used := false
		for _, u := range consumed {
			if c == u {
				used = true
				break
			}
		}
		if !used {
			out = append(out, c)
		}
	}
	return out
}

// joinTo joins source s into the running tree cur using conds (the
// conjuncts linking them) plus s's own local predicates.
func (p *Planner) joinTo(cur Node, s *source, conds []sql.Expr, jt sql.JoinType) (Node, error) {
	outerScope := &scope{cols: cur.Schema()}
	combined := &scope{cols: append(append([]ColInfo{}, cur.Schema()...), s.cols...)}

	// Try an index nested-loop join: inner table keys bound by the
	// outer row (or constants).
	if s.table != nil {
		all := append(append([]sql.Expr{}, conds...), s.local...)
		cands := p.indexCandidates(s, all, outerScope)
		path, consumed := p.chooseIndexPath(s.table, cands)
		if path != nil {
			if err := p.resolvePath(path, outerScope); err != nil {
				return nil, err
			}
			residual, err := p.resolveExprList(subtract(all, consumed), combined)
			if err != nil {
				return nil, err
			}
			return &IndexNLJoin{Outer: cur, Inner: s.table, Alias: s.alias,
				Path: *path, Residual: residual, Type: jt, InnerCols: s.cols}, nil
		}
	}

	// Hash join on equi-conjuncts outer-col = inner-col.
	rightNode, err := p.buildRightForJoin(s, jt)
	if err != nil {
		return nil, err
	}
	rightScope := &scope{cols: s.cols}
	var leftKeys, rightKeys []Scalar
	var residualConjs []sql.Expr
	for _, c := range conds {
		b, ok := c.(*sql.BinaryExpr)
		if !ok || b.Op != sql.OpEq {
			residualConjs = append(residualConjs, c)
			continue
		}
		lk, lErr := p.resolveExpr(b.L, outerScope)
		rk, rErr := p.resolveExpr(b.R, rightScope)
		if lErr == nil && rErr == nil {
			leftKeys = append(leftKeys, lk)
			rightKeys = append(rightKeys, rk)
			continue
		}
		lk, lErr = p.resolveExpr(b.R, outerScope)
		rk, rErr = p.resolveExpr(b.L, rightScope)
		if lErr == nil && rErr == nil {
			leftKeys = append(leftKeys, lk)
			rightKeys = append(rightKeys, rk)
			continue
		}
		residualConjs = append(residualConjs, c)
	}
	// Left-join locals (from ON) must stay in the join; inner-join
	// locals were already pushed into the right scan by buildRightForJoin.
	if jt == sql.LeftJoin {
		residualConjs = append(residualConjs, s.local...)
	}
	residual, err := p.resolveExprList(residualConjs, combined)
	if err != nil {
		return nil, err
	}
	if len(leftKeys) > 0 {
		return &HashJoin{Left: cur, Right: rightNode,
			LeftKeys: leftKeys, RightKeys: rightKeys, Residual: residual, Type: jt,
			cols: slices.Concat(cur.Schema(), rightNode.Schema())}, nil
	}
	return &NLJoin{Left: cur, Right: rightNode, Cond: residual, Type: jt}, nil
}

// buildRightForJoin plans the inner side of a hash/NL join. For inner
// joins local predicates push into the scan; for left joins they remain
// in the join residual (ON semantics).
func (p *Planner) buildRightForJoin(s *source, jt sql.JoinType) (Node, error) {
	if jt == sql.LeftJoin {
		saved := s.local
		s.local = nil
		n, err := p.buildSource(s)
		s.local = saved
		return n, err
	}
	return p.buildSource(s)
}

// planJoinTree plans an explicit JOIN ... ON tree in syntax order. The
// ext conjuncts come from the enclosing WHERE clause; those that only
// reference one subtree push down into it (inner sides only — pushing
// below the NULL-extending side of a LEFT JOIN would change results).
func (p *Planner) planJoinTree(jt *sql.JoinTable, ext []sql.Expr) (Node, error) {
	var extLeft, extRight, rest []sql.Expr
	for _, c := range ext {
		switch {
		case p.refsWithin(c, jt.Left):
			extLeft = append(extLeft, c)
		case p.refsWithin(c, jt.Right) && jt.Type == sql.InnerJoin:
			extRight = append(extRight, c)
		default:
			rest = append(rest, c)
		}
	}
	left, err := p.planRefWithLocals(jt.Left, extLeft)
	if err != nil {
		return nil, err
	}
	rightSrc, err := p.makeSource(jt.Right)
	if err != nil {
		return nil, err
	}
	rightSrc.local = append(rightSrc.local, extRight...)
	node, err := p.joinTo(left, rightSrc, sql.SplitConjuncts(jt.On, nil), jt.Type)
	if err != nil {
		return nil, err
	}
	if len(rest) > 0 {
		sc := &scope{cols: node.Schema()}
		cond, err := p.resolveExprList(rest, sc)
		if err != nil {
			return nil, err
		}
		node = &Filter{Child: node, Cond: cond}
	}
	return node, nil
}

// planRefWithLocals plans a table reference with pushed-down conjuncts.
func (p *Planner) planRefWithLocals(tr sql.TableRef, locals []sql.Expr) (Node, error) {
	if jt, ok := tr.(*sql.JoinTable); ok {
		return p.planJoinTree(jt, locals)
	}
	s, err := p.makeSource(tr)
	if err != nil {
		return nil, err
	}
	s.local = append(s.local, locals...)
	return p.buildSource(s)
}

// provides reports whether the catalog's table has the column.
func (p *Planner) provides(table, column string) bool {
	t, err := p.Cat.Table(table)
	return err == nil && p.colIndex(t, column) >= 0
}

// refsWithin reports whether every column reference of the conjunct can
// be supplied by the given table reference.
func (p *Planner) refsWithin(conj sql.Expr, tr sql.TableRef) bool {
	refs := columnRefs(conj)
	if len(refs) == 0 {
		return false
	}
	aliases := map[string]bool{}
	for _, a := range sql.RefAliases(tr) {
		aliases[strings.ToLower(a)] = true
	}
	for _, r := range refs {
		if r.Table != "" {
			if !aliases[strings.ToLower(r.Table)] {
				return false
			}
			continue
		}
		if !sql.RefProvides(tr, r.Name, p.provides) {
			return false
		}
	}
	return true
}
