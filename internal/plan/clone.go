package plan

// This file supports plan sharing across concurrent executions (the
// engine's plan cache). A cached plan is immutable at execution time
// with two exceptions:
//
//   - InSubquery carries per-execution state (the materialized set and
//     the executor's Materialize callback), so any plan containing one
//     is cloned for whoever executes it: once per operator tree
//     (exec.Build), once per DML execution (HasExecState detects this);
//   - HashJoin caches its child schemas lazily inside Schema(), so
//     WarmSchemas is called once before a plan is published to make
//     every subsequent Schema() call a pure read.
//
// Catalog objects (tables, indexes) and resolved column metadata are
// shared by clones: they are owned by the catalog and guarded by the
// engine's table/DDL locks.

// CloneForExec deep-copies a plan tree so its per-execution state
// (IN-subquery materialization) is private to the copy. Stateless
// scalars are still copied — the cost is negligible next to executing
// the plan, and it keeps the invariant simple: nothing in the returned
// tree aliases the cached original except catalog-owned metadata.
func CloneForExec(n Node) Node { return cloneNode(n) }

// Subqueries lists every InSubquery scalar in the tree — the plan's
// per-execution state — including those inside DML plans and nested
// subquery plans.
func Subqueries(n Node) []*InSubquery {
	var out []*InSubquery
	walkPlanScalars(n, func(s Scalar) {
		if in, ok := s.(*InSubquery); ok {
			out = append(out, in)
		}
	})
	return out
}

// HasExecState reports whether the plan carries per-execution state
// (today: any InSubquery scalar). Plans without such state can be
// executed concurrently without cloning.
func HasExecState(n Node) bool { return len(Subqueries(n)) > 0 }

// WarmSchemas forces every lazily computed schema in the tree (HashJoin
// caches its child column lists on first Schema() call) so a shared
// plan is read-only afterwards.
func WarmSchemas(n Node) {
	if n == nil {
		return
	}
	n.Schema()
	for _, c := range n.Children() {
		WarmSchemas(c)
	}
	for _, s := range scalarsOf(n) {
		walkScalarTree(s, func(sc Scalar) {
			if in, ok := sc.(*InSubquery); ok {
				WarmSchemas(in.Plan)
			}
		})
	}
}

func cloneNode(n Node) Node {
	switch n := n.(type) {
	case nil:
		return nil
	case *SeqScan:
		c := *n
		c.Filter = cloneScalar(n.Filter)
		return &c
	case *IndexScan:
		c := *n
		c.Path = clonePath(n.Path)
		c.Residual = cloneScalar(n.Residual)
		return &c
	case *Values:
		c := *n
		c.Rows = cloneScalarRows(n.Rows)
		return &c
	case *Filter:
		return &Filter{Child: cloneNode(n.Child), Cond: cloneScalar(n.Cond)}
	case *Project:
		c := *n
		c.Child = cloneNode(n.Child)
		c.Exprs = cloneScalars(n.Exprs)
		return &c
	case *HashJoin:
		c := *n
		c.Left, c.Right = cloneNode(n.Left), cloneNode(n.Right)
		c.LeftKeys = cloneScalars(n.LeftKeys)
		c.RightKeys = cloneScalars(n.RightKeys)
		c.Residual = cloneScalar(n.Residual)
		return &c
	case *IndexNLJoin:
		c := *n
		c.Outer = cloneNode(n.Outer)
		c.Path = clonePath(n.Path)
		c.Residual = cloneScalar(n.Residual)
		return &c
	case *NLJoin:
		c := *n
		c.Left, c.Right = cloneNode(n.Left), cloneNode(n.Right)
		c.Cond = cloneScalar(n.Cond)
		return &c
	case *HashAggregate:
		c := *n
		c.Child = cloneNode(n.Child)
		c.GroupBy = cloneScalars(n.GroupBy)
		if n.Aggs != nil {
			c.Aggs = make([]AggSpec, len(n.Aggs))
			for i, a := range n.Aggs {
				c.Aggs[i] = AggSpec{Func: a.Func, Arg: cloneScalar(a.Arg)}
			}
		}
		return &c
	case *Sort:
		c := *n
		c.Child = cloneNode(n.Child)
		return &c
	case *Limit:
		c := *n
		c.Child = cloneNode(n.Child)
		return &c
	case *Distinct:
		return &Distinct{Child: cloneNode(n.Child)}
	case *Materialize:
		c := *n
		c.Sub = cloneNode(n.Sub)
		return &c
	case *renameNode:
		return &renameNode{child: cloneNode(n.child), cols: n.cols}
	case *InsertPlan:
		c := *n
		c.Rows = cloneScalarRows(n.Rows)
		return &c
	case *UpdatePlan:
		c := *n
		c.Path = clonePathPtr(n.Path)
		c.Filter = cloneScalar(n.Filter)
		c.SetExprs = cloneScalars(n.SetExprs)
		return &c
	case *DeletePlan:
		c := *n
		c.Path = clonePathPtr(n.Path)
		c.Filter = cloneScalar(n.Filter)
		return &c
	}
	// Unknown node types are assumed stateless and shared as-is.
	return n
}

func clonePath(p AccessPath) AccessPath {
	c := p
	c.EqPrefix = cloneScalars(p.EqPrefix)
	c.Lo = cloneScalar(p.Lo)
	c.Hi = cloneScalar(p.Hi)
	return c
}

func clonePathPtr(p *AccessPath) *AccessPath {
	if p == nil {
		return nil
	}
	c := clonePath(*p)
	return &c
}

func cloneScalars(ss []Scalar) []Scalar {
	if ss == nil {
		return nil
	}
	out := make([]Scalar, len(ss))
	for i, s := range ss {
		out[i] = cloneScalar(s)
	}
	return out
}

func cloneScalarRows(rows [][]Scalar) [][]Scalar {
	if rows == nil {
		return nil
	}
	out := make([][]Scalar, len(rows))
	for i, r := range rows {
		out[i] = cloneScalars(r)
	}
	return out
}

func cloneScalar(s Scalar) Scalar {
	switch s := s.(type) {
	case nil:
		return nil
	case *ColRef:
		c := *s
		return &c
	case *Const:
		c := *s
		return &c
	case *ParamRef:
		c := *s
		return &c
	case *Binary:
		return &Binary{Op: s.Op, L: cloneScalar(s.L), R: cloneScalar(s.R)}
	case *Not:
		return &Not{X: cloneScalar(s.X)}
	case *Neg:
		return &Neg{X: cloneScalar(s.X)}
	case *IsNull:
		return &IsNull{X: cloneScalar(s.X), Not: s.Not}
	case *InList:
		return &InList{X: cloneScalar(s.X), List: cloneScalars(s.List), Not: s.Not}
	case *InSubquery:
		// Per-execution state (set, sawNull, Materialize) starts fresh;
		// the executor re-binds Materialize at Build time.
		return &InSubquery{X: cloneScalar(s.X), Plan: cloneNode(s.Plan), Not: s.Not}
	case *Like:
		return &Like{X: cloneScalar(s.X), Pattern: cloneScalar(s.Pattern), Not: s.Not}
	case *Cast:
		return &Cast{X: cloneScalar(s.X), Type: s.Type}
	}
	// Unknown scalar types are assumed stateless and shared as-is.
	return s
}

// scalarsOf lists the scalar expressions a node evaluates (mirrors the
// executor's traversal; kept here so plan-level walks need not import
// exec).
func scalarsOf(n Node) []Scalar {
	var out []Scalar
	add := func(ss ...Scalar) {
		for _, s := range ss {
			if s != nil {
				out = append(out, s)
			}
		}
	}
	switch n := n.(type) {
	case *SeqScan:
		add(n.Filter)
	case *IndexScan:
		add(n.Residual)
		add(n.Path.EqPrefix...)
		add(n.Path.Lo, n.Path.Hi)
	case *Filter:
		add(n.Cond)
	case *Project:
		add(n.Exprs...)
	case *HashJoin:
		add(n.LeftKeys...)
		add(n.RightKeys...)
		add(n.Residual)
	case *IndexNLJoin:
		add(n.Residual)
		add(n.Path.EqPrefix...)
		add(n.Path.Lo, n.Path.Hi)
	case *NLJoin:
		add(n.Cond)
	case *HashAggregate:
		add(n.GroupBy...)
		for _, a := range n.Aggs {
			add(a.Arg)
		}
	case *Values:
		for _, row := range n.Rows {
			add(row...)
		}
	case *UpdatePlan:
		add(n.Filter)
		add(n.SetExprs...)
		if n.Path != nil {
			add(n.Path.EqPrefix...)
			add(n.Path.Lo, n.Path.Hi)
		}
	case *DeletePlan:
		add(n.Filter)
		if n.Path != nil {
			add(n.Path.EqPrefix...)
			add(n.Path.Lo, n.Path.Hi)
		}
	case *InsertPlan:
		for _, row := range n.Rows {
			add(row...)
		}
	}
	return out
}

// walkPlanScalars visits every scalar in the tree, descending into
// children and into IN-subquery plans.
func walkPlanScalars(n Node, fn func(Scalar)) {
	if n == nil {
		return
	}
	for _, s := range scalarsOf(n) {
		walkScalarTree(s, func(sc Scalar) {
			fn(sc)
			if in, ok := sc.(*InSubquery); ok {
				walkPlanScalars(in.Plan, fn)
			}
		})
	}
	for _, c := range n.Children() {
		walkPlanScalars(c, fn)
	}
}

// walkScalarTree visits s and its operands.
func walkScalarTree(s Scalar, fn func(Scalar)) {
	if s == nil {
		return
	}
	fn(s)
	switch s := s.(type) {
	case *Binary:
		walkScalarTree(s.L, fn)
		walkScalarTree(s.R, fn)
	case *Not:
		walkScalarTree(s.X, fn)
	case *Neg:
		walkScalarTree(s.X, fn)
	case *IsNull:
		walkScalarTree(s.X, fn)
	case *InList:
		walkScalarTree(s.X, fn)
		for _, i := range s.List {
			walkScalarTree(i, fn)
		}
	case *InSubquery:
		walkScalarTree(s.X, fn)
	case *Like:
		walkScalarTree(s.X, fn)
		walkScalarTree(s.Pattern, fn)
	case *Cast:
		walkScalarTree(s.X, fn)
	}
}
