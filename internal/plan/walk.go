package plan

import "repro/internal/catalog"

// Walks over a plan's scalars, subquery plans included: column pruning,
// subquery numbering and the tables a plan touches use them.

// Tables reports the tables a plan touches: the one a DML plan writes
// (nil for a query), and those it reads — every scan, index join's inner
// table and IN-subquery plan, nested ones included, once per place. A
// DML plan's target is its write, not one of its reads.
func Tables(n Node) (write *catalog.Table, reads []*catalog.Table) {
	var visit func(Node)
	visit = func(n Node) {
		switch n := n.(type) {
		case *SeqScan:
			reads = append(reads, n.Table)
		case *IndexScan:
			reads = append(reads, n.Table)
		case *IndexNLJoin:
			reads = append(reads, n.Inner)
		case *InsertPlan:
			write = n.Table
		case *UpdatePlan:
			write = n.Table
		case *DeletePlan:
			write = n.Table
		}
		for _, c := range n.Children() {
			visit(c)
		}
	}
	visit(n)
	walkPlanScalars(n, func(s Scalar) {
		if in, ok := s.(*InSubquery); ok {
			visit(in.Plan)
		}
	})
	return write, reads
}

// numberSubqueries gives every IN subquery of a plan, nested ones
// included, the slot under which an execution keeps its set.
func numberSubqueries(n Node) {
	slot := 0
	walkPlanScalars(n, func(s Scalar) {
		if in, ok := s.(*InSubquery); ok {
			in.Slot = slot
			slot++
		}
	})
}

// scalarsOf lists the scalar expressions a node evaluates.
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
