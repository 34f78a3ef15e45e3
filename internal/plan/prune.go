package plan

// Column pruning: a top-down pass that computes, for every base-table
// access in a plan, the set of physical columns the query actually
// touches — select-list expressions, filters and residuals, join keys,
// sort keys, group/aggregate arguments. The scans record that set
// (SeqScan.Needed, IndexScan.Needed, IndexNLJoin.NeededInner) and the
// executor decodes only those ordinals via types.DecodeRowPartial; all
// other positions come back as NULL, which is safe because nothing
// downstream reads them. This is the paper's §6.2 cost lever: queries
// over wide generic/chunk tables usually read a handful of logical
// columns, so partial decode skips most of a physical row's bytes —
// and, for strings, the per-value allocation.
//
// The pass is deterministic and overwrites the fields it owns, so
// re-running it (outer queries re-prune subquery plans already pruned
// when they were built) is idempotent. Project and HashAggregate
// conservatively treat every expression they hold as live rather than
// consulting the parent's need set: their output columns are cheap to
// compute once inputs are decoded, and it keeps evaluation semantics
// (e.g. errors raised by dead expressions) identical to the unpruned
// plan.

// PruneColumns annotates every base-table scan under root with the
// column set the plan actually reads. Safe to call on any SELECT plan;
// DML plans are left alone (index maintenance needs full rows).
func PruneColumns(root Node) {
	if root == nil {
		return
	}
	pruneNode(root, allNeeded(len(root.Schema())))
}

func allNeeded(n int) []bool {
	need := make([]bool, n)
	for i := range need {
		need[i] = true
	}
	return need
}

// DisablePruning clears every needed-column set under root so the
// executor decodes full rows. Only tests call it, to hold a pruned plan
// to the same plan decoding everything.
func DisablePruning(root Node) {
	if root == nil {
		return
	}
	switch n := root.(type) {
	case *SeqScan:
		n.Needed = nil
	case *IndexScan:
		n.Needed = nil
	case *IndexNLJoin:
		n.NeededInner = nil
	}
	walkPlanScalars(root, func(s Scalar) {
		if in, ok := s.(*InSubquery); ok {
			DisablePruning(in.Plan)
		}
	})
	for _, c := range root.Children() {
		DisablePruning(c)
	}
}

// markScalar records the input columns s reads into need and descends
// into IN-subquery plans (which are independent trees whose own outputs
// are all consumed by the membership check).
func markScalar(s Scalar, need []bool) {
	walkScalarTree(s, func(sc Scalar) {
		switch sc := sc.(type) {
		case *ColRef:
			if sc.Idx >= 0 && sc.Idx < len(need) {
				need[sc.Idx] = true
			}
		case *InSubquery:
			PruneColumns(sc.Plan)
		}
	})
}

func markScalars(ss []Scalar, need []bool) {
	for _, s := range ss {
		markScalar(s, need)
	}
}

// ordinals converts a need mask to the sorted ordinal list stored on
// scan nodes; nil when every column is needed (no pruning to do).
func ordinals(need []bool) []int {
	all := true
	count := 0
	for _, w := range need {
		if w {
			count++
		} else {
			all = false
		}
	}
	if all {
		return nil
	}
	out := make([]int, 0, count)
	for i, w := range need {
		if w {
			out = append(out, i)
		}
	}
	return out
}

// pruneNode pushes the parent's need set (over n's output schema) down
// the tree. len(need) == len(n.Schema()) at every call.
func pruneNode(n Node, need []bool) {
	switch n := n.(type) {
	case *SeqScan:
		markScalar(n.Filter, need)
		n.Needed = ordinals(need)
	case *IndexScan:
		markScalar(n.Residual, need)
		// Path scalars are evaluated against the nil row (constants and
		// params only), but walk them for IN-subquery plans.
		markScalars(n.Path.EqPrefix, need)
		markScalar(n.Path.Lo, need)
		markScalar(n.Path.Hi, need)
		n.Needed = ordinals(need)
	case *Filter:
		markScalar(n.Cond, need)
		pruneNode(n.Child, need)
	case *Project:
		childNeed := make([]bool, len(n.Child.Schema()))
		markScalars(n.Exprs, childNeed)
		pruneNode(n.Child, childNeed)
	case *HashJoin:
		lw := len(n.Left.Schema())
		leftNeed := make([]bool, lw)
		rightNeed := make([]bool, len(n.Right.Schema()))
		splitNeed(need, leftNeed, rightNeed)
		markScalars(n.LeftKeys, leftNeed)
		markScalars(n.RightKeys, rightNeed)
		markCombined(n.Residual, leftNeed, rightNeed)
		pruneNode(n.Left, leftNeed)
		pruneNode(n.Right, rightNeed)
	case *NLJoin:
		leftNeed := make([]bool, len(n.Left.Schema()))
		rightNeed := make([]bool, len(n.Right.Schema()))
		splitNeed(need, leftNeed, rightNeed)
		markCombined(n.Cond, leftNeed, rightNeed)
		pruneNode(n.Left, leftNeed)
		pruneNode(n.Right, rightNeed)
	case *IndexNLJoin:
		outerNeed := make([]bool, len(n.Outer.Schema()))
		innerNeed := make([]bool, len(n.Inner.Schemas.Latest().Cols))
		splitNeed(need, outerNeed, innerNeed)
		// Access-path scalars see the outer row: join keys flow in there.
		markScalars(n.Path.EqPrefix, outerNeed)
		markScalar(n.Path.Lo, outerNeed)
		markScalar(n.Path.Hi, outerNeed)
		markCombined(n.Residual, outerNeed, innerNeed)
		n.NeededInner = ordinals(innerNeed)
		pruneNode(n.Outer, outerNeed)
	case *HashAggregate:
		childNeed := make([]bool, len(n.Child.Schema()))
		markScalars(n.GroupBy, childNeed)
		for _, a := range n.Aggs {
			markScalar(a.Arg, childNeed)
		}
		pruneNode(n.Child, childNeed)
	case *Sort:
		for _, k := range n.Keys {
			if k.Col >= 0 && k.Col < len(need) {
				need[k.Col] = true
			}
		}
		pruneNode(n.Child, need)
	case *Limit:
		pruneNode(n.Child, need)
	case *Distinct:
		// DISTINCT compares whole rows; every column participates.
		pruneNode(n.Child, allNeeded(len(n.Child.Schema())))
	case *Materialize:
		pruneNode(n.Sub, need)
	case *renameNode:
		pruneNode(n.child, need)
	case *Values:
		for _, row := range n.Rows {
			for _, s := range row {
				markScalar(s, nil)
			}
		}
	default:
		// Unknown wrappers: assume the child is fully consumed.
		for _, c := range n.Children() {
			pruneNode(c, allNeeded(len(c.Schema())))
		}
	}
}

// splitNeed distributes a combined-row need set over the left/right
// halves of a join output.
func splitNeed(need, left, right []bool) {
	for i, w := range need {
		if !w {
			continue
		}
		if i < len(left) {
			left[i] = true
		} else if i-len(left) < len(right) {
			right[i-len(left)] = true
		}
	}
}

// markCombined records the columns a combined-row scalar reads into the
// left/right need sets.
func markCombined(s Scalar, left, right []bool) {
	walkScalarTree(s, func(sc Scalar) {
		switch sc := sc.(type) {
		case *ColRef:
			if sc.Idx >= 0 && sc.Idx < len(left) {
				left[sc.Idx] = true
			} else if sc.Idx-len(left) >= 0 && sc.Idx-len(left) < len(right) {
				right[sc.Idx-len(left)] = true
			}
		case *InSubquery:
			PruneColumns(sc.Plan)
		}
	})
}
