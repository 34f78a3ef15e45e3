package plan

import (
	"fmt"

	"repro/internal/sql"
)

func (p *Planner) planInsert(st *sql.InsertStmt) (Node, error) {
	t, err := p.Cat.Table(st.Table)
	if err != nil {
		return nil, err
	}
	var colMap []int
	if len(st.Columns) == 0 {
		// Bare INSERT targets the visible columns of the planner's schema
		// epoch, in order; dropped slots are not insertable.
		for ord, c := range p.physCols(t) {
			if !c.Dropped {
				colMap = append(colMap, ord)
			}
		}
	} else {
		colMap = make([]int, len(st.Columns))
		for i, name := range st.Columns {
			ord := p.colIndex(t, name)
			if ord < 0 {
				return nil, fmt.Errorf("plan: no column %s in %s", name, st.Table)
			}
			colMap[i] = ord
		}
	}
	empty := &scope{}
	plan := &InsertPlan{Table: t, ColMap: colMap}
	for _, row := range st.Rows {
		if len(row) != len(colMap) {
			return nil, fmt.Errorf("plan: INSERT row has %d values, want %d", len(row), len(colMap))
		}
		scalars := make([]Scalar, len(row))
		for i, e := range row {
			s, err := p.resolveExpr(e, empty)
			if err != nil {
				return nil, fmt.Errorf("plan: INSERT values must be constant: %w", err)
			}
			scalars[i] = s
		}
		plan.Rows = append(plan.Rows, scalars)
	}
	return plan, nil
}

// planWriteAccess picks the access path and residual filter for UPDATE
// and DELETE statements from the WHERE clause.
func (p *Planner) planWriteAccess(tableName, alias string, where sql.Expr) (*source, *AccessPath, Scalar, error) {
	t, err := p.Cat.Table(tableName)
	if err != nil {
		return nil, nil, nil, err
	}
	if alias == "" {
		alias = tableName
	}
	src := &source{table: t, alias: alias, cols: p.tableSchema(t, alias)}
	sc := &scope{cols: src.cols}
	conjs := sql.SplitConjuncts(where, nil)
	cands := p.indexCandidates(src, conjs, nil)
	path, consumed := p.chooseIndexPath(t, cands)
	var residualConjs []sql.Expr
	if path != nil {
		if err := p.resolvePath(path, &scope{}); err != nil {
			return nil, nil, nil, err
		}
		residualConjs = subtract(conjs, consumed)
	} else {
		residualConjs = conjs
	}
	residual, err := p.resolveExprList(residualConjs, sc)
	if err != nil {
		return nil, nil, nil, err
	}
	return src, path, residual, nil
}

func (p *Planner) planUpdate(st *sql.UpdateStmt) (Node, error) {
	src, path, filter, err := p.planWriteAccess(st.Table, st.Alias, st.Where)
	if err != nil {
		return nil, err
	}
	sc := &scope{cols: src.cols}
	plan := &UpdatePlan{Table: src.table, Alias: src.alias, Path: path, Filter: filter}
	for _, a := range st.Set {
		ord := p.colIndex(src.table, a.Column)
		if ord < 0 {
			return nil, fmt.Errorf("plan: no column %s in %s", a.Column, st.Table)
		}
		e, err := p.resolveExpr(a.Value, sc)
		if err != nil {
			return nil, err
		}
		plan.SetCols = append(plan.SetCols, ord)
		plan.SetExprs = append(plan.SetExprs, e)
	}
	if len(plan.SetCols) == 0 {
		return nil, fmt.Errorf("plan: UPDATE without SET")
	}
	return plan, nil
}

func (p *Planner) planDelete(st *sql.DeleteStmt) (Node, error) {
	src, path, filter, err := p.planWriteAccess(st.Table, st.Alias, st.Where)
	if err != nil {
		return nil, err
	}
	return &DeletePlan{Table: src.table, Alias: src.alias, Path: path, Filter: filter}, nil
}
