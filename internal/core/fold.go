package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/engine"
)

// FoldingOptions configures a chunk-folding layout (NewChunkFoldingLayout).
type FoldingOptions struct {
	// Defs are the generic chunk-table shapes (default
	// UniformChunkDefs(schema, 4)).
	Defs []*ChunkTableDef
	// ConventionalExtensions are extensions popular enough to deserve
	// their own application-specific tables (the paper's Figure 3:
	// Account and AccountHealthCare are conventional, the long tail of
	// extensions is folded into chunk tables). Spending the meta-data
	// budget here is the Chunk Folding tuning knob.
	ConventionalExtensions []string
}

// NewChunkFoldingLayout builds the paper's contribution (Fig 3/4f):
// base tables — the most heavily utilized parts of the logical schemas —
// map to conventional tables, designated popular extensions map to
// conventional extension tables, and the remaining extension columns
// fold into a fixed set of generic chunk tables joined on Row.
//
// A logical table is placed with the conventional base table as anchor;
// the tenant's conventional extensions follow, then the chunks its other
// extensions' columns fold into (§6.4: the only interface between the
// parts is the Row meta-column). Chunks only ever append: the ones a
// placement has stay, the folded columns they lack get new ones, so
// enabling an extension on-line adds spine rows in its conventional
// table, or in the chunks its columns fold into.
func NewChunkFoldingLayout(schema *Schema, opt FoldingOptions) (*FragmentLayout, error) {
	l, err := newFragmentLayout("chunkfold", schema)
	if err != nil {
		return nil, err
	}
	if len(opt.Defs) == 0 {
		opt.Defs = UniformChunkDefs(schema, 4)
	}
	var conventional []*Extension
	for _, en := range opt.ConventionalExtensions {
		e := schema.Extension(en)
		if e == nil {
			return nil, fmt.Errorf("core: conventional extension %s is not in the schema", en)
		}
		conventional = append(conventional, e)
	}
	l.create = func(db *engine.DB) error {
		if err := createBaseTables(db, schema, conventionalMeta()); err != nil {
			return err
		}
		if err := createExtensionTables(db, conventional); err != nil {
			return err
		}
		return createChunkTables(db, opt.Defs, false)
	}
	l.fragments = func(_ *engine.DB, tn *Tenant, table *Table, have []*fragment) ([]*fragment, error) {
		out := []*fragment{conventionalFragment(table.Name, table.Columns)}
		var folded []Column
		for _, en := range tn.Extensions {
			e := schema.Extension(en)
			switch {
			case e == nil || !strings.EqualFold(e.Base, table.Name):
			case slices.Contains(conventional, e):
				out = append(out, conventionalFragment(e.Name, e.Columns))
			default:
				folded = append(folded, e.Columns...)
			}
		}
		var chunks []*fragment
		for _, f := range have {
			if f.chunked() {
				chunks = append(chunks, f)
			}
		}
		groups, err := assignColumns(unplaced(folded, chunks), opt.Defs, len(chunks))
		if err != nil {
			return nil, err
		}
		tid, err := l.st.tableID(table.Name)
		if err != nil {
			return nil, err
		}
		return append(append(out, chunks...), foldedChunks(groups, tid, "")...), nil
	}
	return l, nil
}
