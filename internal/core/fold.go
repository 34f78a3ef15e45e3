package core

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/sql"
)

// FoldingOptions configures a ChunkFoldingLayout.
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

// ChunkFoldingLayout is the paper's contribution (Fig 3/4f): base
// tables — the most heavily utilized parts of the logical schemas —
// map to conventional tables, designated popular extensions map to
// conventional extension tables, and the remaining extension columns
// fold into a fixed set of generic chunk tables joined on Row.
type ChunkFoldingLayout struct {
	s   *state
	opt FoldingOptions
}

// NewChunkFoldingLayout builds the layout.
func NewChunkFoldingLayout(schema *Schema, opt FoldingOptions) (*ChunkFoldingLayout, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if len(opt.Defs) == 0 {
		opt.Defs = UniformChunkDefs(schema, 4)
	}
	for _, en := range opt.ConventionalExtensions {
		if schema.Extension(en) == nil {
			return nil, fmt.Errorf("core: conventional extension %s is not in the schema", en)
		}
	}
	return &ChunkFoldingLayout{s: newState(schema), opt: opt}, nil
}

// Name implements Layout.
func (l *ChunkFoldingLayout) Name() string { return "chunkfold" }

// Schema implements Layout.
func (l *ChunkFoldingLayout) Schema() *Schema { return l.s.schema }

func (l *ChunkFoldingLayout) state() *state { return l.s }

// conventionalExt reports whether an extension has its own table.
func (l *ChunkFoldingLayout) conventionalExt(name string) bool {
	for _, en := range l.opt.ConventionalExtensions {
		if strings.EqualFold(en, name) {
			return true
		}
	}
	return false
}

// Create implements Layout.
func (l *ChunkFoldingLayout) Create(db *engine.DB, tenants []*Tenant) error {
	if err := createBaseTables(db, l.s.schema, conventionalMeta()); err != nil {
		return err
	}
	for _, en := range l.opt.ConventionalExtensions {
		e := l.s.schema.Extension(en)
		if _, err := db.Exec(buildCreateTable(e.Name, append(conventionalMeta(), e.Columns...))); err != nil {
			return err
		}
		if _, err := db.Exec(fmt.Sprintf("CREATE UNIQUE INDEX %s_tr ON %s (Tenant, Row)", e.Name, e.Name)); err != nil {
			return err
		}
	}
	if err := createChunkTables(db, l.opt.Defs, chunkMetaCols(), false); err != nil {
		return err
	}
	return addTenants(l, db, tenants)
}

// AddTenant implements Layout: meta-data only (chunk assignments for
// the tenant's folded extension columns).
func (l *ChunkFoldingLayout) AddTenant(db *engine.DB, t *Tenant) error {
	return registerTenant(l, db, t)
}

// ExtendTenant enables an extension on-line: meta-data plus spine rows
// in the extension's conventional table, or in the chunks its columns
// fold into.
func (l *ChunkFoldingLayout) ExtendTenant(db *engine.DB, tenantID int64, extName string) error {
	return extendTenant(l, db, tenantID, extName)
}

// Rewrite implements Layout.
func (l *ChunkFoldingLayout) Rewrite(tenantID int64, st sql.Statement) (*Rewritten, error) {
	return genericRewrite(l, tenantID, st)
}

// fragments implements reconstructor: the conventional base table
// anchors; the tenant's conventional extensions follow, then the chunks
// its other extensions' columns fold into (§6.4: the only interface
// between the parts is the Row meta-column). Chunks only ever append:
// the ones in have stay, the folded columns they lack get new ones.
func (l *ChunkFoldingLayout) fragments(_ *engine.DB, tn *Tenant, table *Table, have []*fragment) ([]*fragment, error) {
	out := []*fragment{conventionalFragment(table.Name, table.Columns)}
	var folded []Column
	for _, en := range tn.Extensions {
		e := l.s.schema.Extension(en)
		if e == nil || !strings.EqualFold(e.Base, table.Name) {
			continue
		}
		if l.conventionalExt(en) {
			out = append(out, conventionalFragment(e.Name, e.Columns))
		} else {
			folded = append(folded, e.Columns...)
		}
	}
	var chunks []*fragment
	for _, f := range have {
		if f.chunked() {
			chunks = append(chunks, f)
		}
	}
	groups, err := assignColumns(unplaced(folded, chunks), l.opt.Defs, len(chunks))
	if err != nil {
		return nil, err
	}
	tid, err := l.s.tableID(table.Name)
	if err != nil {
		return nil, err
	}
	return append(append(out, chunks...), foldedChunks(groups, tid, "")...), nil
}
