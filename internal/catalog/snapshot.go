package catalog

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/btree"
	"repro/internal/schemaver"
	"repro/internal/storage"
)

// This file is the catalog's durability boundary. The schema itself
// lives only in Go memory, so a checkpoint serializes it as a Snapshot
// (JSON inside the KCheckpoint record) and every DDL statement logs a
// DDLChange (JSON inside a KCatalog record). Recovery Restores the live
// catalog from the last checkpoint's snapshot and replays the changes
// after it through the same catalog calls a replica's applier makes.

// IndexSnap is the durable description of one index: definition plus
// the root page, which together with the pages reachable from it is all
// the state a B+tree needs.
type IndexSnap struct {
	Name   string         `json:"name"`
	Cols   []int          `json:"cols"`
	Unique bool           `json:"unique"`
	Root   storage.PageID `json:"root"`
}

// TableSnap is the durable description of one table: columns, the heap
// file's page list in file order, and its indexes.
type TableSnap struct {
	Name    string           `json:"name"`
	Cols    []Column         `json:"cols"`
	Pages   []storage.PageID `json:"pages,omitempty"`
	Indexes []IndexSnap      `json:"indexes,omitempty"`
}

// Snapshot is the whole catalog at a point in time.
type Snapshot struct {
	Tables  []TableSnap `json:"tables"`
	Version int64       `json:"version"`
}

// Snapshot captures the current catalog. Tables are sorted by name so
// the encoding is deterministic. The caller must ensure no DDL or DML
// is in flight (the engine holds its DDL lock exclusively).
func (c *Catalog) Snapshot() *Snapshot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	snap := &Snapshot{Version: c.version.Load()}
	for _, t := range c.tables {
		t.Mu.RLock()
		ts := TableSnap{
			Name:  t.Name,
			Cols:  append([]Column(nil), t.Columns...),
			Pages: t.Heap.Pages(),
		}
		for _, ix := range t.Indexes {
			ts.Indexes = append(ts.Indexes, IndexSnap{
				Name: ix.Name, Cols: append([]int(nil), ix.Cols...),
				Unique: ix.Unique, Root: ix.Tree.Root(),
			})
		}
		t.Mu.RUnlock()
		snap.Tables = append(snap.Tables, ts)
	}
	sort.Slice(snap.Tables, func(i, j int) bool { return snap.Tables[i].Name < snap.Tables[j].Name })
	return snap
}

// Encode serializes the snapshot for a checkpoint record.
func (s *Snapshot) Encode() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("catalog: snapshot encode: %v", err)) // no unmarshalable types
	}
	return b
}

// DDL operation names carried in DDLChange.Op.
const (
	OpCreateTable = "create_table"
	OpDropTable   = "drop_table"
	OpCreateIndex = "create_index"
	OpDropIndex   = "drop_index"
	OpAddColumn   = "add_column"
	OpDropColumn  = "drop_column"
	OpWidenColumn = "widen_column"
	// OpBuildIndex names the root a write gave a rootless index when its
	// table's heap took a second page (Table.Build). Unlike the DDL
	// changes it takes effect where replay meets it, not at its
	// transaction's commit: a rollback does not undo a build.
	OpBuildIndex = "build_index"
)

// DDLChange is the durable form of one DDL statement (a KCatalog
// record), or of one index build. For create_index and build_index,
// Root is the tree's root as of the record's append — later splits
// that move the root log KBTreeRoot records; a create_index without
// one made a rootless index.
type DDLChange struct {
	Op        string         `json:"op"`
	Table     string         `json:"table"`
	Cols      []Column       `json:"cols,omitempty"`
	Index     string         `json:"index,omitempty"`
	IndexCols []int          `json:"index_cols,omitempty"`
	Unique    bool           `json:"unique,omitempty"`
	Root      storage.PageID `json:"root,omitempty"`
}

// Encode serializes the change for a KCatalog record.
func (ch *DDLChange) Encode() []byte {
	b, err := json.Marshal(ch)
	if err != nil {
		panic(fmt.Sprintf("catalog: ddl change encode: %v", err))
	}
	return b
}

// DecodeDDLChange parses a KCatalog record payload.
func DecodeDDLChange(b []byte) (*DDLChange, error) {
	ch := &DDLChange{}
	if err := json.Unmarshal(b, ch); err != nil {
		return nil, fmt.Errorf("catalog: ddl change decode: %w", err)
	}
	return ch, nil
}

// Restore rebuilds a live catalog from a checkpoint's snapshot. The
// caller (engine recovery) must, after replaying the log, call
// RecomputeAll to rebuild derived state — row counts, free-space
// caches, tree sizes — from the recovered pages.
func Restore(pool *storage.BufferPool, cfg Config, snap *Snapshot) *Catalog {
	if cfg.MetaBytesPerTable == 0 {
		cfg.MetaBytesPerTable = DefaultMetaBytesPerTable
	}
	if cfg.MemoryBytes == 0 {
		cfg.MemoryBytes = 64 << 20
	}
	c := &Catalog{tables: make(map[string]*Table), pool: pool, cfg: cfg}
	for _, ts := range snap.Tables {
		// The schema chain restarts at a single version: no snapshot
		// survives a crash, so the history up to the checkpoint collapses
		// to its columns (Dropped flags included — the slots themselves
		// live on). Changes replayed after it publish as usual.
		t := &Table{
			Name:    ts.Name,
			Columns: append([]Column(nil), ts.Cols...),
			Heap:    storage.RestoreHeapFile(pool, cfg.InsertMode, ts.Pages),
			Schemas: schemaver.NewChain(ts.Cols),
		}
		for _, is := range ts.Indexes {
			t.Indexes = append(t.Indexes, &Index{
				Name: is.Name, Table: ts.Name, Cols: append([]int(nil), is.Cols...),
				Unique: is.Unique, Tree: btree.Restore(pool, is.Root),
			})
		}
		t.initVersions(cfg.Versions)
		c.tables[key(ts.Name)] = t
	}
	c.version.Store(snap.Version)
	c.rebudget()
	return c
}

// RecomputeAll rebuilds every table's derived state (heap row counts
// and free-space cache, index entry counts) by scanning the recovered
// pages.
func (c *Catalog) RecomputeAll() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, t := range c.tables {
		if err := t.Heap.RecomputeMeta(); err != nil {
			return err
		}
		for _, ix := range t.Indexes {
			if err := ix.Tree.RecountSize(); err != nil {
				return err
			}
		}
	}
	return nil
}
