// Package catalog manages physical schema objects — tables, columns,
// indexes — and implements the paper's "meta-data budget": every table
// costs a fixed amount of memory (4 KB in DB2 V9.1, §1.1), charged
// against the database's memory budget. The remainder funds the buffer
// pool, so creating more tables shrinks the cache and reproduces the
// §5 degradation as index root nodes start to thrash.
package catalog

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/mvcc"
	"repro/internal/schemaver"
	"repro/internal/storage"
	"repro/internal/types"
)

// DefaultMetaBytesPerTable matches the 4 KB per-table allocation the
// paper cites for IBM DB2 V9.1.
const DefaultMetaBytesPerTable = 4096

// Column describes one physical column slot. It is an alias of the
// schema-versioning package's definition: a slot may be live or Dropped
// (retained so older schema versions keep decoding its bytes — see
// internal/schemaver for the grow-only physical invariant).
type Column = schemaver.Column

// Index is a secondary or primary access path backed by a B+tree whose
// pages live in the shared buffer pool.
type Index struct {
	Name   string
	Table  string
	Cols   []int // column ordinals within the table
	Unique bool
	Tree   *btree.BTree
}

// ColNames resolves the index's column ordinals to names.
func (ix *Index) ColNames(t *Table) []string {
	out := make([]string, len(ix.Cols))
	for i, c := range ix.Cols {
		out[i] = t.Columns[c].Name
	}
	return out
}

// KeyFor builds the B+tree key for a row. Non-unique indexes append the
// RID so that every tree key is distinct (a partitioned B-tree).
func (ix *Index) KeyFor(row []types.Value, rid storage.RID) []byte {
	return ix.AppendKey(make([]byte, 0, 64), row, rid)
}

// AppendKey is KeyFor appending the key to dst.
func (ix *Index) AppendKey(dst []byte, row []types.Value, rid storage.RID) []byte {
	for _, c := range ix.Cols {
		dst = types.EncodeKey(dst, row[c])
	}
	if !ix.Unique {
		dst = btree.AppendRID(dst, rid)
	}
	return dst
}

// Built reports whether the index has its tree. It has none while its
// table's heap has at most one page: that page answers for it (see
// Table.Build).
func (ix *Index) Built() bool { return ix.Tree.Root() != storage.InvalidPageID }

// PrefixFor builds the search prefix for the first len(vals) index
// columns.
func (ix *Index) PrefixFor(vals []types.Value) []byte {
	key := make([]byte, 0, 64)
	for _, v := range vals {
		key = types.EncodeKey(key, v)
	}
	return key
}

// Table is a physical table: columns, heap file, and indexes. Its
// embedded RWMutex is the engine's table-level lock: statement
// execution takes RLock for reads and Lock for writes, which also
// serializes index maintenance.
type Table struct {
	Name    string
	Columns []Column
	Heap    *storage.HeapFile
	Indexes []*Index

	// Schemas is the table's schema-version chain (always non-nil).
	// Columns mirrors its newest version; snapshot transactions older
	// than an in-flight ALTER resolve their column prefix through it.
	Schemas *schemaver.Chain

	// Vers holds the table's MVCC version chains (always non-nil). The
	// heap's slot-pin hook keeps chained RIDs from being reused while a
	// chain still refers to them.
	Vers *mvcc.VersionStore

	// LazyUpgrades counts rows whose stored encoding predated the newest
	// schema and were rewritten to it by a foreground DML write.
	LazyUpgrades atomic.Int64

	// changes logs a build's catalog change (see SetWAL); nil: unlogged.
	changes ChangeLogger

	Mu sync.RWMutex
}

// ChangeLogger receives the catalog changes a table makes of itself:
// wal.Scope implements it.
type ChangeLogger interface {
	CatalogChange(payload []byte) error
}

// initVersions wires a fresh version store and its slot pin.
func (t *Table) initVersions(mgr *mvcc.Manager) {
	t.Vers = mvcc.NewStore(mgr)
	t.Heap.SetSlotPin(t.Vers.Pinned)
}

// SetWAL installs (or, with nils, removes) the statement's WAL loggers
// on the table's heap file and every index tree, and where a build of
// the trees logs its catalog change. The engine calls it under the
// table write lock at statement start and clears it at statement end,
// so redo records carry the owning statement's ID.
func (t *Table) SetWAL(h storage.HeapLogger, tl btree.Logger, cl ChangeLogger) {
	t.Heap.SetLogger(h)
	for _, ix := range t.Indexes {
		ix.Tree.SetLogger(tl)
	}
	t.changes = cl
}

// ColIndex returns the ordinal of the named column, or -1. Dropped
// slots are unaddressable (their name may be reused by a later ADD
// COLUMN), so they never match.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Columns {
		if !c.Dropped && strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Index returns the named index, or nil.
func (t *Table) Index(name string) *Index {
	for _, ix := range t.Indexes {
		if strings.EqualFold(ix.Name, name) {
			return ix
		}
	}
	return nil
}

// normalizeRow validates arity and types in place, coercing INT
// literals into FLOAT columns. A full-width row is the caller's to give
// up and comes back as itself; a short one (from before an ALTER TABLE
// ADD COLUMN) comes back as a NULL-padded copy.
func (t *Table) normalizeRow(row []types.Value) ([]types.Value, error) {
	if len(row) > len(t.Columns) {
		return nil, fmt.Errorf("catalog: %s: row has %d values for %d columns", t.Name, len(row), len(t.Columns))
	}
	if len(row) < len(t.Columns) {
		padded := make([]types.Value, len(t.Columns))
		copy(padded, row)
		row = padded
	}
	for i := range row {
		c := t.Columns[i]
		if c.Dropped {
			// A dropped slot stores nothing going forward; its declared
			// type and NOT NULL constraint died with the column.
			row[i] = types.Null()
			continue
		}
		v := row[i]
		if v.IsNull() {
			if c.NotNull {
				return nil, fmt.Errorf("catalog: %s.%s: NULL in NOT NULL column", t.Name, c.Name)
			}
			continue
		}
		if v.Kind != c.Type.Kind {
			if c.Type.Kind == types.KindFloat && v.Kind == types.KindInt {
				row[i] = types.NewFloat(float64(v.Int))
				continue
			}
			cv, err := types.Cast(v, c.Type.Kind)
			if err != nil {
				return nil, fmt.Errorf("catalog: %s.%s: %w", t.Name, c.Name, err)
			}
			row[i] = cv
		}
	}
	return row, nil
}

// appendKey appends ix's key for row at rid to buf and returns the key
// as a slice of its own: a later append may move buf, never the key, so
// keys an undo step holds can share one buffer.
func appendKey(buf []byte, ix *Index, row []types.Value, rid storage.RID) (key, grown []byte) {
	start := len(buf)
	buf = ix.AppendKey(buf, row, rid)
	return buf[start:len(buf):len(buf)], buf
}

// InsertRow validates, stores, and indexes a row, returning its RID.
// The caller must hold the table write lock and gives the row up (it is
// normalized in place). The row is inserted all-or-nothing: a failure
// partway (index error, I/O fault) rolls the already-applied sub-steps
// back.
func (t *Table) InsertRow(row []types.Value) (storage.RID, error) {
	u := &UndoLog{}
	var enc []byte
	rid, err := t.insertRow(nil, row, u, &enc)
	if err != nil {
		return storage.RID{}, errors.Join(err, u.Rollback())
	}
	return rid, nil
}

// rootless reports whether t's indexes have no trees yet. A table's
// indexes are built together (Build), so the first one answers.
func (t *Table) rootless() bool { return len(t.Indexes) > 0 && !t.Indexes[0].Built() }

// Build gives every index of t its tree, from the live records of the
// heap's one page — uncommitted ones too, since a tree holds every row
// the heap does; it does nothing to a table whose indexes are built or
// whose heap has no page or several. A write calls it when it is about
// to give the heap its second page: until then the page answers for the
// indexes. A caller may build earlier (a built index on a one-page heap
// is still read through the page); it holds t's latch exclusively. The
// build is logged under the statement's scope (SetWAL) as CREATE
// INDEX's backfill is — page allocations, inserts, splits — then as one
// catalog change per index naming its root (OpBuildIndex), which
// recovery and replicas apply where they meet it. A rollback does not
// undo it, just as it does not give the heap page back; undo steps
// logged before it make up the difference (rekey). A failure drops the
// trees built so far.
func (t *Table) Build() error {
	page, _, ok := t.Heap.OnePage()
	if !ok || !t.rootless() {
		return nil
	}
	fail := func(err error) error {
		for _, ix := range t.Indexes {
			_ = ix.Tree.Drop()
		}
		return err
	}
	for _, ix := range t.Indexes {
		if err := ix.Tree.Build(!ix.Unique); err != nil {
			return fail(err)
		}
	}
	var kb []byte
	_, err := t.Heap.ScanPage(page, func(rid storage.RID, rec []byte) (bool, error) {
		row, err := t.decodeRow(rec)
		if err != nil {
			return false, err
		}
		for _, ix := range t.Indexes {
			kb = ix.AppendKey(kb[:0], row, rid)
			if err := ix.Tree.Insert(kb, rid); err != nil {
				return false, fmt.Errorf("catalog: %s: build of index %s: %w", t.Name, ix.Name, err)
			}
		}
		return true, nil
	})
	if err != nil {
		return fail(err)
	}
	if t.changes != nil {
		for _, ix := range t.Indexes {
			ch := &DDLChange{Op: OpBuildIndex, Table: t.Name, Index: ix.Name, Root: ix.Tree.Root()}
			if err := t.changes.CatalogChange(ch.Encode()); err != nil {
				return fail(err)
			}
		}
	}
	return nil
}

// rekey is what an undo step logged while t was rootless owes the trees
// built since, if any: at rid they hold the entries of gone, the bytes
// the step removes, and must hold those of back, the bytes it restores
// (either may be nil).
func (t *Table) rekey(rid storage.RID, gone, back []byte) error {
	if t.rootless() {
		return nil
	}
	var goneRow, backRow []types.Value
	var err error
	if gone != nil {
		if goneRow, err = t.decodeRow(gone); err != nil {
			return err
		}
	}
	if back != nil {
		if backRow, err = t.decodeRow(back); err != nil {
			return err
		}
	}
	for _, ix := range t.Indexes {
		if goneRow != nil {
			err = ix.Tree.Delete(ix.KeyFor(goneRow, rid))
		}
		if err == nil && backRow != nil {
			err = ix.Tree.Insert(ix.KeyFor(backRow, rid), rid)
		}
		if err != nil {
			return fmt.Errorf("catalog: %s: index %s: %w", t.Name, ix.Name, err)
		}
	}
	return nil
}

// insertRow stores and indexes one row on behalf of tx (nil:
// autocommit), logging each applied sub-step into u; on error the
// caller owns rolling u back. enc is the statement's encoding buffer
// (the page and the WAL record copy the bytes).
func (t *Table) insertRow(tx *mvcc.Txn, row []types.Value, u *UndoLog, enc *[]byte) (storage.RID, error) {
	row, err := t.normalizeRow(row)
	if err != nil {
		return storage.RID{}, err
	}
	// Unique checks first, so a violation leaves no debris. A unique key
	// carries no RID: the key checked is the key inserted.
	kb := make([]byte, 0, 64*len(t.Indexes))
	var held [4][]byte // the keys of up to four indexes without an allocation
	keys := held[:0]
	for _, ix := range t.Indexes {
		var key []byte
		if ix.Unique {
			key, kb = appendKey(kb, ix, row, storage.RID{})
			if err := t.checkUnique(tx, ix, key); err != nil {
				return storage.RID{}, err
			}
		}
		keys = append(keys, key)
	}
	*enc = types.EncodeRow((*enc)[:0], row)
	if _, free, one := t.Heap.OnePage(); one && len(*enc)+storage.SlotCost > free {
		if err := t.Build(); err != nil {
			return storage.RID{}, err
		}
	}
	rid, err := t.Heap.Insert(*enc)
	if err != nil {
		return storage.RID{}, err
	}
	rootless := t.rootless()
	u.push(func() error {
		rec, err := t.Heap.Delete(rid)
		if err != nil || !rootless {
			return err
		}
		return t.rekey(rid, rec, nil)
	})
	if tx != nil {
		t.Vers.RecordWrite(tx, rid, nil, false)
		u.push(func() error { t.Vers.PopWrite(tx, rid); return nil })
	}
	for i, ix := range t.Indexes {
		if !ix.Built() {
			continue
		}
		key := keys[i]
		if key == nil {
			key, kb = appendKey(kb, ix, row, rid)
		}
		if err := ix.Tree.Insert(key, rid); err != nil {
			return storage.RID{}, fmt.Errorf("catalog: %s: index %s: %w", t.Name, ix.Name, err)
		}
		tree := ix.Tree
		u.push(func() error { return tree.Delete(key) })
	}
	return rid, nil
}

// GetRow fetches and decodes the row at rid, padding with NULLs if the
// schema has grown since the row was written.
func (t *Table) GetRow(rid storage.RID) ([]types.Value, error) {
	rec, err := t.Heap.Get(rid)
	if err != nil {
		return nil, err
	}
	return t.decodeRow(rec)
}

// DeleteRow removes the row (whose current contents must be supplied
// for index maintenance). Caller holds the write lock. The delete is
// all-or-nothing: a failure partway restores the removed index entries
// and row bytes.
func (t *Table) DeleteRow(rid storage.RID, row []types.Value) error {
	u := &UndoLog{}
	if err := t.deleteRow(nil, rid, row, u); err != nil {
		return errors.Join(err, u.Rollback())
	}
	return nil
}

// deleteRow removes one row on behalf of tx (nil: autocommit), logging
// each applied sub-step into u; on error the caller owns rolling u
// back. The first-updater-wins check runs before anything is touched.
// The heap delete hands back the bytes it removed: undo restores the
// record exactly as it was (not a re-encoding of the possibly
// NULL-padded row), and they become the pre-image of a new version
// entry so older snapshots keep seeing the row.
func (t *Table) deleteRow(tx *mvcc.Txn, rid storage.RID, row []types.Value, u *UndoLog) error {
	if tx != nil {
		if err := t.Vers.CheckWrite(tx, rid); err != nil {
			return fmt.Errorf("catalog: %s: delete %v: %w", t.Name, rid, err)
		}
	}
	kb := make([]byte, 0, 64*len(t.Indexes))
	for _, ix := range t.Indexes {
		if !ix.Built() {
			continue
		}
		var key []byte
		key, kb = appendKey(kb, ix, row, rid)
		if err := ix.Tree.Delete(key); err != nil {
			return fmt.Errorf("catalog: %s: index %s: %w", t.Name, ix.Name, err)
		}
		tree := ix.Tree
		u.push(func() error { return tree.Insert(key, rid) })
	}
	rootless := t.rootless()
	rec, err := t.Heap.Delete(rid)
	if err != nil {
		return err
	}
	u.push(func() error {
		if err := t.Heap.Reinsert(rid, rec); err != nil || !rootless {
			return err
		}
		return t.rekey(rid, nil, rec)
	})
	if tx != nil {
		t.Vers.RecordWrite(tx, rid, rec, true)
		u.push(func() error { t.Vers.PopWrite(tx, rid); return nil })
	}
	return nil
}

// indexWrite is one index entry an UPDATE re-keys: oldKey leaves the
// index in the statement's first pass, newKey, for the row now at rid,
// enters it in the deferred pass. On a rootless index neither moves:
// the deferred pass checks a unique newKey against the heap's page.
type indexWrite struct {
	ix             *Index
	oldKey, newKey []byte
	rid            storage.RID
}

// insertDeferred is an UPDATE's deferred pass on behalf of tx (nil:
// autocommit): every new entry goes in once every old one is out, so a
// duplicate is a genuine violation — or, under tx, a conflict when an
// uncommitted foreign write holds the key.
func (t *Table) insertDeferred(tx *mvcc.Txn, writes []indexWrite, u *UndoLog) error {
	for _, w := range writes {
		if !w.ix.Built() {
			if !w.ix.Unique {
				continue
			}
			rid, found, err := t.pageHolder(w.ix, w.newKey, w.rid)
			if err == nil && found {
				err = t.duplicate(tx, w.ix, rid)
			}
			if err != nil {
				return err
			}
			continue
		}
		if err := w.ix.Tree.Insert(w.newKey, w.rid); err != nil {
			if !errors.Is(err, btree.ErrDuplicateKey) || !w.ix.Unique {
				return fmt.Errorf("catalog: %s: index %s insert: %w", t.Name, w.ix.Name, err)
			}
			rid, gerr := w.ix.Tree.Get(w.newKey)
			if gerr != nil {
				return fmt.Errorf("catalog: %s: unique index %s violated", t.Name, w.ix.Name)
			}
			return t.duplicate(tx, w.ix, rid)
		}
		tree, key := w.ix.Tree, w.newKey
		u.push(func() error { return tree.Delete(key) })
	}
	return nil
}

// Config parameterizes a Catalog.
type Config struct {
	// MemoryBytes is the machine's database memory budget; the buffer
	// pool gets what the table meta-data does not consume.
	MemoryBytes int64
	// MetaBytesPerTable is the per-table meta-data cost (default 4 KB).
	MetaBytesPerTable int64
	// InsertMode selects the heap placement policy for new tables.
	InsertMode storage.InsertMode
	// Versions, when set, registers each table's version store with the
	// transaction manager so end-of-transaction sweeps can collect them.
	Versions *mvcc.Manager
}

// Catalog owns the table namespace and the meta-data budget.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	pool   *storage.BufferPool
	cfg    Config

	version  atomic.Int64
	schemaTS atomic.Uint64
}

// New creates a catalog over pool.
func New(pool *storage.BufferPool, cfg Config) *Catalog {
	if cfg.MetaBytesPerTable == 0 {
		cfg.MetaBytesPerTable = DefaultMetaBytesPerTable
	}
	if cfg.MemoryBytes == 0 {
		cfg.MemoryBytes = 64 << 20
	}
	c := &Catalog{tables: make(map[string]*Table), pool: pool, cfg: cfg}
	c.rebudget()
	return c
}

func key(name string) string { return strings.ToLower(name) }

// rebudget recomputes the buffer pool capacity from the memory budget
// minus the meta-data tax. Caller may hold c.mu.
func (c *Catalog) rebudget() {
	meta := int64(len(c.tables)) * c.cfg.MetaBytesPerTable
	c.pool.SetCapacityBytes(c.cfg.MemoryBytes - meta)
}

// MetaBytes returns the current meta-data consumption.
func (c *Catalog) MetaBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return int64(len(c.tables)) * c.cfg.MetaBytesPerTable
}

// NumTables returns the table count.
func (c *Catalog) NumTables() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.tables)
}

// CreateTable registers a new table.
func (c *Catalog) CreateTable(name string, cols []Column) (*Table, error) {
	c.version.Add(1)
	if len(cols) == 0 {
		return nil, fmt.Errorf("catalog: table %s needs at least one column", name)
	}
	seen := map[string]bool{}
	for _, col := range cols {
		k := strings.ToLower(col.Name)
		if seen[k] {
			return nil, fmt.Errorf("catalog: duplicate column %s in %s", col.Name, name)
		}
		seen[k] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[key(name)]; exists {
		return nil, fmt.Errorf("catalog: table %s already exists", name)
	}
	t := &Table{
		Name:    name,
		Columns: append([]Column(nil), cols...),
		Heap:    storage.NewHeapFile(c.pool, c.cfg.InsertMode),
		Schemas: schemaver.NewChain(cols),
	}
	t.initVersions(c.cfg.Versions)
	c.tables[key(name)] = t
	c.rebudget()
	return t, nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[key(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: no such table %s", name)
	}
	return t, nil
}

// HasTable reports whether a table exists.
func (c *Catalog) HasTable(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.tables[key(name)]
	return ok
}

// TableNames returns all table names (unordered).
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	return out
}

// DropTableDeferred removes the table from the namespace and returns
// it, freeing no pages: the caller lists them (Table.Release) to log
// the frees and performs them only after its commit record is durable —
// redo-only recovery cannot resurrect pages an uncommitted drop already
// destroyed. Replay needs no list: the drop's KPageFree records name
// the pages.
func (c *Catalog) DropTableDeferred(name string) (*Table, error) {
	c.version.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[key(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: no such table %s", name)
	}
	delete(c.tables, key(name))
	c.rebudget()
	return t, nil
}

// Release detaches a dropped table's pages and returns them, heap and
// index, without freeing any.
func (t *Table) Release() (dataPages, indexPages []storage.PageID, err error) {
	t.Mu.Lock()
	defer t.Mu.Unlock()
	for _, ix := range t.Indexes {
		pages, perr := ix.Tree.Pages()
		if perr != nil {
			return nil, nil, perr
		}
		indexPages = append(indexPages, pages...)
	}
	t.Indexes = nil
	return t.Heap.Release(), indexPages, nil
}

// CreateIndex builds a new index over existing rows.
func (c *Catalog) CreateIndex(tableName, indexName string, colNames []string, unique bool) (*Index, error) {
	return c.CreateIndexLogged(tableName, indexName, colNames, unique, nil)
}

// CreateIndexLogged is CreateIndex with a WAL logger installed on the
// tree from birth, so the root allocation and every backfill insert
// (including splits) land in the log under the creating statement. On
// a table whose indexes are rootless, or that has none and a heap of at
// most one page, the index is rootless too: no page is allocated, and
// only a unique index's keys are checked against the page's rows.
func (c *Catalog) CreateIndexLogged(tableName, indexName string, colNames []string, unique bool, lg btree.Logger) (*Index, error) {
	c.version.Add(1)
	t, err := c.Table(tableName)
	if err != nil {
		return nil, err
	}
	t.Mu.Lock()
	defer t.Mu.Unlock()
	if t.Index(indexName) != nil {
		return nil, fmt.Errorf("catalog: index %s already exists on %s", indexName, tableName)
	}
	cols := make([]int, len(colNames))
	for i, n := range colNames {
		ord := t.ColIndex(n)
		if ord < 0 {
			return nil, fmt.Errorf("catalog: no column %s in %s", n, tableName)
		}
		cols[i] = ord
	}
	ix := &Index{Name: indexName, Table: t.Name, Cols: cols, Unique: unique, Tree: btree.Restore(c.pool, storage.InvalidPageID)}
	ix.Tree.SetLogger(lg)
	built := t.Heap.NumPages() > 1 || len(t.Indexes) > 0 && !t.rootless()
	if built {
		if err := ix.Tree.Build(!unique); err != nil {
			return nil, err
		}
	}
	// Backfill from existing rows, or check them.
	seen := map[string]bool{}
	err = t.Heap.Scan(func(rid storage.RID, rec []byte) (bool, error) {
		row, err := t.decodeRow(rec)
		if err != nil {
			return false, err
		}
		key := ix.KeyFor(row, rid)
		switch {
		case built:
			err = ix.Tree.Insert(key, rid)
		case unique && seen[string(key)]:
			err = btree.ErrDuplicateKey
		case unique:
			seen[string(key)] = true
		}
		if errors.Is(err, btree.ErrDuplicateKey) && unique {
			return false, fmt.Errorf("catalog: existing rows violate unique index %s", indexName)
		}
		return err == nil, err
	})
	if err != nil {
		ix.Tree.Drop()
		return nil, err
	}
	t.Indexes = append(t.Indexes, ix)
	return ix, nil
}

// AdoptIndex registers an index over an ALREADY-BUILT tree rooted at
// root — the replica's replay of a committed create_index DDLChange,
// where every tree page (root allocation, backfill inserts, splits) was
// already materialized by the physical redo stream. Unlike
// CreateIndexLogged it scans nothing and logs nothing. Call
// Tree.RecountSize afterwards to rebuild the entry count.
func (c *Catalog) AdoptIndex(tableName, indexName string, cols []int, unique bool, root storage.PageID) (*Index, error) {
	c.version.Add(1)
	t, err := c.Table(tableName)
	if err != nil {
		return nil, err
	}
	t.Mu.Lock()
	defer t.Mu.Unlock()
	if t.Index(indexName) != nil {
		return nil, fmt.Errorf("catalog: index %s already exists on %s", indexName, tableName)
	}
	for _, ord := range cols {
		if ord < 0 || ord >= len(t.Columns) {
			return nil, fmt.Errorf("catalog: index %s column ordinal %d out of range on %s", indexName, ord, tableName)
		}
	}
	ix := &Index{Name: indexName, Table: t.Name, Cols: append([]int(nil), cols...),
		Unique: unique, Tree: btree.Restore(c.pool, root)}
	t.Indexes = append(t.Indexes, ix)
	return ix, nil
}

// DropIndexDeferred removes the index from the table and returns it,
// freeing no pages (see DropTableDeferred; its pages are Tree.Pages).
func (c *Catalog) DropIndexDeferred(tableName, indexName string) (*Index, error) {
	c.version.Add(1)
	t, err := c.Table(tableName)
	if err != nil {
		return nil, err
	}
	t.Mu.Lock()
	defer t.Mu.Unlock()
	for i, ix := range t.Indexes {
		if strings.EqualFold(ix.Name, indexName) {
			t.Indexes = append(t.Indexes[:i], t.Indexes[i+1:]...)
			return ix, nil
		}
	}
	return nil, fmt.Errorf("catalog: no index %s on %s", indexName, tableName)
}

// AddColumn appends a nullable column to the table. Existing rows read
// back with NULL in the new position — a pure meta-data change, which
// is what lets generic layouts do on-line schema evolution. This is the
// offline (DDL-fenced) path: no snapshot can be in flight, so the
// schema chain's head is rewritten in place rather than versioned.
func (c *Catalog) AddColumn(tableName string, col Column) error {
	c.version.Add(1)
	t, err := c.Table(tableName)
	if err != nil {
		return err
	}
	t.Mu.Lock()
	defer t.Mu.Unlock()
	cols, err := t.ComputeAddColumn(col)
	if err != nil {
		return err
	}
	t.Columns = cols
	t.Schemas.SetLatest(cols)
	return nil
}

// --- online schema evolution ---------------------------------------------------
//
// The Compute* methods validate one ALTER against the table's newest
// schema and return the resulting column slice without mutating
// anything; PublishSchema makes it the newest version under a commit
// stamp. The engine calls Compute under the table's exclusive latch,
// WALs the change, stamps the commit clock, then publishes — so the
// new version's stamp is strictly newer than every snapshot begun
// before the ALTER, and those snapshots keep resolving the old prefix.
// Caller holds t.Mu exclusively for all of these.

// ComputeAddColumn validates appending a nullable column slot.
func (t *Table) ComputeAddColumn(col Column) ([]Column, error) {
	if col.NotNull {
		return nil, fmt.Errorf("catalog: ADD COLUMN must be nullable")
	}
	if col.Dropped {
		return nil, fmt.Errorf("catalog: cannot add a dropped column")
	}
	if t.ColIndex(col.Name) >= 0 {
		return nil, fmt.Errorf("catalog: column %s already exists in %s", col.Name, t.Name)
	}
	out := append([]Column(nil), t.Columns...)
	return append(out, col), nil
}

// ComputeDropColumn validates dropping a column: the slot is retained
// (flagged Dropped) so older schema versions keep decoding its bytes.
// Indexed columns cannot be dropped, nor can the last visible column.
func (t *Table) ComputeDropColumn(name string) ([]Column, error) {
	ord := t.ColIndex(name)
	if ord < 0 {
		return nil, fmt.Errorf("catalog: no column %s in %s", name, t.Name)
	}
	for _, ix := range t.Indexes {
		for _, c := range ix.Cols {
			if c == ord {
				return nil, fmt.Errorf("catalog: cannot drop %s.%s: referenced by index %s", t.Name, name, ix.Name)
			}
		}
	}
	visible := 0
	for _, c := range t.Columns {
		if !c.Dropped {
			visible++
		}
	}
	if visible <= 1 {
		return nil, fmt.Errorf("catalog: cannot drop the last column of %s", t.Name)
	}
	out := append([]Column(nil), t.Columns...)
	out[ord].Dropped = true
	return out, nil
}

// ComputeWidenColumn validates widening a column's declared type in
// place. Only INT -> FLOAT is a widening here: every stored INT value
// is exactly representable (values are self-describing and coerce on
// read), and the order-preserving key encoding of INT n equals that of
// FLOAT n, so even indexed columns need no key maintenance. (Integers
// beyond 2^53 lose precision once physically rewritten — the usual
// IEEE-754 caveat.)
func (t *Table) ComputeWidenColumn(name string, typ types.ColumnType) ([]Column, error) {
	ord := t.ColIndex(name)
	if ord < 0 {
		return nil, fmt.Errorf("catalog: no column %s in %s", name, t.Name)
	}
	cur := t.Columns[ord].Type
	if cur.Kind == typ.Kind && cur.Width == typ.Width {
		return nil, fmt.Errorf("catalog: %s.%s is already %s", t.Name, name, typ)
	}
	if cur.Kind != types.KindInt || typ.Kind != types.KindFloat {
		return nil, fmt.Errorf("catalog: cannot widen %s.%s from %s to %s (only INT -> FLOAT)", t.Name, name, cur, typ)
	}
	out := append([]Column(nil), t.Columns...)
	out[ord].Type = typ
	return out, nil
}

// PublishSchema installs cols as the table's newest schema version
// under commit stamp ts and bumps the catalog version. Caller holds
// t.Mu exclusively; every reader of t.Columns holds at least a shared
// latch (or the engine's exclusive DDL fence), so the swap is safe.
func (c *Catalog) PublishSchema(t *Table, cols []Column, ts uint64) int64 {
	ver := t.Schemas.Publish(cols, ts)
	t.Columns = cols
	for {
		old := c.schemaTS.Load()
		if ts <= old || c.schemaTS.CompareAndSwap(old, ts) {
			break
		}
	}
	c.version.Add(1)
	return ver
}

// SchemaTS returns the commit stamp of the newest published schema
// version across all tables (0 if none was ever published online). A
// pinned snapshot older than this must resolve schemas through the
// version chains instead of the cached latest plans.
func (c *Catalog) SchemaTS() uint64 { return c.schemaTS.Load() }

// Version returns the schema version, bumped by every DDL operation.
// Plan caches key on it to invalidate after on-line schema changes.
func (c *Catalog) Version() int64 {
	return c.version.Load()
}
