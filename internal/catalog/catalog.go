// Package catalog manages physical schema objects — tables, columns,
// indexes — and implements the paper's "meta-data budget": every table
// costs a fixed amount of memory (4 KB in DB2 V9.1, §1.1), charged
// against the database's memory budget. The remainder funds the buffer
// pool, so creating more tables shrinks the cache and reproduces the
// §5 degradation as index root nodes start to thrash.
package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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
		dst = appendRID(dst, rid)
	}
	return dst
}

// insert and remove are index maintenance: cold releases the leaf to
// the cold end of the buffer pool (see Table.coldLeaves).
func (ix *Index) insert(key []byte, rid storage.RID, cold bool) error {
	if cold {
		return ix.Tree.InsertCold(key, rid)
	}
	return ix.Tree.Insert(key, rid)
}

func (ix *Index) remove(key []byte, cold bool) error {
	if cold {
		return ix.Tree.DeleteCold(key)
	}
	return ix.Tree.Delete(key)
}

// PrefixFor builds the search prefix for the first len(vals) index
// columns.
func (ix *Index) PrefixFor(vals []types.Value) []byte {
	key := make([]byte, 0, 64)
	for _, v := range vals {
		key = types.EncodeKey(key, v)
	}
	return key
}

func appendRID(key []byte, rid storage.RID) []byte {
	key = append(key,
		byte(rid.Page>>56), byte(rid.Page>>48), byte(rid.Page>>40), byte(rid.Page>>32),
		byte(rid.Page>>24), byte(rid.Page>>16), byte(rid.Page>>8), byte(rid.Page))
	return append(key, byte(rid.Slot>>8), byte(rid.Slot))
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

	Mu sync.RWMutex
}

// initVersions wires a fresh version store and its slot pin.
func (t *Table) initVersions(mgr *mvcc.Manager) {
	t.Vers = mvcc.NewStore(mgr)
	t.Heap.SetSlotPin(t.Vers.Pinned)
}

// SetWAL installs (or, with nils, removes) the statement's WAL loggers
// on the table's heap file and every index tree. The engine calls it
// under the table write lock at statement start and clears it at
// statement end, so redo records carry the owning statement's ID.
func (t *Table) SetWAL(h storage.HeapLogger, tl btree.Logger) {
	t.Heap.SetLogger(h)
	for _, ix := range t.Indexes {
		ix.Tree.SetLogger(tl)
	}
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

// normalizeRow validates arity and types, padding short rows (from
// before an ALTER TABLE ADD COLUMN) with NULLs and coercing INT
// literals into FLOAT columns.
func (t *Table) normalizeRow(row []types.Value) ([]types.Value, error) {
	if len(row) > len(t.Columns) {
		return nil, fmt.Errorf("catalog: %s: row has %d values for %d columns", t.Name, len(row), len(t.Columns))
	}
	out := make([]types.Value, len(t.Columns))
	copy(out, row)
	for i := range out {
		c := t.Columns[i]
		if c.Dropped {
			// A dropped slot stores nothing going forward; its declared
			// type and NOT NULL constraint died with the column.
			out[i] = types.Null()
			continue
		}
		v := out[i]
		if v.IsNull() {
			if c.NotNull {
				return nil, fmt.Errorf("catalog: %s.%s: NULL in NOT NULL column", t.Name, c.Name)
			}
			continue
		}
		if v.Kind != c.Type.Kind {
			if c.Type.Kind == types.KindFloat && v.Kind == types.KindInt {
				out[i] = types.NewFloat(float64(v.Int))
				continue
			}
			cv, err := types.Cast(v, c.Type.Kind)
			if err != nil {
				return nil, fmt.Errorf("catalog: %s.%s: %w", t.Name, c.Name, err)
			}
			out[i] = cv
		}
	}
	return out, nil
}

// InsertRow validates, stores, and indexes a row, returning its RID.
// The caller must hold the table write lock. The row is inserted
// all-or-nothing: a failure partway (index error, I/O fault) rolls the
// already-applied sub-steps back.
func (t *Table) InsertRow(row []types.Value) (storage.RID, error) {
	u := &UndoLog{}
	rid, err := t.InsertRowUndo(row, u)
	if err != nil {
		return storage.RID{}, errors.Join(err, u.Rollback())
	}
	return rid, nil
}

// InsertRowUndo is InsertRow logging each applied sub-step into u; on
// error the caller owns rolling u back (statement-level atomicity
// composes multiple rows into one undo scope).
func (t *Table) InsertRowUndo(row []types.Value, u *UndoLog) (storage.RID, error) {
	return t.insertRow(nil, row, u, true)
}

// coldLeaves reports whether index maintenance on t releases the leaves
// it writes to the cold end of the buffer pool. It does while the heap
// has at most one page: the executor then answers t's index scans and
// DML gathers from that page, so what reads t's leaves is maintenance,
// not statements (index-NL join probes and unique checks aside). A
// statement releases cold only at its last write to an index (last is
// set): an earlier leaf would be the victim of the statement's own next
// miss and read again by its next write.
func (t *Table) coldLeaves() bool { return t.Heap.NumPages() <= 1 }

// insertRow is InsertRowUndo on behalf of tx (nil: autocommit); last
// marks the statement's last row.
func (t *Table) insertRow(tx *mvcc.Txn, row []types.Value, u *UndoLog, last bool) (storage.RID, error) {
	row, err := t.normalizeRow(row)
	if err != nil {
		return storage.RID{}, err
	}
	// Unique checks first, so a violation leaves no debris.
	for _, ix := range t.Indexes {
		if !ix.Unique {
			continue
		}
		key := ix.KeyFor(row, storage.RID{})
		if tx != nil {
			err = t.checkUniqueTxn(tx, ix, key)
		} else if _, err = ix.Tree.Get(key); err == nil {
			err = fmt.Errorf("catalog: %s: unique index %s violated", t.Name, ix.Name)
		} else if errors.Is(err, btree.ErrKeyNotFound) {
			err = nil
		}
		if err != nil {
			return storage.RID{}, err
		}
	}
	rid, err := t.Heap.Insert(types.EncodeRow(nil, row))
	if err != nil {
		return storage.RID{}, err
	}
	u.push(func() error { return t.Heap.Delete(rid) })
	if tx != nil {
		t.Vers.RecordWrite(tx, rid, nil, false)
		u.push(func() error { t.Vers.PopWrite(tx, rid); return nil })
	}
	cold := last && t.coldLeaves()
	for _, ix := range t.Indexes {
		key := ix.KeyFor(row, rid)
		if err := ix.insert(key, rid, cold); err != nil {
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
	row, err := types.DecodeRow(rec)
	if err != nil {
		return nil, err
	}
	for len(row) < len(t.Columns) {
		row = append(row, types.Null())
	}
	return row, nil
}

// DeleteRow removes the row (whose current contents must be supplied
// for index maintenance). Caller holds the write lock. The delete is
// all-or-nothing: a failure partway restores the removed index entries
// and row bytes.
func (t *Table) DeleteRow(rid storage.RID, row []types.Value) error {
	u := &UndoLog{}
	if err := t.DeleteRowUndo(rid, row, u); err != nil {
		return errors.Join(err, u.Rollback())
	}
	return nil
}

// DeleteRowUndo is DeleteRow logging each applied sub-step into u; on
// error the caller owns rolling u back.
func (t *Table) DeleteRowUndo(rid storage.RID, row []types.Value, u *UndoLog) error {
	return t.deleteRow(nil, rid, row, u, true)
}

// deleteRow is DeleteRowUndo on behalf of tx (nil: autocommit): the
// first-updater-wins check runs before anything is touched, and the
// deleted bytes become the pre-image of a new version entry so older
// snapshots keep seeing the row. last marks the statement's last row.
func (t *Table) deleteRow(tx *mvcc.Txn, rid storage.RID, row []types.Value, u *UndoLog, last bool) error {
	if tx != nil {
		if err := t.Vers.CheckWrite(tx, rid); err != nil {
			return fmt.Errorf("catalog: %s: delete %v: %w", t.Name, rid, err)
		}
	}
	// Snapshot the stored bytes first: undo restores the record exactly
	// as it was, not a re-encoding of the (possibly NULL-padded) row.
	rec, err := t.Heap.Get(rid)
	if err != nil {
		return err
	}
	cold := last && t.coldLeaves()
	for _, ix := range t.Indexes {
		key := ix.KeyFor(row, rid)
		if err := ix.remove(key, cold); err != nil {
			return fmt.Errorf("catalog: %s: index %s: %w", t.Name, ix.Name, err)
		}
		tree := ix.Tree
		u.push(func() error { return tree.Insert(key, rid) })
	}
	if err := t.Heap.Delete(rid); err != nil {
		return err
	}
	u.push(func() error { return t.Heap.Reinsert(rid, rec) })
	if tx != nil {
		t.Vers.RecordWrite(tx, rid, rec, true)
		u.push(func() error { t.Vers.PopWrite(tx, rid); return nil })
	}
	return nil
}

// UpdateRow rewrites the row, maintaining indexes, and returns the
// possibly-relocated RID. Caller holds the write lock. The update is
// all-or-nothing: a failure partway restores the heap bytes and every
// index entry.
func (t *Table) UpdateRow(rid storage.RID, oldRow, newRow []types.Value) (storage.RID, error) {
	u := &UndoLog{}
	newRID, err := t.UpdateRowUndo(rid, oldRow, newRow, u)
	if err != nil {
		return storage.RID{}, errors.Join(err, u.Rollback())
	}
	return newRID, nil
}

// UpdateRowUndo is UpdateRow logging each applied sub-step into u; on
// error the caller owns rolling u back. Unique checks are immediate
// (single-row semantics); multi-row statements use UpdateRowsDeferred.
func (t *Table) UpdateRowUndo(rid storage.RID, oldRow, newRow []types.Value, u *UndoLog) (storage.RID, error) {
	newRow, err := t.normalizeRow(newRow)
	if err != nil {
		return storage.RID{}, err
	}
	// Unique checks for changed keys.
	for _, ix := range t.Indexes {
		if !ix.Unique {
			continue
		}
		oldKey, newKey := ix.KeyFor(oldRow, rid), ix.KeyFor(newRow, rid)
		if string(oldKey) == string(newKey) {
			continue
		}
		if _, err := ix.Tree.Get(newKey); err == nil {
			return storage.RID{}, fmt.Errorf("catalog: %s: unique index %s violated", t.Name, ix.Name)
		} else if !errors.Is(err, btree.ErrKeyNotFound) {
			return storage.RID{}, err
		}
	}
	newRID, err := t.updateHeapUndo(rid, newRow, u)
	if err != nil {
		return storage.RID{}, err
	}
	cold := t.coldLeaves()
	for _, ix := range t.Indexes {
		oldKey := ix.KeyFor(oldRow, rid)
		newKey := ix.KeyFor(newRow, newRID)
		if string(oldKey) == string(newKey) && rid == newRID {
			continue
		}
		tree := ix.Tree
		if err := tree.Delete(oldKey); err != nil {
			return storage.RID{}, fmt.Errorf("catalog: %s: index %s delete: %w", t.Name, ix.Name, err)
		}
		u.push(func() error { return tree.Insert(oldKey, rid) })
		if err := ix.insert(newKey, newRID, cold); err != nil {
			return storage.RID{}, fmt.Errorf("catalog: %s: index %s insert: %w", t.Name, ix.Name, err)
		}
		u.push(func() error { return tree.Delete(newKey) })
	}
	return newRID, nil
}

// updateHeapUndo rewrites the stored bytes of one row, returning the
// possibly-relocated RID, and logs the exact reverse: an in-place
// restore of the original bytes, or re-insertion at the original RID
// plus deletion of the relocated copy.
func (t *Table) updateHeapUndo(rid storage.RID, newRow []types.Value, u *UndoLog) (storage.RID, error) {
	oldRec, err := t.Heap.Get(rid)
	if err != nil {
		return storage.RID{}, err
	}
	// Lazy schema upgrade accounting: a write always re-encodes the full
	// current-width row, so touching a row that predates the newest
	// schema migrates it as a side effect.
	if arity, n := binary.Uvarint(oldRec); n > 0 && int(arity) < len(t.Columns) {
		t.LazyUpgrades.Add(1)
	}
	newRID, err := t.Heap.Update(rid, types.EncodeRow(nil, newRow))
	if err != nil {
		return storage.RID{}, err
	}
	u.push(func() error {
		if newRID == rid {
			// The page held oldRec before this statement, so the in-place
			// restore is guaranteed to fit after compaction.
			back, err := t.Heap.Update(rid, oldRec)
			if err != nil {
				return err
			}
			if back != rid {
				return fmt.Errorf("catalog: %s: undo relocated row %v to %v", t.Name, rid, back)
			}
			return nil
		}
		if err := t.Heap.Reinsert(rid, oldRec); err != nil {
			return err
		}
		return t.Heap.Delete(newRID)
	})
	return newRID, nil
}

// UpdateRowsDeferred applies one UPDATE statement's whole row set with
// unique checks deferred to a final index-insert pass: every changed
// index entry is removed (and every heap row rewritten) before any new
// entry is inserted, so a statement like UPDATE t SET k = k+1 over a
// dense unique key succeeds regardless of the order rows were scanned
// in. A duplicate in the deferred pass is a genuine violation — either
// with an untouched row or between two updated rows. All sub-steps are
// logged into u; on error the caller owns rolling u back.
func (t *Table) UpdateRowsDeferred(rids []storage.RID, oldRows, newRows [][]types.Value, u *UndoLog) ([]storage.RID, error) {
	var inserts []indexWrite
	newRIDs := make([]storage.RID, len(rids))
	for i, rid := range rids {
		nr, err := t.normalizeRow(newRows[i])
		if err != nil {
			return nil, err
		}
		newRID, err := t.updateHeapUndo(rid, nr, u)
		if err != nil {
			return nil, err
		}
		newRIDs[i] = newRID
		for _, ix := range t.Indexes {
			oldKey := ix.KeyFor(oldRows[i], rid)
			newKey := ix.KeyFor(nr, newRID)
			if string(oldKey) == string(newKey) && rid == newRID {
				continue
			}
			tree := ix.Tree
			if err := tree.Delete(oldKey); err != nil {
				return nil, fmt.Errorf("catalog: %s: index %s delete: %w", t.Name, ix.Name, err)
			}
			u.push(func() error { return tree.Insert(oldKey, rid) })
			inserts = append(inserts, indexWrite{ix: ix, newKey: newKey, rid: newRID})
		}
	}
	if err := t.insertDeferred(nil, inserts, u); err != nil {
		return nil, err
	}
	return newRIDs, nil
}

// indexWrite is one index entry an UPDATE re-keys: oldKey leaves the
// index in the statement's first pass, newKey, for the row now at rid,
// enters it in the deferred pass.
type indexWrite struct {
	ix             *Index
	oldKey, newKey []byte
	rid            storage.RID
}

// insertDeferred is an UPDATE's deferred pass on behalf of tx (nil:
// autocommit): every new entry goes in once every old one is out, so a
// duplicate is a genuine violation — or, under tx, a conflict when an
// uncommitted foreign write holds the key. Only the last write to each
// index may release its leaf cold (see coldLeaves).
func (t *Table) insertDeferred(tx *mvcc.Txn, writes []indexWrite, u *UndoLog) error {
	cold := t.coldLeaves()
	for i, w := range writes {
		last := cold && !slices.ContainsFunc(writes[i+1:], func(o indexWrite) bool { return o.ix == w.ix })
		if err := w.ix.insert(w.newKey, w.rid, last); err != nil {
			if !errors.Is(err, btree.ErrDuplicateKey) || !w.ix.Unique {
				return fmt.Errorf("catalog: %s: index %s insert: %w", t.Name, w.ix.Name, err)
			}
			if tx != nil {
				if rid, gerr := w.ix.Tree.Get(w.newKey); gerr == nil {
					if owner, ok := t.Vers.NewestWriter(rid); ok && owner != tx && !owner.Committed() {
						return fmt.Errorf("catalog: %s: unique key held by uncommitted transaction: %w", t.Name, mvcc.ErrWriteConflict)
					}
				}
			}
			return fmt.Errorf("catalog: %s: unique index %s violated", t.Name, w.ix.Name)
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

// DropTable removes the table, its heap, and its indexes, freeing the
// pages immediately (the non-WAL path).
func (c *Catalog) DropTable(name string) error {
	c.version.Add(1)
	c.mu.Lock()
	t, ok := c.tables[key(name)]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("catalog: no such table %s", name)
	}
	delete(c.tables, key(name))
	c.rebudget()
	c.mu.Unlock()

	t.Mu.Lock()
	defer t.Mu.Unlock()
	for _, ix := range t.Indexes {
		if err := ix.Tree.Drop(); err != nil {
			return err
		}
	}
	t.Indexes = nil
	return t.Heap.Drop()
}

// DropTableDeferred removes the table from the namespace but frees no
// pages: it returns the heap and index page lists so the caller can log
// the frees and perform them only after its commit record is durable —
// redo-only recovery cannot resurrect pages an uncommitted drop already
// destroyed.
func (c *Catalog) DropTableDeferred(name string) (dataPages, indexPages []storage.PageID, err error) {
	c.version.Add(1)
	c.mu.Lock()
	t, ok := c.tables[key(name)]
	if !ok {
		c.mu.Unlock()
		return nil, nil, fmt.Errorf("catalog: no such table %s", name)
	}
	delete(c.tables, key(name))
	c.rebudget()
	c.mu.Unlock()

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
// (including splits) land in the log under the creating statement.
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
	tree, err := btree.NewLogged(c.pool, lg)
	if err != nil {
		return nil, err
	}
	ix := &Index{Name: indexName, Table: t.Name, Cols: cols, Unique: unique, Tree: tree}
	// Backfill from existing rows.
	err = t.Heap.Scan(func(rid storage.RID, rec []byte) (bool, error) {
		row, err := types.DecodeRow(rec)
		if err != nil {
			return false, err
		}
		for len(row) < len(t.Columns) {
			row = append(row, types.Null())
		}
		if err := tree.Insert(ix.KeyFor(row, rid), rid); err != nil {
			if errors.Is(err, btree.ErrDuplicateKey) && unique {
				return false, fmt.Errorf("catalog: existing rows violate unique index %s", indexName)
			}
			return false, err
		}
		return true, nil
	})
	if err != nil {
		tree.Drop()
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

// DropIndex removes an index from a table, freeing its pages
// immediately (the non-WAL path).
func (c *Catalog) DropIndex(tableName, indexName string) error {
	c.version.Add(1)
	t, err := c.Table(tableName)
	if err != nil {
		return err
	}
	t.Mu.Lock()
	defer t.Mu.Unlock()
	for i, ix := range t.Indexes {
		if strings.EqualFold(ix.Name, indexName) {
			t.Indexes = append(t.Indexes[:i], t.Indexes[i+1:]...)
			return ix.Tree.Drop()
		}
	}
	return fmt.Errorf("catalog: no index %s on %s", indexName, tableName)
}

// DropIndexDeferred removes the index from the table but frees no
// pages, returning them for commit-deferred freeing (see
// DropTableDeferred).
func (c *Catalog) DropIndexDeferred(tableName, indexName string) ([]storage.PageID, error) {
	c.version.Add(1)
	t, err := c.Table(tableName)
	if err != nil {
		return nil, err
	}
	t.Mu.Lock()
	defer t.Mu.Unlock()
	for i, ix := range t.Indexes {
		if strings.EqualFold(ix.Name, indexName) {
			pages, perr := ix.Tree.Pages()
			if perr != nil {
				return nil, perr
			}
			t.Indexes = append(t.Indexes[:i], t.Indexes[i+1:]...)
			return pages, nil
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
