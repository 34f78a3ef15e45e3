package storage

// This file defines the storage side of the write-ahead-logging
// contract. The wal package implements these interfaces; storage only
// ever talks to them, so there is no import cycle: wal imports storage,
// never the reverse.

// LSN is a log sequence number: the byte offset just past a log
// record's frame in the WAL stream. LSNs are strictly monotonic and
// survive log truncation (truncation only advances the stream's base).
// Zero means "no log record" — a page that has never been mutated under
// WAL, or a disk opened without one.
type LSN = uint64

// NoLSN is the zero LSN.
const NoLSN LSN = 0

// InfiniteLSN is larger than every real LSN; WALGate.OldestActiveLSN
// returns it when no statement is active.
const InfiniteLSN LSN = ^LSN(0)

// WALGate is the buffer pool's view of the write-ahead log. It enforces
// the two rules that make redo-only recovery sound:
//
//   - WAL-before-data: a dirty page may reach disk only after every log
//     record it reflects is durable (SyncTo forces the log if needed);
//   - no-steal: a page whose last mutation belongs to a still-active
//     statement may not reach disk at all, because an uncommitted
//     statement's effects on disk could not be undone by redo.
type WALGate interface {
	// DurableLSN returns the LSN up to which the log is durable.
	DurableLSN() LSN
	// SyncTo forces the log durable through at least lsn.
	SyncTo(lsn LSN) error
	// OldestActiveLSN returns the begin LSN of the oldest statement
	// still in flight, or InfiniteLSN when none is. Any page whose
	// pageLSN is at or past this point may reflect uncommitted work.
	OldestActiveLSN() LSN
}

// HeapLogger receives physiological redo records for heap-file page
// mutations. A statement scope (wal.Scope) implements it; each call
// appends one record and stamps the page's in-memory pageLSN. Methods
// are called with the mutated page still resident in the buffer pool.
type HeapLogger interface {
	// HeapNewPage records that the file grew by a freshly allocated,
	// slotted-initialized page of size bytes. Doubles as the page's init
	// record.
	HeapNewPage(page PageID, size int) error
	// HeapGrow records that page, a sub-page, grew in place to size
	// bytes (SlottedPage.Grow).
	HeapGrow(page PageID, size int) error
	// HeapInsert records an insert that landed in slot on page.
	HeapInsert(page PageID, slot uint16, rec []byte) error
	// HeapInsertAt records a restore of rec into a tombstoned slot.
	HeapInsertAt(page PageID, slot uint16, rec []byte) error
	// HeapDelete records a tombstoning of slot on page.
	HeapDelete(page PageID, slot uint16) error
	// HeapUpdate records an in-place rewrite of slot on page.
	HeapUpdate(page PageID, slot uint16, rec []byte) error
}
