// Package wal implements the engine's durability subsystem: an
// append-only, LSN-addressed write-ahead log of physiological redo
// records, group-commit batching of sync calls, fuzzy checkpoints with
// log truncation, and the crash-point fault hooks the recovery test
// harness drives.
//
// The log models a real commit log the way storage.Disk models a real
// disk: appends land in a volatile tail, Sync moves the tail into the
// durable prefix, and a crash discards everything volatile. Recovery
// therefore sees exactly what a machine would find after power loss —
// the durable prefix, possibly ending in a torn record.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/storage"
)

// LSN aliases storage.LSN: the byte offset just past a record's frame.
type LSN = storage.LSN

// Kind enumerates the redo record types.
type Kind uint8

const (
	// KBegin opens a statement scope.
	KBegin Kind = iota + 1
	// KCommit makes a statement's effects recoverable. A statement is
	// redone at recovery iff its commit record is in the durable log.
	KCommit
	// KAbort closes a rolled-back statement. Its records (including the
	// logged compensations) are skipped wholesale at recovery.
	KAbort
	// KCheckpoint carries a catalog snapshot plus the dirty-page table;
	// recovery starts its metadata model from the last one.
	KCheckpoint
	// KPageAlloc records a fresh page allocation (Cat tags it, Slot its
	// size: 0 a full page). Committed allocs replay as no-ops (the disk
	// survives); uncommitted ones are freed by recovery's loser cleanup.
	KPageAlloc
	// KPageFree records a page release. Appended before the commit
	// record; the physical free runs only after the commit is durable.
	KPageFree
	// KHeapNewPage records heap-file growth by a page of Slot bytes;
	// replay appends the page to the table's page list and
	// slotted-initializes it if it predates the page's on-disk LSN.
	KHeapNewPage
	// KHeapInsert is a heap insert: Data landed in Slot on Page.
	KHeapInsert
	// KHeapInsertAt restores Data into tombstoned Slot on Page.
	KHeapInsertAt
	// KHeapDelete tombstones Slot on Page.
	KHeapDelete
	// KHeapUpdate rewrites Slot on Page with Data.
	KHeapUpdate
	// KBTreeInit formats Page as an empty leaf (a new tree's root);
	// Slot 1 makes it a leaf whose keys end in their RIDs.
	KBTreeInit
	// KBTreeInsert adds Key to the leaf on Page with value Data, as the
	// leaf stores it (empty where the key ends in its RID).
	KBTreeInsert
	// KBTreeDelete removes Key from the leaf on Page.
	KBTreeDelete
	// The number after KBTreeDelete is reserved (it named an in-place
	// RID repoint), so the kinds after it keep their numbers.
	_
	// KBTreeImage replaces Page with the node image in Data — the
	// structural record for splits and sheds, where per-key logging
	// would have to replay the algorithm byte for byte. Data omits the
	// free gap between the directory and the entry heap, which replay
	// zeroes: the header, prefix and directory, then the heap.
	KBTreeImage
	// KBTreeRoot records a root change: Page is the old root, Page2 the
	// new one. Recovery matches trees by their current root.
	KBTreeRoot
	// KCatalog carries a JSON-encoded DDL change (create/drop table or
	// index, add column).
	KCatalog
	// KSavepoint marks a savepoint inside a transaction scope; Data is
	// the savepoint name. Purely informational for recovery: a partial
	// rollback appends logical compensations through the same loggers,
	// so redo needs no special handling.
	KSavepoint
	// KHeapGrow records that Page, a heap's only page, grew in place to
	// Slot bytes; it moves no row, so it replays whatever its txn's fate.
	KHeapGrow
)

var kindNames = map[Kind]string{
	KBegin: "begin", KCommit: "commit", KAbort: "abort",
	KCheckpoint: "checkpoint", KPageAlloc: "page-alloc", KPageFree: "page-free",
	KHeapNewPage: "heap-new-page", KHeapInsert: "heap-insert",
	KHeapInsertAt: "heap-insert-at", KHeapDelete: "heap-delete",
	KHeapUpdate: "heap-update", KBTreeInit: "btree-init",
	KBTreeInsert: "btree-insert", KBTreeDelete: "btree-delete",
	KBTreeImage: "btree-image", KBTreeRoot: "btree-root",
	KCatalog: "catalog", KSavepoint: "savepoint", KHeapGrow: "heap-grow",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Record is one log entry. A single struct covers every kind; unused
// fields encode as single zero bytes, which keeps the format uniform
// and the decoder total.
type Record struct {
	Kind  Kind
	Txn   uint64 // owning transaction (autocommit: statement), 0 for checkpoints
	Page  storage.PageID
	Page2 storage.PageID // KBTreeRoot: the new root
	Slot  uint16
	Cat   storage.Category
	Table string // heap records: owning table name
	Key   []byte // btree key
	Data  []byte // heap record bytes / leaf value / node image / JSON payload

	// LSN is the offset just past this record's frame, filled in by
	// Append and by the recovery decoder. It is not part of the payload.
	LSN LSN
}

// Mutates reports whether the record addresses a page (and so
// participates in pageLSN-based redo skipping).
func (r *Record) Mutates() bool {
	switch r.Kind {
	case KHeapNewPage, KHeapInsert, KHeapInsertAt, KHeapDelete, KHeapUpdate,
		KHeapGrow, KBTreeInit, KBTreeInsert, KBTreeDelete, KBTreeImage:
		return true
	}
	return false
}

// encode serializes the record payload (everything but the frame).
func (r *Record) encode(dst []byte) []byte {
	dst = append(dst, byte(r.Kind), byte(r.Cat))
	dst = binary.AppendUvarint(dst, r.Txn)
	dst = binary.AppendUvarint(dst, uint64(r.Page))
	dst = binary.AppendUvarint(dst, uint64(r.Page2))
	dst = binary.AppendUvarint(dst, uint64(r.Slot))
	dst = binary.AppendUvarint(dst, uint64(len(r.Table)))
	dst = append(dst, r.Table...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Data)))
	dst = append(dst, r.Data...)
	return dst
}

// decodeRecord parses one payload. It fails (rather than panics) on any
// truncation, so a torn frame that passed the CRC by luck still cannot
// crash recovery.
func decodeRecord(p []byte) (*Record, error) {
	if len(p) < 2 {
		return nil, fmt.Errorf("wal: record payload of %d bytes", len(p))
	}
	r := &Record{Kind: Kind(p[0]), Cat: storage.Category(p[1])}
	p = p[2:]
	u := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, fmt.Errorf("wal: truncated varint in %s record", r.Kind)
		}
		p = p[n:]
		return v, nil
	}
	bs := func() ([]byte, error) {
		n, err := u()
		if err != nil {
			return nil, err
		}
		if uint64(len(p)) < n {
			return nil, fmt.Errorf("wal: truncated bytes in %s record", r.Kind)
		}
		out := p[:n:n]
		p = p[n:]
		return out, nil
	}
	var v uint64
	var err error
	if r.Txn, err = u(); err != nil {
		return nil, err
	}
	if v, err = u(); err != nil {
		return nil, err
	}
	r.Page = storage.PageID(v)
	if v, err = u(); err != nil {
		return nil, err
	}
	r.Page2 = storage.PageID(v)
	if v, err = u(); err != nil {
		return nil, err
	}
	r.Slot = uint16(v)
	tb, err := bs()
	if err != nil {
		return nil, err
	}
	r.Table = string(tb)
	if r.Key, err = bs(); err != nil {
		return nil, err
	}
	if r.Data, err = bs(); err != nil {
		return nil, err
	}
	return r, nil
}

// Frame layout: [len uint32][crc32c(payload) uint32][payload]. A
// record's LSN is the offset just past its frame.
const frameHeader = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends r's frame to dst, encoding the payload in place.
func appendFrame(dst []byte, r *Record) []byte {
	var hdr [frameHeader]byte
	at := len(dst)
	dst = r.encode(append(dst, hdr[:]...))
	payload := dst[at+frameHeader:]
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[at+4:], crc32.Checksum(payload, crcTable))
	return dst
}

// decodeFrames parses every complete, checksummed frame in buf, whose
// first byte sits at stream offset base. A short or corrupt frame ends
// the scan — that is the torn tail a crash mid-sync leaves behind — and
// the offset of the first byte past the last good frame is returned.
func decodeFrames(buf []byte, base LSN) (recs []*Record, end LSN) {
	off := 0
	for {
		if len(buf)-off < frameHeader {
			return recs, base + LSN(off)
		}
		n := int(binary.LittleEndian.Uint32(buf[off : off+4]))
		sum := binary.LittleEndian.Uint32(buf[off+4 : off+8])
		if len(buf)-off-frameHeader < n {
			return recs, base + LSN(off)
		}
		payload := buf[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, crcTable) != sum {
			return recs, base + LSN(off)
		}
		r, err := decodeRecord(payload)
		if err != nil {
			return recs, base + LSN(off)
		}
		off += frameHeader + n
		r.LSN = base + LSN(off)
		recs = append(recs, r)
	}
}
