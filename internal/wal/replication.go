package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"
)

// This file is the log-shipping surface of the WAL: frame-aligned reads
// of the durable prefix for the primary-side shipper, a record cursor
// that tolerates a concurrent group-commit appender (replication's
// tail-read path), and the follower-side ingest that keeps a replica's
// log a byte-for-byte prefix mirror of the primary's stream.

// ErrTruncatedHistory is returned when a read position has been
// truncated away by a checkpoint: the reader must re-bootstrap from a
// snapshot instead of tailing the log.
var ErrTruncatedHistory = errors.New("wal: requested LSN truncated from log")

// ErrStreamGap is returned by IngestDurable when the offered bytes do
// not join the durable prefix: accepting them would tear the stream.
var ErrStreamGap = errors.New("wal: ingest would leave a gap in the stream")

// DurableBounds returns the retained durable byte range as LSNs:
// [base, end). base is the truncation point; end the durable horizon.
func (l *Log) DurableBounds() (base, end LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base, l.durableEndLocked()
}

// ReadDurable copies whole durable frames starting at the frame whose
// first byte sits at from, up to roughly maxBytes (always at least one
// frame when one is available). It returns the copied bytes and the LSN
// of the first byte past them — the next read position. from below the
// truncation point yields ErrTruncatedHistory (the caller needs a
// snapshot); from at the durable horizon yields an empty read.
//
// The durable prefix only ever grows at the end (truncation moves base,
// never rewrites retained bytes), so the copy is a consistent stream
// slice regardless of concurrent appends and syncs.
func (l *Log) ReadDurable(from LSN, maxBytes int) (buf []byte, next LSN, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.base {
		return nil, 0, fmt.Errorf("%w (want %d, base %d)", ErrTruncatedHistory, from, l.base)
	}
	end := l.durableEndLocked()
	if from > end {
		return nil, 0, fmt.Errorf("wal: read past durable horizon (want %d, end %d)", from, end)
	}
	off := int(from - l.base)
	n := 0
	for {
		if off+n+frameHeader > len(l.durable) {
			break
		}
		fl := int(binary.LittleEndian.Uint32(l.durable[off+n : off+n+4]))
		if off+n+frameHeader+fl > len(l.durable) {
			break
		}
		n += frameHeader + fl
		if n >= maxBytes {
			break
		}
	}
	if n == 0 {
		return nil, from, nil
	}
	return append([]byte(nil), l.durable[off:off+n]...), from + LSN(n), nil
}

// WaitDurable blocks until the durable horizon moves past after, a
// checkpoint truncates past it, or the log crashes. It returns the new
// horizon; a crash returns ErrCrashed. The group-commit sync path
// broadcasts on every completed sync, which is the wakeup.
func (l *Log) WaitDurable(after LSN) (LSN, error) {
	return l.WaitDurableCancel(after, nil)
}

// WaitDurableCancel is WaitDurable with a cancellation flag: a waiter
// parked here returns ErrCancelled once cancel is set AND someone calls
// Wake (or any sync broadcasts). The shipper's connection teardown uses
// it to unpark a subscriber stream blocked on an idle primary.
func (l *Log) WaitDurableCancel(after LSN, cancel *atomic.Bool) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if cancel != nil && cancel.Load() {
			return 0, ErrCancelled
		}
		if l.crashed {
			return 0, ErrCrashed
		}
		if end := l.durableEndLocked(); end > after {
			return end, nil
		}
		l.cond.Wait()
	}
}

// ErrCancelled reports that a WaitDurableCancel waiter was unparked by
// its cancellation flag rather than by new durable bytes.
var ErrCancelled = errors.New("wal: wait cancelled")

// Wake broadcasts to durability waiters without changing log state.
// Pair with the cancel flag of WaitDurableCancel.
func (l *Log) Wake() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cond.Broadcast()
}

// RestoreLog builds a log whose durable prefix is a shipped byte range
// of a primary's stream — the follower bootstrap path. base is the
// stream offset of durable[0]; any torn suffix is trimmed. The
// active-transaction map is rebuilt from the records so the no-steal
// gate treats the primary's open transactions as live from the start.
func RestoreLog(cfg Config, base LSN, durable []byte) *Log {
	l := New(cfg)
	l.base = base
	l.durable = append([]byte(nil), durable...)
	recs, end := decodeFrames(l.durable, base)
	l.durable = l.durable[:end-base]
	for _, r := range recs {
		l.trackTxnLocked(r)
	}
	return l
}

// IngestDurable appends shipped stream bytes directly to the durable
// prefix — the follower-side mirror of the primary's ReadDurable. start
// is the stream offset of buf[0]. Overlap with bytes already held is
// deduplicated by offset (re-subscribing from an older position is
// idempotent: the held prefix is skipped, not re-applied), and bytes
// that would leave a gap are rejected. Only whole, checksummed frames
// are accepted; a torn suffix fails the ingest without admitting any of
// its bytes.
//
// Transaction bookkeeping (the active map driving the no-steal gate and
// checkpoint truncation) is maintained from the ingested records, so a
// follower's log behaves exactly like a primary's for the buffer pool
// and recovery — it just never appends records of its own.
func (l *Log) IngestDurable(start LSN, buf []byte) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed {
		return 0, ErrCrashed
	}
	if len(l.tail) != 0 {
		return 0, errors.New("wal: ingest into a log with a volatile tail")
	}
	end := l.durableEndLocked()
	if start > end {
		return 0, fmt.Errorf("%w (stream at %d, offered %d)", ErrStreamGap, end, start)
	}
	if skip := int(end - start); skip > 0 {
		if skip >= len(buf) {
			return end, nil // entirely already held
		}
		buf = buf[skip:]
	}
	// Validate: whole frames only, checksums intact, records decodable.
	recs, parsedEnd := decodeFrames(buf, end)
	if parsedEnd != end+LSN(len(buf)) {
		return 0, fmt.Errorf("wal: ingest of torn or corrupt frames at %d", parsedEnd)
	}
	l.extendDurableLocked(buf)
	l.stats.BytesAppended += int64(len(buf))
	l.stats.Records += int64(len(recs))
	l.bytesSinceCkpt += int64(len(buf))
	for _, r := range recs {
		l.trackTxnLocked(r)
	}
	l.cond.Broadcast()
	return l.durableEndLocked(), nil
}

// trackTxnLocked maintains the active-transaction map (and the txn-id
// high-water mark) from a record that entered the log without going
// through Begin/endTxn — the ingest and recovery paths.
func (l *Log) trackTxnLocked(r *Record) {
	if r.Txn == 0 {
		return
	}
	if r.Txn > l.nextTxn {
		l.nextTxn = r.Txn
	}
	switch r.Kind {
	case KBegin:
		l.active[r.Txn] = r.LSN
	case KCommit, KAbort:
		delete(l.active, r.Txn)
	}
}

// RecoverActive rebuilds the active-transaction map from the retained
// durable records. A follower calls it after crash recovery: Reopen
// clears the map (on a primary the in-flight statements died with the
// crash), but a replica's open transactions are the PRIMARY's — their
// terminators arrive later over the stream, so the no-steal gate must
// keep treating them as live.
func (l *Log) RecoverActive() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.active = make(map[uint64]LSN)
	recs, _ := decodeFrames(l.durable, l.base)
	for _, r := range recs {
		l.trackTxnLocked(r)
	}
}

// Cursor iterates the durable records of a live log from a starting
// LSN. Unlike DurableRecords — which decodes a quiesced log once — a
// cursor re-reads under the log's lock on every step, so it tolerates a
// concurrent group-commit appender: records that become durable after
// the cursor was opened are simply returned by later Next calls.
type Cursor struct {
	l   *Log
	pos LSN // frame-start offset of the next record
}

// ReadFrom opens a cursor whose first Next returns the record whose
// frame starts at lsn. lsn must be a frame boundary (Base(), a frame
// start handed out by AppendCheckpoint, or a position a previous cursor
// reached); a position inside a frame fails checksum validation on the
// first Next.
func (l *Log) ReadFrom(lsn LSN) *Cursor { return &Cursor{l: l, pos: lsn} }

// Pos returns the stream offset of the next unread frame.
func (c *Cursor) Pos() LSN { return c.pos }

// Next returns the next durable record. ok=false with a nil error means
// the cursor has caught up with the durable horizon — more records may
// become durable later, and Next can simply be called again. A position
// truncated away returns ErrTruncatedHistory; a corrupt frame inside
// the durable prefix (which syncs only ever extend by whole frames)
// returns a decode error.
func (c *Cursor) Next() (r *Record, ok bool, err error) {
	l := c.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if c.pos < l.base {
		return nil, false, fmt.Errorf("%w (cursor at %d, base %d)", ErrTruncatedHistory, c.pos, l.base)
	}
	off := int(c.pos - l.base)
	if len(l.durable)-off < frameHeader {
		return nil, false, nil
	}
	n := int(binary.LittleEndian.Uint32(l.durable[off : off+4]))
	sum := binary.LittleEndian.Uint32(l.durable[off+4 : off+8])
	if len(l.durable)-off-frameHeader < n {
		return nil, false, nil
	}
	payload := l.durable[off+frameHeader : off+frameHeader+n]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, false, fmt.Errorf("wal: corrupt frame at %d", c.pos)
	}
	// Decode a copy: the record outlives l.mu, the log's buffer does not
	// (TruncateTo compacts it in place).
	rec, derr := decodeRecord(append([]byte(nil), payload...))
	if derr != nil {
		return nil, false, fmt.Errorf("wal: undecodable frame at %d: %w", c.pos, derr)
	}
	c.pos += LSN(frameHeader + n)
	rec.LSN = c.pos
	return rec, true, nil
}
