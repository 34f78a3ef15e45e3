package engine

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/storage"
	"repro/internal/wal"
)

// ErrReadOnlyReplica rejects any statement that would write — DML, DDL,
// or a savepoint — on a database opened as a replication follower. The
// follower's log is a byte-for-byte mirror of the primary's stream; a
// local append would fork it.
var ErrReadOnlyReplica = errors.New("engine: database is a read-only replica")

// ReadOnly reports whether the write fence is up.
func (db *DB) ReadOnly() bool { return db.readOnly.Load() }

// NoteReplShipped records the furthest stream position handed to any
// subscriber (primary-side telemetry; monotonic).
func (db *DB) NoteReplShipped(lsn wal.LSN) {
	for {
		cur := db.replShippedLSN.Load()
		if uint64(lsn) <= cur {
			return
		}
		if db.replShippedLSN.CompareAndSwap(cur, uint64(lsn)) {
			return
		}
	}
}

// NoteReplAck records a subscriber's applied-position acknowledgement
// (primary-side telemetry; keeps the furthest confirmed position).
func (db *DB) NoteReplAck(applied wal.LSN) {
	db.replAckRounds.Add(1)
	for {
		cur := db.replAckedLSN.Load()
		if uint64(applied) <= cur {
			return
		}
		if db.replAckedLSN.CompareAndSwap(cur, uint64(applied)) {
			return
		}
	}
}

// ReplImage is everything a follower needs to bootstrap: a page-level
// disk snapshot taken just after a checkpoint, the retained log tail
// (base..durable end — open transactions at snapshot time are covered
// because truncation respects the oldest active scope), and the
// primary's configuration so both sides agree on page size and layout.
// JSON-encodable for the wire.
type ReplImage struct {
	Disk    *storage.DiskImage `json:"disk"`
	LogBase wal.LSN            `json:"log_base"`
	Log     []byte             `json:"log"`
	Cfg     Config             `json:"cfg"`
}

// Encode serializes the image for shipping.
func (img *ReplImage) Encode() ([]byte, error) { return json.Marshal(img) }

// DecodeReplImage parses a shipped bootstrap image.
func DecodeReplImage(b []byte) (*ReplImage, error) {
	img := &ReplImage{}
	if err := json.Unmarshal(b, img); err != nil {
		return nil, fmt.Errorf("engine: decode replica image: %w", err)
	}
	if img.Disk == nil {
		return nil, errors.New("engine: replica image has no disk snapshot")
	}
	return img, nil
}

// ReplImage produces a follower bootstrap image. It holds the DDL fence
// exclusively — no statement is mid-flight — checkpoints (flushing all
// committed page state and shrinking the tail the follower must
// replay), then snapshots disk and retained log together. Open session
// transactions are fine: the no-steal gate kept their bytes off disk,
// truncation kept their log records, and replica recovery leaves them
// open in the follower's applier.
func (db *DB) ReplImage() (*ReplImage, error) {
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	if err := db.checkpointLocked(); err != nil {
		return nil, err
	}
	base, end := db.log.DurableBounds()
	var buf []byte
	if end > base {
		b, next, err := db.log.ReadDurable(base, int(end-base))
		if err != nil {
			return nil, err
		}
		if next != end {
			return nil, fmt.Errorf("engine: short log read for replica image (got %d, want %d)", next, end)
		}
		buf = b
	}
	return &ReplImage{
		Disk:    db.disk.Snapshot(),
		LogBase: base,
		Log:     buf,
		Cfg:     db.cfg,
	}, nil
}

// OpenReplica materializes a follower from a bootstrap image: restore
// the disk and the mirrored log, run replica-mode recovery (replaying
// the retained tail, the primary's open transactions left open), and
// hand back the read-only DB plus the applier that will consume the
// live stream from the durable horizon onward.
func OpenReplica(img *ReplImage) (*DB, *Applier, error) {
	cfg := img.Cfg
	disk := storage.RestoreDisk(img.Disk)
	disk.ReadLatency = cfg.ReadLatency
	log := wal.RestoreLog(wal.Config{
		SyncLatency:   cfg.SyncLatency,
		NoGroupCommit: cfg.NoGroupCommit,
	}, img.LogBase, img.Log)
	return RecoverReplica(&CrashImage{Disk: disk, Log: log, Cfg: cfg})
}

// RecoverReplica restarts a crashed follower from its own crash image
// (the same shape a primary restart uses), preserving replica-mode
// semantics: the primary's open transactions replay and stay open in
// the returned applier, and the write fence goes up before the DB is
// returned.
func RecoverReplica(img *CrashImage) (*DB, *Applier, error) {
	db, _, a, err := recoverImpl(img, true)
	if err != nil {
		return nil, nil, err
	}
	return db, a, nil
}
