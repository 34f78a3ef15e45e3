// Package repl is WAL-shipping replication glue above the engine: an
// in-process Follower (deterministic transport for tests and the
// torture suite) and a network Replica that subscribes to an mtdserver
// primary over the wire protocol, bootstraps from a shipped snapshot,
// and applies the stream continuously (see replica.go).
//
// The heavy lifting lives below: wal.ReadDurable/IngestDurable keep the
// follower's log a byte-prefix mirror of the primary's stream, and
// engine.Applier replays it into pages, catalogs, and MVCC state so
// follower reads are snapshot-consistent at the last applied commit.
package repl

import (
	"repro/internal/engine"
	"repro/internal/wal"
)

// Follower is an in-process replica: same machine, no sockets, fed
// either by explicit CatchUp pulls against the primary or by Feed calls
// carrying shipped byte ranges. Tests use it because every transfer is
// an ordinary function call — deterministic, crashable at any site.
type Follower struct {
	// DB is the replica database. Read-only: sessions work, writes are
	// rejected with engine.ErrReadOnlyReplica.
	DB *engine.DB
	// App applies the primary's stream onto DB.
	App *engine.Applier
}

// Bootstrap builds a follower from a primary's replication image
// (checkpoint + retained log), exactly what a network subscriber
// receives as its snapshot.
func Bootstrap(primary *engine.DB) (*Follower, error) {
	img, err := primary.ReplImage()
	if err != nil {
		return nil, err
	}
	db, app, err := engine.OpenReplica(img)
	if err != nil {
		return nil, err
	}
	return &Follower{DB: db, App: app}, nil
}

// chunkBytes is the pull granularity of CatchUp — small enough that a
// big backlog takes many transfers (more crash sites for the torture
// suite), large enough to stay cheap.
const chunkBytes = 64 << 10

// CatchUp pulls the primary's durable log from the follower's horizon
// until none remains, applying as it goes. It returns the number of
// bytes transferred. A follower that fell behind a checkpoint
// truncation gets wal.ErrTruncatedHistory — the caller re-bootstraps.
func (f *Follower) CatchUp(primary *engine.DB) (int, error) {
	src := primary.WAL()
	total := 0
	for {
		pos := f.DB.WAL().DurableLSN()
		buf, next, err := src.ReadDurable(pos, chunkBytes)
		if err != nil {
			return total, err
		}
		if next == pos {
			return total, nil
		}
		if _, err := f.App.Feed(pos, buf); err != nil {
			return total, err
		}
		total += len(buf)
	}
}

// Feed hands one shipped byte range to the applier (the network
// transport's entry point; exposed on Follower for symmetry).
func (f *Follower) Feed(start wal.LSN, buf []byte) (wal.LSN, error) {
	return f.App.Feed(start, buf)
}

// Crash tears the follower down mid-flight (buffer pool dropped, log
// frozen) and returns the crash image Recover restarts from.
func (f *Follower) Crash() *engine.CrashImage {
	return f.DB.Crash()
}

// Recover restarts a crashed follower from its image, preserving
// replica semantics (open primary transactions stay open, write fence
// stays up).
func Recover(img *engine.CrashImage) (*Follower, error) {
	db, app, err := engine.RecoverReplica(img)
	if err != nil {
		return nil, err
	}
	return &Follower{DB: db, App: app}, nil
}
