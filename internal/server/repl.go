package server

import (
	"bufio"
	"errors"
	"sync/atomic"

	"repro/internal/protocol"
	"repro/internal/wal"
)

// Replication ship loop: a connection that sends ReplSubscribe stops
// being a statement connection and becomes a one-way WAL stream. The
// primary ships durable frame ranges as fast as the follower's socket
// drains them, parks on the log's durability broadcast when caught up,
// and reads applied-position acks on a side goroutine for lag
// telemetry (never for flow control — a slow follower only backlogs
// its own socket).

// replShipChunk bounds one ReplFrames payload. Well under
// protocol.MaxFrame, large enough to amortize framing on catch-up.
const replShipChunk = 512 << 10

// replSnapshotChunk bounds one ReplSnapshot payload.
const replSnapshotChunk = 1 << 20

// serveReplication runs the ship loop until the connection dies or the
// subscriber cancels. Called from handleConn; when it returns the
// connection is reaped.
func (s *Server) serveReplication(c *connState, br *bufio.Reader, w *connWriter, sub *protocol.ReplSubscribe) {
	db := s.cfg.DB
	log := db.WAL()

	// Ack reader: drains ReplAck frames for telemetry and doubles as the
	// disconnect detector — when the peer goes away (or misbehaves), the
	// cancel flag plus a Wake unparks a ship loop idling in WaitDurable.
	var cancel atomic.Bool
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		defer func() {
			cancel.Store(true)
			log.Wake()
		}()
		for {
			msg, err := protocol.ReadMsg(br)
			if err != nil {
				return
			}
			ack, ok := msg.(*protocol.ReplAck)
			if !ok {
				return
			}
			db.NoteReplAck(wal.LSN(ack.Applied))
		}
	}()
	defer func() {
		// Kill the socket so the ack reader's blocked ReadFrame returns,
		// then wait it out — reap (our caller) closes again idempotently.
		c.nc.Close()
		<-ackDone
	}()

	pos := wal.LSN(sub.From)

	// Bootstrap: a position below retained history (0 = "I have
	// nothing") cannot be tailed; ship a full image first. The image is
	// cut just after a checkpoint, so its log tail is short.
	if base, _ := log.DurableBounds(); pos < base {
		img, err := db.ReplImage()
		if err != nil {
			writeMsg(w, &protocol.Error{Code: protocol.CodeSQL, Msg: err.Error()})
			return
		}
		blob, err := img.Encode()
		if err != nil {
			writeMsg(w, &protocol.Error{Code: protocol.CodeSQL, Msg: err.Error()})
			return
		}
		for off := 0; ; off += replSnapshotChunk {
			end := off + replSnapshotChunk
			last := end >= len(blob)
			if last {
				end = len(blob)
			}
			if err := w.send(&protocol.ReplSnapshot{Last: last, Chunk: blob[off:end]}); err != nil {
				return
			}
			if last {
				break
			}
		}
		if err := w.flush(); err != nil {
			return
		}
		// Everything inside the image is already on the follower; tail
		// from its durable horizon.
		pos = img.LogBase + wal.LSN(len(img.Log))
	}

	for {
		buf, next, err := log.ReadDurable(pos, replShipChunk)
		if err != nil {
			// Truncated history (a checkpoint outran a stalled shipper) or
			// a crashed log: either way this stream is over; the follower
			// reconnects and re-subscribes (re-bootstrapping if told to).
			if errors.Is(err, wal.ErrTruncatedHistory) {
				writeMsg(w, &protocol.Error{Code: protocol.CodeSQL, Msg: err.Error()})
			}
			return
		}
		if next > pos {
			if err := w.send(&protocol.ReplFrames{Start: uint64(pos), Frames: buf}); err != nil {
				return
			}
			if err := w.flush(); err != nil {
				return
			}
			pos = next
			db.NoteReplShipped(pos)
			continue
		}
		if _, err := log.WaitDurableCancel(pos, &cancel); err != nil {
			return
		}
	}
}
