package wal

import (
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/storage"
)

// FuzzDecodeFrames throws arbitrary bytes at the frame decoder recovery,
// RestoreLog and IngestDurable run over durable log bytes. It must never
// panic; the end it reports must cover whole frames only, each decoded
// record ending exactly on one; and decoding just those bytes must give
// the same records and the same end.
func FuzzDecodeFrames(f *testing.F) {
	seeds := []*Record{
		{Kind: KBegin, Txn: 1},
		{Kind: KHeapInsert, Txn: 1, Page: 7, Slot: 2, Table: "account", Data: []byte("row")},
		{Kind: KBTreeInsert, Txn: 1, Page: 9, Key: []byte{0, 1, 2}, Data: []byte{7, 0, 2}},
		{Kind: KBTreeRoot, Txn: 1, Page: 9, Page2: 12},
		{Kind: KPageAlloc, Txn: 1, Page: 12, Cat: storage.CatIndex},
		{Kind: KCatalog, Txn: 2, Data: []byte(`{"op":"create_table","table":"t"}`)},
		{Kind: KCommit, Txn: 1},
		{Kind: KCheckpoint, Data: []byte(`{"catalog":{"tables":null,"version":3}}`)},
	}
	var all []byte
	for _, r := range seeds {
		one := appendFrame(nil, r)
		all = appendFrame(all, r)
		f.Add(one, uint32(1))
	}
	f.Add(all, uint32(1))
	f.Add(all[:len(all)-3], uint32(4096)) // torn tail
	f.Add([]byte{}, uint32(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, uint32(1)) // length past the buffer

	f.Fuzz(func(t *testing.T, buf []byte, b uint32) {
		base := LSN(b)
		recs, end := decodeFrames(buf, base)
		if end < base || int(end-base) > len(buf) {
			t.Fatalf("end %d outside [%d, %d]", end, base, base+LSN(len(buf)))
		}
		off := 0
		for i, r := range recs {
			off += frameHeader + int(binary.LittleEndian.Uint32(buf[off:off+4]))
			if r.LSN != base+LSN(off) {
				t.Fatalf("record %d ends at %d, its frame at %d", i, r.LSN, base+LSN(off))
			}
		}
		if base+LSN(off) != end {
			t.Fatalf("end %d, but the decoded frames end at %d", end, base+LSN(off))
		}
		again, end2 := decodeFrames(buf[:end-base], base)
		if end2 != end || !reflect.DeepEqual(again, recs) {
			t.Fatalf("decoding the covered prefix gave %d records to %d, want %d to %d", len(again), end2, len(recs), end)
		}
	})
}
