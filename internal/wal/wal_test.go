package wal

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

func rec(kind Kind, stmt uint64) *Record {
	return &Record{Kind: kind, Txn: stmt, Page: 7, Slot: 2, Data: []byte("payload")}
}

func TestAppendSyncDurability(t *testing.T) {
	l := New(Config{})
	if got := l.DurableLSN(); got != 1 {
		t.Fatalf("empty log DurableLSN = %d, want 1", got)
	}
	var lsns []LSN
	for i := 0; i < 3; i++ {
		lsn, err := l.Append(rec(KHeapInsert, 1))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	for i := 1; i < len(lsns); i++ {
		if lsns[i] <= lsns[i-1] {
			t.Fatalf("LSNs not increasing: %v", lsns)
		}
	}
	// Nothing durable before a sync.
	if got := l.DurableLSN(); got != 1 {
		t.Fatalf("pre-sync DurableLSN = %d, want 1", got)
	}
	if n := len(l.DurableRecords()); n != 0 {
		t.Fatalf("pre-sync durable records = %d, want 0", n)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableLSN(); got != l.Head() {
		t.Fatalf("post-sync DurableLSN = %d, Head = %d", got, l.Head())
	}
	recs := l.DurableRecords()
	if len(recs) != 3 {
		t.Fatalf("durable records = %d, want 3", len(recs))
	}
	for i, r := range recs {
		if r.LSN != lsns[i] {
			t.Fatalf("decoded LSN[%d] = %d, want %d", i, r.LSN, lsns[i])
		}
		if r.Kind != KHeapInsert || r.Txn != 1 || r.Page != 7 || r.Slot != 2 || string(r.Data) != "payload" {
			t.Fatalf("decoded record mismatch: %+v", r)
		}
	}
}

func TestCrashDropsTail(t *testing.T) {
	l := New(Config{})
	for i := 0; i < 3; i++ {
		if _, err := l.Append(rec(KHeapInsert, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := l.Append(rec(KHeapDelete, 2)); err != nil {
			t.Fatal(err)
		}
	}
	l.Crash()
	if _, err := l.Append(rec(KHeapInsert, 3)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append after crash = %v, want ErrCrashed", err)
	}
	l.Reopen()
	if n := len(l.DurableRecords()); n != 3 {
		t.Fatalf("post-reopen records = %d, want 3 (tail dropped)", n)
	}
	// The log works again after reopen.
	if _, err := l.Append(rec(KHeapInsert, 4)); err != nil {
		t.Fatal(err)
	}
}

func TestPartialSyncTrimsTornFrame(t *testing.T) {
	l := New(Config{})
	lsn1, err := l.Append(rec(KHeapInsert, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(rec(KHeapInsert, 1)); err != nil {
		t.Fatal(err)
	}
	// Tear the sync three bytes into the second frame.
	torn := int(lsn1-1) + 3
	l.SetFault(func(op FaultOp, seq int64) error {
		if op == OpSync {
			return &PartialSyncError{Bytes: torn}
		}
		return nil
	})
	err = l.Sync()
	var pse *PartialSyncError
	if !errors.As(err, &pse) {
		t.Fatalf("sync = %v, want PartialSyncError", err)
	}
	l.Reopen()
	recs := l.DurableRecords()
	if len(recs) != 1 {
		t.Fatalf("post-torn-sync records = %d, want 1", len(recs))
	}
	if recs[0].LSN != lsn1 {
		t.Fatalf("survivor LSN = %d, want %d", recs[0].LSN, lsn1)
	}
	if l.DurableLSN() != lsn1 {
		t.Fatalf("DurableLSN = %d, want %d (torn suffix trimmed)", l.DurableLSN(), lsn1)
	}
}

func TestTruncate(t *testing.T) {
	l := New(Config{})
	var lsns []LSN
	for i := 0; i < 4; i++ {
		lsn, err := l.Append(rec(KHeapInsert, 1))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Truncate to the start of the third record's frame, i.e. the second
	// record's end LSN.
	l.TruncateTo(lsns[1])
	if l.Base() != lsns[1] {
		t.Fatalf("Base = %d, want %d", l.Base(), lsns[1])
	}
	recs := l.DurableRecords()
	if len(recs) != 2 {
		t.Fatalf("post-truncate records = %d, want 2", len(recs))
	}
	if recs[0].LSN != lsns[2] || recs[1].LSN != lsns[3] {
		t.Fatalf("post-truncate LSNs = %d,%d want %d,%d", recs[0].LSN, recs[1].LSN, lsns[2], lsns[3])
	}
	if s := l.Stats(); s.TruncatedBytes == 0 {
		t.Fatal("TruncatedBytes not counted")
	}
	// Truncating backwards is a no-op.
	l.TruncateTo(1)
	if l.Base() != lsns[1] {
		t.Fatalf("backward truncate moved base to %d", l.Base())
	}
}

// TestTruncateCompactsInPlace: truncation slides the retained bytes to
// the front of the same buffer, so the log keeps its capacity across
// checkpoints — and so no record handed out earlier may point into that
// buffer. Records from DurableRecords and from a cursor must read the
// same after a truncation and further appends overwrote the bytes they
// were decoded from.
func TestTruncateCompactsInPlace(t *testing.T) {
	l := New(Config{})
	var lsns []LSN
	for i := 0; i < 8; i++ {
		r := rec(KHeapInsert, 1)
		r.Data = bytes.Repeat([]byte{byte('a' + i)}, 100)
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	recs := l.DurableRecords()
	cur := l.ReadFrom(lsns[5])
	fromCursor, ok, err := cur.Next()
	if err != nil || !ok {
		t.Fatalf("cursor: %v %v", ok, err)
	}
	capBefore := cap(l.durable)

	l.TruncateTo(lsns[5]) // keeps two records; six more refill the buffer
	for i := 0; i < 6; i++ {
		r := rec(KHeapInsert, 1)
		r.Data = bytes.Repeat([]byte{'z'}, 100)
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if cap(l.durable) != capBefore {
		t.Errorf("capacity %d after truncate and refill, was %d: the buffer was reallocated", cap(l.durable), capBefore)
	}
	for i, r := range recs {
		if want := bytes.Repeat([]byte{byte('a' + i)}, 100); !bytes.Equal(r.Data, want) {
			t.Fatalf("record %d from DurableRecords changed under truncation: %q", i, r.Data)
		}
	}
	if want := bytes.Repeat([]byte{'g'}, 100); !bytes.Equal(fromCursor.Data, want) {
		t.Fatalf("cursor record changed under truncation: %q", fromCursor.Data)
	}
	if got := l.DurableRecords(); len(got) != 8 || got[0].LSN != lsns[6] || got[7].Data[0] != 'z' {
		t.Fatalf("after truncate and refill: %d records", len(got))
	}
}

func TestGroupCommitBatching(t *testing.T) {
	l := New(Config{SyncLatency: 10 * time.Millisecond})
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn, err := l.Append(&Record{Kind: KCommit, Txn: uint64(i + 1)})
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = l.Commit(lsn)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	s := l.Stats()
	if s.Commits != n {
		t.Fatalf("Commits = %d, want %d", s.Commits, n)
	}
	if s.Syncs >= n {
		t.Fatalf("group commit did not batch: %d syncs for %d commits", s.Syncs, n)
	}
	var hist int64
	for _, b := range s.BatchSizes {
		hist += b
	}
	if hist == 0 {
		t.Fatal("batch histogram empty")
	}
}

func TestNoGroupCommitSyncsEveryCommit(t *testing.T) {
	l := New(Config{NoGroupCommit: true})
	for i := 0; i < 5; i++ {
		lsn, err := l.Append(&Record{Kind: KCommit, Txn: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(lsn); err != nil {
			t.Fatal(err)
		}
	}
	s := l.Stats()
	if s.Syncs != 5 {
		t.Fatalf("Syncs = %d, want 5 (one per commit)", s.Syncs)
	}
	if s.BatchSizes[0] != 5 {
		t.Fatalf("singleton batches = %d, want 5", s.BatchSizes[0])
	}
}

func TestBatchBucket(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 100: 3}
	for n, want := range cases {
		if got := BatchBucket(n); got != want {
			t.Errorf("BatchBucket(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestScopeCommitAndAbort(t *testing.T) {
	l := New(Config{})
	s, err := l.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if l.OldestActiveLSN() == storage.InfiniteLSN {
		t.Fatal("active statement not registered")
	}
	hl := s.HeapLogger("t")
	if err := hl.HeapInsert(3, 0, []byte("row")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if l.OldestActiveLSN() != storage.InfiniteLSN {
		t.Fatal("statement still active after commit")
	}
	recs := l.DurableRecords()
	kinds := []Kind{KBegin, KHeapInsert, KCommit}
	if len(recs) != len(kinds) {
		t.Fatalf("records = %d, want %d", len(recs), len(kinds))
	}
	for i, k := range kinds {
		if recs[i].Kind != k {
			t.Fatalf("record %d = %s, want %s", i, recs[i].Kind, k)
		}
	}

	s2, err := l.Begin()
	if err != nil {
		t.Fatal(err)
	}
	s2.Abort()
	if l.OldestActiveLSN() != storage.InfiniteLSN {
		t.Fatal("statement still active after abort")
	}
}

func TestCheckpointResetsByteTrigger(t *testing.T) {
	l := New(Config{})
	if _, err := l.Append(rec(KHeapInsert, 1)); err != nil {
		t.Fatal(err)
	}
	if l.BytesSinceCheckpoint() == 0 {
		t.Fatal("append did not advance checkpoint trigger")
	}
	start, lsn, err := l.AppendCheckpoint([]byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if start >= lsn {
		t.Fatalf("checkpoint frame start %d not before record LSN %d", start, lsn)
	}
	if l.BytesSinceCheckpoint() != 0 {
		t.Fatal("checkpoint did not reset byte trigger")
	}
	if s := l.Stats(); s.Checkpoints != 1 {
		t.Fatalf("Checkpoints = %d, want 1", s.Checkpoints)
	}
}

func TestRecordRoundTripAllKinds(t *testing.T) {
	l := New(Config{})
	records := []*Record{
		{Kind: KBegin, Txn: 9},
		{Kind: KPageAlloc, Txn: 9, Page: 4, Cat: storage.CatIndex},
		{Kind: KHeapNewPage, Txn: 9, Page: 4, Table: "accounts"},
		{Kind: KHeapInsertAt, Txn: 9, Page: 4, Slot: 11, Data: []byte{1, 2, 3}},
		{Kind: KHeapUpdate, Txn: 9, Page: 4, Slot: 11, Data: []byte{}},
		{Kind: KBTreeInsert, Txn: 9, Page: 5, Key: []byte("k"), Data: []byte{4, 0, 11}},
		{Kind: KBTreeImage, Txn: 9, Page: 5, Data: make([]byte, 256)},
		{Kind: KBTreeRoot, Txn: 9, Page: 5, Page2: 6},
		{Kind: KPageFree, Txn: 9, Page: 4, Cat: storage.CatData},
		{Kind: KCatalog, Txn: 9, Data: []byte(`{"op":"create_table"}`)},
		{Kind: KCommit, Txn: 9},
	}
	for _, r := range records {
		if _, err := l.Append(r); err != nil {
			t.Fatalf("append %s: %v", r.Kind, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got := l.DurableRecords()
	if len(got) != len(records) {
		t.Fatalf("decoded %d records, want %d", len(got), len(records))
	}
	for i, r := range got {
		w := records[i]
		if r.Kind != w.Kind || r.Txn != w.Txn || r.Page != w.Page || r.Page2 != w.Page2 ||
			r.Slot != w.Slot || r.Cat != w.Cat || r.Table != w.Table ||
			string(r.Key) != string(w.Key) || string(r.Data) != string(w.Data) {
			t.Fatalf("record %d round trip mismatch:\n got %+v\nwant %+v", i, r, w)
		}
	}
}
