package storage

import (
	"bytes"
	"errors"
	"testing"
)

// raceEnabled is set by race_test.go: the race detector makes sync.Pool
// drop items at random, so allocation counts only hold without it.
var raceEnabled bool

// TestSlottedCompactAllocatesNothing: a compaction borrows its scratch
// from a pool, so once the pool holds one it allocates nothing.
func TestSlottedCompactAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	p := InitSlotted(make([]byte, DefaultPageSize))
	for i := 0; i < 60; i++ {
		s, err := p.Insert(bytes.Repeat([]byte{byte(i)}, 50+i))
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := p.Delete(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := testing.AllocsPerRun(100, p.Compact); n != 0 {
		t.Errorf("%v allocations per Compact, want 0", n)
	}
	if p.FreeSpace() != p.ReclaimableSpace() {
		t.Errorf("free %d after Compact, reclaimable %d", p.FreeSpace(), p.ReclaimableSpace())
	}
}

// FuzzSlottedPage runs a byte-coded sequence of Insert, InsertAt,
// Update, Delete, Compact and Grow on one small page, which starts at
// 256 bytes and may double twice, and holds it, after every operation, to a
// map of slot → bytes: every live slot returns its bytes, every other
// slot is gone, a refusal means the record genuinely does not fit,
// Compact leaves exactly the reclaimable space free, an Update can
// always be taken back (restoring a record the page held fits, which is
// what statement undo relies on), and a Grow adds exactly its bytes to
// the free space and lays out a copy of the page, grown the same way
// (as replay grows it), byte for byte as it laid out the page.
func FuzzSlottedPage(f *testing.F) {
	f.Add([]byte{0, 40, 0, 30, 0, 50, 3, 1, 4, 1, 0, 2, 90, 1, 2, 3, 10, 4})
	f.Add([]byte("insert, update, delete and compact until the page is full and fragmented"))
	f.Add(bytes.Repeat([]byte{0, 33, 2, 0, 70, 1, 3, 2, 1, 0, 20}, 12))
	f.Add([]byte{0, 40, 5, 0, 50, 3, 0, 5, 0, 60, 2, 1, 80, 0, 4, 5, 0, 70})
	f.Add([]byte{0, 80, 0, 80, 0, 80, 0, 80, 5, 0, 80, 2, 1, 84, 0, 3, 0, 5, 0, 84, 1, 0, 84, 4, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const pageSize = 1024 // grown to from 256 bytes, by way of 512
		p := InitSlotted(make([]byte, pageSize/4))
		model := map[uint16][]byte{}
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		var stamp byte
		record := func(n byte) []byte {
			stamp++
			return bytes.Repeat([]byte{stamp}, int(n)%85)
		}
		// pick returns the slot i-th in slot order among the live (or
		// dead) ones, or false when there is none.
		pick := func(live bool, i byte) (uint16, bool) {
			var cands []uint16
			for s := uint16(0); s < uint16(p.NumSlots()); s++ {
				if _, ok := model[s]; ok == live {
					cands = append(cands, s)
				}
			}
			if len(cands) == 0 {
				return 0, false
			}
			return cands[int(i)%len(cands)], true
		}
		for step := 0; len(ops) > 0; step++ {
			switch op := next() % 6; op {
			case 0: // Insert
				rec := record(next())
				need := len(rec) + slotSize
				if _, dead := pick(false, 0); dead {
					need = len(rec) // a tombstone's slot entry is reused
				}
				before := p.ReclaimableSpace()
				s, err := p.Insert(rec)
				if errors.Is(err, ErrPageFull) {
					if before >= need {
						t.Fatalf("step %d: Insert of %d bytes refused with %d reclaimable", step, len(rec), before)
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d: Insert: %v", step, err)
				}
				if _, live := model[s]; live {
					t.Fatalf("step %d: Insert reused live slot %d", step, s)
				}
				model[s] = rec
			case 1: // InsertAt a dead slot
				s, ok := pick(false, next())
				rec := record(next())
				if !ok {
					continue
				}
				before := p.ReclaimableSpace()
				err := p.InsertAt(s, rec)
				if errors.Is(err, ErrPageFull) {
					if before >= len(rec) {
						t.Fatalf("step %d: InsertAt of %d bytes refused with %d reclaimable", step, len(rec), before)
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d: InsertAt(%d): %v", step, s, err)
				}
				model[s] = rec
			case 2: // Update a live slot, then maybe take it back
				s, ok := pick(true, next())
				rec := record(next())
				undo := next()%2 == 1
				if !ok {
					continue
				}
				old := model[s]
				before := p.ReclaimableSpace()
				err := p.Update(s, rec)
				if errors.Is(err, ErrPageFull) {
					if before+len(old) >= len(rec) {
						t.Fatalf("step %d: Update to %d bytes refused with %d reclaimable beside %d held", step, len(rec), before, len(old))
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d: Update(%d): %v", step, s, err)
				}
				model[s] = rec
				if undo {
					if err := p.Update(s, old); err != nil {
						t.Fatalf("step %d: restoring the %d bytes slot %d held: %v", step, len(old), s, err)
					}
					model[s] = old
				}
			case 3: // Delete a live slot
				s, ok := pick(true, next())
				if !ok {
					continue
				}
				if err := p.Delete(s); err != nil {
					t.Fatalf("step %d: Delete(%d): %v", step, s, err)
				}
				delete(model, s)
			case 4:
				p.Compact()
				if free, rec := p.FreeSpace(), p.ReclaimableSpace(); free != rec {
					t.Fatalf("step %d: %d bytes free after Compact, %d reclaimable", step, free, rec)
				}
			case 5: // Grow to twice the size, the old bytes first
				from := len(p.buf)
				if from == pageSize {
					continue
				}
				before := p.FreeSpace()
				buf := make([]byte, 2*from)
				copy(buf, p.buf)
				replayed := append([]byte(nil), buf...)
				p = Slotted(buf)
				p.Grow(from)
				if free := p.FreeSpace(); free != before+from {
					t.Fatalf("step %d: %d bytes free after a grow from %d bytes, %d before", step, free, from, before)
				}
				Slotted(replayed).Grow(from)
				if !bytes.Equal(replayed, buf) {
					t.Fatalf("step %d: a grow from %d bytes replayed onto a copy differs from the page", step, from)
				}
			}
			for s := uint16(0); s < uint16(p.NumSlots()); s++ {
				got, err := p.Get(s)
				want, live := model[s]
				switch {
				case live && (err != nil || !bytes.Equal(got, want)):
					t.Fatalf("step %d: slot %d holds %x (%v), want %x", step, s, got, err, want)
				case !live && !errors.Is(err, ErrSlotGone):
					t.Fatalf("step %d: dead slot %d: %v", step, s, err)
				}
			}
			n := 0
			p.LiveRecords(func(uint16, []byte) bool { n++; return true })
			if n != len(model) {
				t.Fatalf("step %d: %d live records, model holds %d", step, n, len(model))
			}
			if p.FreeSpace() > p.ReclaimableSpace() {
				t.Fatalf("step %d: free %d exceeds reclaimable %d", step, p.FreeSpace(), p.ReclaimableSpace())
			}
		}
	})
}
