package storage

import "fmt"

// Heap-page redo helpers for crash recovery. The pageLSN skip guarantees
// each helper sees the page in exactly the state the original mutation
// saw, so replay re-runs the same slotted-page operation and must get
// the same slot back.

// ReplayHeapInit reformats page, allocated at size bytes, as an empty
// slotted page (redo of KHeapNewPage's physical half).
func ReplayHeapInit(pool *BufferPool, page PageID, size int) error {
	buf, err := pool.Fetch(page, CatData)
	if err != nil {
		return err
	}
	if len(buf) != size {
		pool.Unpin(page, false)
		return fmt.Errorf("storage: replay init of page %d at %d bytes, logged at %d", page, len(buf), size)
	}
	InitSlotted(buf)
	pool.Unpin(page, true)
	return nil
}

// ReplayHeapGrow redoes the growth of a sub-page to size bytes.
func ReplayHeapGrow(pool *BufferPool, page PageID, size int) error {
	buf, err := pool.Fetch(page, CatData)
	if err != nil {
		return err
	}
	from := len(buf)
	if buf, err = pool.Grow(page, size); err != nil {
		pool.Unpin(page, false)
		return err
	}
	Slotted(buf).Grow(from)
	pool.Unpin(page, true)
	return nil
}

// ReplayHeapInsert redoes an insert that originally landed in slot. A
// lower slot reoccupies the tombstone the original insert reused; a
// slot equal to the current slot count forces the append path — the
// original insert may have skipped free tombstones that were pinned by
// version chains at run time, a fact the log does not carry, so replay
// must not re-run tombstone-reuse placement.
func ReplayHeapInsert(pool *BufferPool, page PageID, slot uint16, rec []byte) error {
	buf, err := pool.Fetch(page, CatData)
	if err != nil {
		return err
	}
	sp := Slotted(buf)
	if int(slot) < sp.NumSlots() {
		err = sp.InsertAt(slot, rec)
	} else {
		var got uint16
		got, err = sp.InsertAvoiding(rec, func(uint16) bool { return true })
		if err == nil && got != slot {
			err = fmt.Errorf("storage: replay insert landed in slot %d, logged %d (page %d)", got, slot, page)
		}
	}
	pool.Unpin(page, err == nil)
	return err
}

// ReplayHeapInsertAt redoes a restore into a tombstoned slot (the
// relocation-undo path).
func ReplayHeapInsertAt(pool *BufferPool, page PageID, slot uint16, rec []byte) error {
	buf, err := pool.Fetch(page, CatData)
	if err != nil {
		return err
	}
	err = Slotted(buf).InsertAt(slot, rec)
	pool.Unpin(page, err == nil)
	return err
}

// ReplayHeapDelete redoes a slot tombstoning.
func ReplayHeapDelete(pool *BufferPool, page PageID, slot uint16) error {
	buf, err := pool.Fetch(page, CatData)
	if err != nil {
		return err
	}
	err = Slotted(buf).Delete(slot)
	pool.Unpin(page, err == nil)
	return err
}

// ReplayHeapUpdate redoes an in-place record replacement (relocating
// updates log delete + insert pairs instead).
func ReplayHeapUpdate(pool *BufferPool, page PageID, slot uint16, rec []byte) error {
	buf, err := pool.Fetch(page, CatData)
	if err != nil {
		return err
	}
	err = Slotted(buf).Update(slot, rec)
	pool.Unpin(page, err == nil)
	return err
}
