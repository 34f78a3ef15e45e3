package btree

import (
	"fmt"

	"repro/internal/storage"
)

// A RID is stored in one compact, order-preserving form, page then
// slot: a leaf of a unique index holds it as an entry's payload, a
// non-unique index appends it to its keys (a "partitioned B-tree": the
// RID makes equal values distinct keys, in RID order).
//
// The page id takes 1, 2, 3 or 7 bytes big-endian, the class of that
// length in the top two bits of its first byte, so that a shorter id
// is a smaller one. The slot takes two bytes with the class again in
// their top two bits: slots stay below 2^14, as a slotted page of at
// most 65 535 bytes has fewer four-byte directory entries. A reader
// finds the class from the form's first byte (a payload) or from its
// last-but-one (a key's suffix). A page below 2^14 costs four bytes.
const (
	maxSlot   = 1<<14 - 1
	maxRIDLen = 7 + 2
)

var ridPageLen = [4]int{1, 2, 3, 7}

// AppendRID appends rid's form to dst. rid must pass checkRID.
func AppendRID(dst []byte, rid storage.RID) []byte {
	c := byte(0)
	for c < 3 && rid.Page >= 1<<(8*ridPageLen[c]-2) {
		c++
	}
	n := ridPageLen[c]
	dst = append(dst, c<<6|byte(rid.Page>>(8*(n-1))))
	for i := n - 2; i >= 0; i-- {
		dst = append(dst, byte(rid.Page>>(8*i)))
	}
	return append(dst, c<<6|byte(rid.Slot>>8), byte(rid.Slot))
}

// ridLen is the length of a form whose first or last-but-one byte is b.
func ridLen(b byte) int { return ridPageLen[b>>6] + 2 }

// decodeRID reads the form at the start of b.
func decodeRID(b []byte) storage.RID {
	n := ridPageLen[b[0]>>6]
	page := storage.PageID(b[0] & 0x3F)
	for _, x := range b[1:n] {
		page = page<<8 | storage.PageID(x)
	}
	return storage.RID{Page: page, Slot: uint16(b[n]&0x3F)<<8 | uint16(b[n+1])}
}

// ridSuffix reads the form that ends key.
func ridSuffix(key []byte) storage.RID {
	return decodeRID(key[len(key)-ridLen(key[len(key)-2]):])
}

func checkRID(rid storage.RID) error {
	if rid.Page > maxPageID || rid.Slot > maxSlot {
		return fmt.Errorf("btree: RID %v beyond page %d or slot %d", rid, maxPageID, maxSlot)
	}
	return nil
}
