package exec

import (
	"repro/internal/catalog"
	"repro/internal/storage"
)

// smallHeap is the largest heap, in pages, that an index probe reads
// whole on speculation. It is a constant: the regime it serves is the
// paper's many small tables, where root = leaf and the heap is one
// page, and it bounds what a statement can read in vain per table.
const smallHeap = 4

// announce hints, before an access path's first blocking fetch, the
// pages of t it is certain or very likely to need, so that the buffer
// pool's misses for them overlap: the root of every index in roots, and
// with rows set — the caller reaches its rows through an index — the
// heap itself if it is at most smallHeap pages. Larger heaps are hinted
// per RID batch, once the index has said which pages hold the rows.
func announce(t *catalog.Table, rows bool, roots ...*catalog.Index) {
	for _, ix := range roots {
		ix.Tree.Prefetch()
	}
	if rows {
		t.Heap.PrefetchSmall(smallHeap)
	}
}

// pathAnnouncer is how an index scan or DML gather learns, before its
// first blocking fetch, whether to read t's heap page instead of the
// index ix (one, with that page); it hints what the path will read.
type pathAnnouncer func(t *catalog.Table, ix *catalog.Index) (page storage.PageID, one bool)

// announcePath is the pathAnnouncer: an index path on a heap of at most
// one page reads that page — one fetch, where the index costs a leaf
// and then the same page; while the heap has one page the index has no
// tree at all (catalog.Index.Built) — so it hints the page and not the
// root. Which it is, the heap says inside the mutex section its own
// hint takes. (An index-NL join's inner probe keeps a built index:
// scanning the page once per probe would cost CPU where it saves
// nothing. A rootless one it reads once per Open.)
func announcePath(t *catalog.Table, ix *catalog.Index) (storage.PageID, bool) {
	page, one := t.Heap.PrefetchSmall(smallHeap)
	if !one {
		ix.Tree.Prefetch()
	}
	return page, one
}
