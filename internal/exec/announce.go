package exec

import "repro/internal/catalog"

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
