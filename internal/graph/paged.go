package graph

import (
	"math/bits"
	"unsafe"
)

// A Graph's two arrays (the node records and the compact alive list)
// are stored in fixed-size chunks ("pages") so that CloneCOW can share
// whole pages with its base: a clone copies only the page-pointer table
// up front — O(N/pageSize) pointers instead of O(N) entries — and pays
// for a page only when it first writes into it. The page is the one
// unit of sharing: a page of node records is 64 KB, a page of alive
// ids 4 KB. 1024 entries measured equal to 4096 on the 1M-node
// workloads, while 4096 (256 KB of records per page) cost a 32-node
// cluster graph a megabyte of resident memory for nothing.
const (
	pageShift = 10
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// pages is a paged array with copy-on-write cloning. The zero value is
// an empty, fully owned array.
type pages[T any] struct {
	tbl []*[pageSize]T
	// owned is a packed bitset over page indices: nil means every page
	// belongs to this value (the normal, non-clone case); a zero bit
	// marks a page still shared with the cloneCOW base, to be copied on
	// its first write.
	owned []uint64
	n     int
}

// newPages returns an empty paged array with capacity hint n.
func newPages[T any](n int) pages[T] {
	return pages[T]{tbl: make([]*[pageSize]T, 0, (n+pageMask)/pageSize)}
}

func (p *pages[T]) len() int { return p.n }

// at returns a read-only pointer to entry i. It is stale after the next
// slot/append on the same page (which may copy the page).
func (p *pages[T]) at(i int) *T { return &p.tbl[i>>pageShift][i&pageMask] }

// addr returns the address of entry i without reading the entry (only
// its page pointer): something to hint, never to dereference, since the
// page may be copied on the next write.
func (p *pages[T]) addr(i int) uintptr {
	var zero T
	return uintptr(unsafe.Pointer(p.tbl[i>>pageShift])) + uintptr(i&pageMask)*unsafe.Sizeof(zero)
}

// slot returns a writable pointer to entry i, copying the page first
// when it is still shared with the base. Once returned, the pointer
// stays valid: an owned page is never copied again.
func (p *pages[T]) slot(i int) *T {
	pg := i >> pageShift
	p.ownPage(pg)
	return &p.tbl[pg][i&pageMask]
}

func (p *pages[T]) ownPage(pg int) {
	if p.owned == nil || p.owned[pg>>6]&(1<<uint(pg&63)) != 0 {
		return
	}
	np := *p.tbl[pg]
	p.tbl[pg] = &np
	p.owned[pg>>6] |= 1 << uint(pg&63)
}

// markOwned records a freshly allocated page as owned, growing the
// bitset when appends extend a clone past its cloned prefix.
func (p *pages[T]) markOwned(pg int) {
	if p.owned == nil {
		return
	}
	for len(p.owned) <= pg>>6 {
		p.owned = append(p.owned, 0)
	}
	p.owned[pg>>6] |= 1 << uint(pg&63)
}

func (p *pages[T]) append(v T) {
	pg := p.n >> pageShift
	if pg == len(p.tbl) {
		p.tbl = append(p.tbl, new([pageSize]T))
		p.markOwned(pg)
	} else {
		// Appending into an existing page: after a truncation the slot
		// may live in a page still shared with the base, whose array
		// must not be scribbled over.
		p.ownPage(pg)
	}
	p.tbl[pg][p.n&pageMask] = v
	p.n++
}

// truncate shortens the logical length. Header-only: no page is
// touched, so truncating on a clone never copies anything.
func (p *pages[T]) truncate(n int) { p.n = n }

// cloneCOW returns a copy sharing every page with p until its first
// write: O(pages) pointer copies and O(pages/64) bitset words, nothing
// per entry. p becomes the immutable base (the Graph-level contract).
func (p *pages[T]) cloneCOW() pages[T] {
	return pages[T]{
		tbl:   append([]*[pageSize]T(nil), p.tbl...),
		owned: make([]uint64, (len(p.tbl)+63)/64),
		n:     p.n,
	}
}

// sharedPages reports how many pages are still shared with the base
// (0 for values that are not clones) — the footprint diagnostic,
// O(pages/64).
func (p *pages[T]) sharedPages() int {
	if p.owned == nil {
		return 0
	}
	shared := len(p.tbl)
	for _, w := range p.owned {
		shared -= bits.OnesCount64(w)
	}
	return shared
}
