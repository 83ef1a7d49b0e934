// Package scratch lends per-estimate buffers from one finished estimate
// to the next. The static comparison builds a fresh estimator for every
// run, and each one needs tables as long as the overlay's id space for a
// single Estimate; a List lets those tables outlive the estimator, so
// the next run — on this estimator or any other of the family — borrows
// them instead of allocating its own.
//
// A borrower resets what it reads (generation stamps, clear, a fill), so
// the buffers it gets change nothing but the allocation count. A long-
// lived estimator, as the monitor keeps, borrows back the buffer it
// released, so it allocates what it allocated when it kept its buffers.
//
// Retention is bounded: a List keeps at most one idle value per
// GOMAXPROCS, the largest ones, for the life of the process. That is
// one table of the largest id space a family served per processor, and
// a table is as long as the ids its graph reserved (Fit): Hops
// Sampling's 12-byte slots hold about 18 MB after a replay that grows a
// million ids by half. Unlike sync.Pool, a List never drops a value at
// a garbage collection, so whether a table is re-made never depends on
// GC timing.
package scratch

import (
	"runtime"
	"sync"
)

// List is a bounded free list of idle scratch values of one type, safe
// for concurrent use. size ranks values by the room they hold (a
// table's capacity, a set's entries).
type List[T any] struct {
	size func(T) int
	mu   sync.Mutex
	idle []T
}

// NewList returns an empty list whose values size ranks.
func NewList[T any](size func(T) int) *List[T] {
	l := &List[T]{size: size}
	lists.Lock()
	lists.drops = append(lists.drops, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		clear(l.idle)
		l.idle = l.idle[:0]
	})
	lists.Unlock()
	return l
}

// Get takes an idle value off the list: the smallest one whose size is
// at least need, or else the largest one, which the borrower outgrows.
// It reports false when the list is empty.
func (l *List[T]) Get(need int) (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.idle) == 0 {
		return x, false
	}
	// before reports whether a value of size s serves need better than
	// one of size t: one that fits beats one that does not, the smaller
	// of two that fit, the larger of two that do not.
	before := func(s, t int) bool {
		if (s >= need) != (t >= need) {
			return s >= need
		}
		return s >= need && s < t || s < need && s > t
	}
	pick := 0
	for i := 1; i < len(l.idle); i++ {
		if before(l.size(l.idle[i]), l.size(l.idle[pick])) {
			pick = i
		}
	}
	x = l.idle[pick]
	last := len(l.idle) - 1
	l.idle[pick] = l.idle[last]
	var zero T
	l.idle[last] = zero
	l.idle = l.idle[:last]
	return x, true
}

// Put returns a value its borrower is done with. A full list keeps the
// larger of x and its smallest idle value.
func (l *List[T]) Put(x T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.idle) < runtime.GOMAXPROCS(0) {
		l.idle = append(l.idle, x)
		return
	}
	small := 0
	for i := range l.idle {
		if l.size(l.idle[i]) < l.size(l.idle[small]) {
			small = i
		}
	}
	if l.size(x) > l.size(l.idle[small]) {
		l.idle[small] = x
	}
}

// lists holds, for Drop, a function emptying each List made.
var lists struct {
	sync.Mutex
	drops []func()
}

// Drop empties every list, so that the next estimates start on fresh
// buffers.
//
//detlint:allow testonly used by the registry, hopssampling, polling and scratch tests
func Drop() {
	lists.Lock()
	defer lists.Unlock()
	for _, drop := range lists.drops {
		drop()
	}
}

// Fit returns s with length n. When s is too short it returns a new,
// zeroed slice. Its capacity is ceil when ceil exceeds n: the caller
// knows the most it will ask for, as graph.IDCeiling does once a
// replay has reserved its ids, and the table is made once, exactly.
// Otherwise it holds a quarter of n spare, so that a table sized to an
// overlay that gains ids between uses is re-made only once that room is
// used up, not at every use. A resliced s keeps its old elements; the
// caller resets what it reads.
func Fit[E any](s []E, n, ceil int) []E {
	if cap(s) >= n {
		return s[:n]
	}
	if ceil <= n {
		ceil = n + n/4
	}
	return make([]E, n, ceil)
}
