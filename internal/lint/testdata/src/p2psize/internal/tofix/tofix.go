// Package tofix is the testonly fixture: package-level functions and
// methods with and without a caller outside the tests. The fixture's
// root package and command (testdata/src/p2psize) are its callers.
package tofix

import "container/heap"

// Unused has no caller at all.
func Unused() {} // want "tofix.Unused has no caller outside the tests"

// CalledFromTest is called only from tofix_test.go, which the loader
// never reads.
func CalledFromTest() int { return 1 } // want "tofix.CalledFromTest has no caller outside the tests"

// Recursive calls only itself; a function's own calls do not count.
func Recursive(n int) int { // want "tofix.Recursive has no caller outside the tests"
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// UsedByRoot is called from the root package.
func UsedByRoot() int { return helper() }

// UsedByCmd is called from a command.
func UsedByCmd() int { return 2 }

// helper is called by shipped code of its own package.
func helper() int { return 3 }

// Allowed is an instrument other packages' tests share.
//
//detlint:allow testonly used by the tofix tests
func Allowed() {}

// T carries one used and one unused method.
type T struct{}

// Used is called from the root package.
func (*T) Used() {}

// Unused has no caller.
func (T) Unused() {} // want "tofix.T.Unused has no caller outside the tests"

// Shape is an interface declared in the module.
type Shape interface{ Area() float64 }

// Square satisfies Shape: a call through the interface resolves to
// Shape.Area, so Square.Area is not reported.
type Square struct{ Side float64 }

// Area satisfies Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Queue satisfies container/heap's Interface, an interface of an
// imported package: heap calls these methods, no module code does.
type Queue []int

func (q Queue) Len() int           { return len(q) }
func (q Queue) Less(i, j int) bool { return q[i] < q[j] }
func (q Queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *Queue) Push(x any)        { *q = append(*q, x.(int)) }
func (q *Queue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// Min pops the smallest element.
func Min(q *Queue) int {
	heap.Init(q)
	return heap.Pop(q).(int)
}

// Box is generic: uses of an instance count for the generic method.
type Box[V any] struct{ v V }

// Get is called on a Box[int].
func (b Box[V]) Get() V { return b.v }

// Put has no caller.
func (b *Box[V]) Put(v V) { b.v = v } // want "tofix.Box.Put has no caller outside the tests"

// First is generic and called with an inferred instance.
func First[V any](vs []V) V { return vs[0] }
