// Package p2psize is the root package of the testonly fixture module.
package p2psize

import "p2psize/internal/tofix"

// Use calls into the fixture package the way the library calls into
// internal/.
func Use() float64 {
	var t tofix.T
	t.Used()
	q := &tofix.Queue{3, 1, 2}
	var s tofix.Shape = tofix.Square{Side: 2}
	return float64(tofix.UsedByRoot()+tofix.Min(q)+tofix.Box[int]{}.Get()+tofix.First([]int{1})) + s.Area()
}
