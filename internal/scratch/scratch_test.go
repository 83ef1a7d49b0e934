package scratch

import (
	"runtime"
	"slices"
	"sync"
	"testing"
)

func lenOf(s []int) int { return cap(s) }

// idleSizes returns the sizes of l's idle values, sorted.
func idleSizes(l *List[[]int]) []int {
	var out []int
	for _, s := range l.idle {
		out = append(out, cap(s))
	}
	slices.Sort(out)
	return out
}

// TestListRetainsTheLargestPerProcessor: a list keeps at most one idle
// value per GOMAXPROCS, and once full it keeps the largest ones.
func TestListRetainsTheLargestPerProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	l := NewList(lenOf)
	for _, n := range []int{5, 1, 9, 3, 7, 2} {
		l.Put(make([]int, 0, n))
	}
	if got := idleSizes(l); !slices.Equal(got, []int{5, 7, 9}) {
		t.Fatalf("idle sizes %v, want the three largest [5 7 9]", got)
	}
	l.Put(make([]int, 0, 4)) // smaller than every idle value: dropped
	if got := idleSizes(l); !slices.Equal(got, []int{5, 7, 9}) {
		t.Fatalf("idle sizes %v after a smaller Put, want [5 7 9]", got)
	}
}

// TestListGetPrefersTheSmallestFit: Get hands out the smallest idle
// value that holds need, or else the largest, and false when empty.
func TestListGetPrefersTheSmallestFit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	l := NewList(lenOf)
	if _, ok := l.Get(0); ok {
		t.Fatal("an empty list handed out a value")
	}
	for _, n := range []int{8, 2, 16, 4} {
		l.Put(make([]int, 0, n))
	}
	for _, c := range []struct{ need, want int }{{3, 4}, {9, 16}, {20, 8}, {0, 2}} {
		s, ok := l.Get(c.need)
		if !ok || cap(s) != c.want {
			t.Fatalf("Get(%d) = cap %d, %v; want cap %d", c.need, cap(s), ok, c.want)
		}
	}
	if _, ok := l.Get(0); ok {
		t.Fatal("a drained list handed out a value")
	}
}

// TestDropEmptiesEveryList: Drop leaves nothing idle on any list.
func TestDropEmptiesEveryList(t *testing.T) {
	a, b := NewList(lenOf), NewList(func(m map[int]bool) int { return len(m) })
	a.Put(make([]int, 3))
	b.Put(map[int]bool{1: true})
	Drop()
	if _, ok := a.Get(0); ok {
		t.Fatal("Drop left a slice idle")
	}
	if _, ok := b.Get(0); ok {
		t.Fatal("Drop left a map idle")
	}
}

// TestListHandsEachValueToOneBorrower: under concurrent borrowers a
// value is never held by two at once (run under -race, which also sees
// the hand-off between goroutines), and the list never grows past its
// bound.
func TestListHandsEachValueToOneBorrower(t *testing.T) {
	l := NewList(func(p *[]int) int { return cap(*p) })
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p, ok := l.Get(i % 64)
				if !ok {
					p = new([]int)
				}
				*p = Fit(*p, i%64, 0)
				for j := range *p {
					(*p)[j] = w // a second holder would race here
				}
				l.Put(p)
			}
		}()
	}
	wg.Wait()
	if n := len(l.idle); n > runtime.GOMAXPROCS(0) {
		t.Fatalf("%d idle values, more than GOMAXPROCS %d", n, runtime.GOMAXPROCS(0))
	}
}

// TestFitReslicesOrGrowsWithAQuarterSpare: Fit keeps a slice that holds
// n (and its elements). One that does not is made afresh, on two
// branches: under a ceiling beyond n (the graph's ids were reserved) at
// exactly the ceiling, so that it serves every later n up to it, and
// otherwise with a quarter of n spare.
func TestFitReslicesOrGrowsWithAQuarterSpare(t *testing.T) {
	for _, unreserved := range []int{0, 8} { // no ceiling, and one at n
		s := Fit[int](nil, 8, unreserved)
		if len(s) != 8 || cap(s) != 10 {
			t.Fatalf("Fit(nil, 8, %d): len %d cap %d, want 8 and 10", unreserved, len(s), cap(s))
		}
		s[7] = 7
		if r := Fit(s, 10, unreserved); &r[0] != &s[0] || len(r) != 10 || r[7] != 7 {
			t.Fatal("Fit within the capacity did not reslice in place")
		}
		if r := Fit(s, 11, unreserved); &r[0] == &s[0] || len(r) != 11 || cap(r) != 13 || r[7] != 0 {
			t.Fatalf("Fit past the capacity: len %d cap %d, want a fresh zeroed 11 with cap 13", len(r), cap(r))
		}
	}
	s := Fit[int](nil, 8, 20)
	if len(s) != 8 || cap(s) != 20 {
		t.Fatalf("Fit(nil, 8, 20): len %d cap %d, want 8 and the ceiling 20", len(s), cap(s))
	}
	s[7] = 7
	if r := Fit(s, 20, 20); &r[0] != &s[0] || len(r) != 20 || r[7] != 7 {
		t.Fatal("Fit up to the ceiling made the table again")
	}
	if r := Fit(s, 21, 20); &r[0] == &s[0] || len(r) != 21 || cap(r) != 26 {
		t.Fatalf("Fit past a ceiling: len %d cap %d, want a fresh 21 with a quarter spare, cap 26", len(r), cap(r))
	}
}
