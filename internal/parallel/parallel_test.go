package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.NumCPU() {
		t.Fatalf("Resolve(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Resolve(-3); got != 1 {
		t.Fatalf("Resolve(-3) = %d, want 1", got)
	}
	if got := Resolve(7); got != 7 {
		t.Fatalf("Resolve(7) = %d, want 7", got)
	}
}

// TestSplit pins the budget split's contract: the two levels together
// never exceed the budget, the outer level never exceeds the fan-out
// width, every lane keeps at least one worker, and a single lane gets
// the whole budget.
func TestSplit(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 7, 8, 64} {
		w := Resolve(workers)
		for _, width := range []int{1, 2, 3, 5, 9, 100} {
			outer, inner := Split(workers, width)
			if outer < 1 || outer > width || inner < 1 || outer*inner > w {
				t.Fatalf("Split(%d, %d) = (%d, %d) on a budget of %d", workers, width, outer, inner, w)
			}
		}
		if outer, inner := Split(workers, 1); outer != 1 || inner != w {
			t.Fatalf("Split(%d, 1) = (%d, %d), want (1, %d)", workers, outer, inner, w)
		}
	}
	if outer, inner := Split(8, 3); outer != 3 || inner != 2 {
		t.Fatalf("Split(8, 3) = (%d, %d), want (3, 2)", outer, inner)
	}
	if outer, inner := Split(4, 0); outer != 1 || inner != 4 {
		t.Fatalf("Split(4, 0) = (%d, %d), want (1, 4): an empty fan-out must not divide by zero", outer, inner)
	}
}

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		out, err := Map(workers, 50, func(i int) (int, error) {
			// Finish in scrambled wall-clock order to prove slot
			// assignment, not completion order, decides placement.
			time.Sleep(time.Duration((i*37)%5) * time.Millisecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(4, 0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(out) != 0 {
		t.Fatalf("Map over 0 items: out=%v err=%v", out, err)
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		_, err := Map(workers, 40, func(i int) (int, error) {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return 0, fmt.Errorf("boom at %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "boom at 3" {
			t.Fatalf("workers=%d: err = %v, want boom at 3", workers, err)
		}
	}
}

func TestMapRunsEveryIndexDespiteErrors(t *testing.T) {
	var ran atomic.Int64
	_, err := Map(8, 100, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("early failure")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := ran.Load(); got != 100 {
		t.Fatalf("ran %d of 100 indices; errors must not skip work", got)
	}
}

func TestForEach(t *testing.T) {
	hits := make([]atomic.Int64, 30)
	if err := ForEach(6, 30, func(i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d ran %d times", i, hits[i].Load())
		}
	}
	if err := ForEach(6, 30, func(i int) error {
		if i >= 10 {
			return fmt.Errorf("fail %d", i)
		}
		return nil
	}); err == nil || err.Error() != "fail 10" {
		t.Fatalf("err = %v, want fail 10", err)
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []int {
		out, err := Map(workers, 200, func(i int) (int, error) {
			return i*31 + 7, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, w := range []int{2, 3, 8, 64} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d diverges at %d", w, i)
			}
		}
	}
}

func TestShardsResolution(t *testing.T) {
	cases := []struct{ cfg, n, want int }{
		{0, 100, 1},
		{0, MinShardNodes * 2, 2},
		{0, 1 << 30, MaxShards},
		{3, 10, 3},
		{5, 2, 2},
		{-1, 100, 1},
	}
	for _, c := range cases {
		if got := Shards(c.cfg, c.n); got != c.want {
			t.Fatalf("Shards(%d, %d) = %d, want %d", c.cfg, c.n, got, c.want)
		}
	}
}

// TestRoundRobinPairs checks the tournament schedule's two contracts:
// every unordered pair meets exactly once, and no shard appears twice
// within one round (the property that makes cross-shard fix-up passes
// race-free).
func TestRoundRobinPairs(t *testing.T) {
	for n := 0; n <= 17; n++ {
		rounds := RoundRobinPairs(n)
		met := make(map[[2]int]bool)
		for _, round := range rounds {
			inRound := make(map[int]bool)
			for _, pr := range round {
				a, b := pr[0], pr[1]
				if a >= b || b >= n || a < 0 {
					t.Fatalf("n=%d: bad pair %v", n, pr)
				}
				if inRound[a] || inRound[b] {
					t.Fatalf("n=%d: shard reused within a round: %v", n, round)
				}
				inRound[a], inRound[b] = true, true
				if met[pr] {
					t.Fatalf("n=%d: pair %v scheduled twice", n, pr)
				}
				met[pr] = true
			}
		}
		if want := n * (n - 1) / 2; len(met) != want {
			t.Fatalf("n=%d: %d pairs scheduled, want %d", n, len(met), want)
		}
	}
}

// TestForEachAllocatesNothingPerIndex: on the success path a call makes
// no per-index slice — nothing at one worker, and otherwise only one
// goroutine a worker and the bookkeeping they share — and Map adds only
// its result slice and the closure that fills it.
func TestForEachAllocatesNothingPerIndex(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	nop := func(int) error { return nil }
	for _, c := range []struct {
		workers int
		max     float64
	}{{1, 0}, {2, 3}, {8, 9}} {
		if got := testing.AllocsPerRun(100, func() { _ = ForEach(c.workers, 1000, nop) }); got > c.max {
			t.Errorf("ForEach(%d, 1000): %.0f allocations a call, want at most %.0f", c.workers, got, c.max)
		}
		if got := testing.AllocsPerRun(100, func() {
			_, _ = Map(c.workers, 1000, func(i int) (int, error) { return i, nil })
		}); got > c.max+2 {
			t.Errorf("Map(%d, 1000): %.0f allocations a call, want at most %.0f", c.workers, got, c.max+2)
		}
	}
}

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation allocates.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
