package core

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/overlay"
	"p2psize/internal/samplecollide"
	"p2psize/internal/xrand"
)

func parallelTestNet(n int, seed uint64) *overlay.Network {
	return overlay.New(graph.Heterogeneous(n, 10, xrand.New(seed)), 10, nil)
}

func scFactory(seed uint64) func(run int) Estimator {
	return func(run int) Estimator {
		return samplecollide.New(samplecollide.Config{T: 10, L: 20},
			xrand.NewStream(seed, uint64(run)))
	}
}

func TestRunStaticParallelWorkerInvariance(t *testing.T) {
	const runs = 16
	results := make([]*StaticResult, 0, 3)
	var counters []uint64
	for _, workers := range []int{1, 4, 16} {
		net := parallelTestNet(1000, 5)
		res, err := RunStaticParallel(scFactory(77), net, runs, workers)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		counters = append(counters, net.Counter().Total())
	}
	want := results[0]
	if len(want.Estimates) != runs || len(want.Smoothed) != runs || len(want.Overheads) != runs {
		t.Fatalf("result shape: %d/%d/%d", len(want.Estimates), len(want.Smoothed), len(want.Overheads))
	}
	for wi, res := range results[1:] {
		for i := range want.Estimates {
			if math.Float64bits(res.Estimates[i]) != math.Float64bits(want.Estimates[i]) ||
				math.Float64bits(res.Smoothed[i]) != math.Float64bits(want.Smoothed[i]) ||
				res.Overheads[i] != want.Overheads[i] {
				t.Fatalf("worker setting %d diverges at run %d", wi, i)
			}
		}
	}
	for _, c := range counters[1:] {
		if c != counters[0] {
			t.Fatalf("merged counter totals differ: %v", counters)
		}
	}
}

func TestRunStaticParallelSmoothingMatchesSequentialWindow(t *testing.T) {
	net := parallelTestNet(800, 9)
	res, err := RunStaticParallel(scFactory(12), net, 25, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Estimates {
		lo := 0
		if i >= 10 {
			lo = i - 9
		}
		sum := 0.0
		for _, v := range res.Estimates[lo : i+1] {
			sum += v
		}
		want := sum / float64(i+1-lo)
		if math.Abs(res.Smoothed[i]-want) > 1e-9*want {
			t.Fatalf("smoothed[%d] = %g, want %g", i, res.Smoothed[i], want)
		}
	}
}

func TestRunStaticParallelPropagatesLowestRunError(t *testing.T) {
	net := parallelTestNet(200, 2)
	// A tiny sample budget makes every run fail; the reported run index
	// must be 0 at any worker count.
	factory := func(run int) Estimator {
		return samplecollide.New(samplecollide.Config{T: 10, L: 50, MaxSamples: 1},
			xrand.NewStream(4, uint64(run)))
	}
	for _, workers := range []int{1, 8} {
		_, err := RunStaticParallel(factory, net, 10, workers)
		if err == nil {
			t.Fatal("expected budget error")
		}
		if !strings.Contains(err.Error(), "run 0 of") {
			t.Fatalf("workers=%d: err %q does not name run 0", workers, err)
		}
	}
	if _, err := RunStaticParallel(scFactory(1), net, 0, 1); err == nil {
		t.Fatal("runs=0 must error")
	}
}

// A factory may hand out per-run state (an injector, a recorder) that
// the caller reads back afterwards, so it is called once per run and
// never again for the result's name.
func TestRunStaticParallelCallsFactoryOncePerRun(t *testing.T) {
	const runs = 6
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		inner := scFactory(3)
		res, err := RunStaticParallel(func(run int) Estimator {
			calls.Add(1)
			return inner(run)
		}, parallelTestNet(300, 4), runs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() != runs {
			t.Fatalf("workers=%d: factory called %d times for %d runs", workers, calls.Load(), runs)
		}
		if res.Name != inner(0).Name() {
			t.Fatalf("workers=%d: Name = %q, want run 0's %q", workers, res.Name, inner(0).Name())
		}
	}
}
