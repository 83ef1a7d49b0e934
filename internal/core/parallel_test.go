package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"p2psize/internal/churn"
	"p2psize/internal/graph"
	"p2psize/internal/hopssampling"
	"p2psize/internal/overlay"
	"p2psize/internal/samplecollide"
	"p2psize/internal/stats"
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
		res, err := RunStaticParallel(scFactory(77), net, runs, LastK, workers)
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
	res, err := RunStaticParallel(scFactory(12), net, 25, 10, 8)
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
		_, err := RunStaticParallel(factory, net, 10, LastK, workers)
		if err == nil {
			t.Fatal("expected budget error")
		}
		if !strings.Contains(err.Error(), "run 0 of") {
			t.Fatalf("workers=%d: err %q does not name run 0", workers, err)
		}
	}
	if _, err := RunStaticParallel(scFactory(1), net, 0, LastK, 1); err == nil {
		t.Fatal("runs=0 must error")
	}
}

// runDynamicSequential is the reference RunDynamicParallel is compared
// against: one overlay, mutated in place step by step, every instance
// polled in turn on it each EstimateEvery steps.
func runDynamicSequential(instances []Estimator, net *overlay.Network, cfg DynamicConfig, rng *xrand.Rand) (*DynamicResult, error) {
	if len(instances) == 0 {
		return nil, errors.New("core: needs at least one estimator")
	}
	if cfg.EstimateEvery < 1 {
		cfg.EstimateEvery = 1
	}
	res := &DynamicResult{
		Names:     make([]string, len(instances)),
		Estimates: make([][]float64, len(instances)),
		Failures:  make([]int, len(instances)),
	}
	windows := make([]*stats.Window, len(instances))
	for k, e := range instances {
		res.Names[k] = e.Name()
		if cfg.SmoothLastK > 1 {
			windows[k] = stats.NewWindow(cfg.SmoothLastK)
		}
	}
	runner := churn.NewRunner(cfg.Scenario, rng)
	for step := 0; step < cfg.Scenario.TotalSteps; step++ {
		runner.Step(net, step)
		if (step+1)%cfg.EstimateEvery != 0 {
			continue
		}
		res.Steps = append(res.Steps, float64(step+1))
		res.TrueSizes = append(res.TrueSizes, float64(net.Size()))
		for k, e := range instances {
			est, err := e.Estimate(net)
			if err != nil {
				res.Failures[k]++
				res.Estimates[k] = append(res.Estimates[k], math.NaN())
				continue
			}
			if windows[k] != nil {
				windows[k].Add(est)
				est = windows[k].Mean()
			}
			res.Estimates[k] = append(res.Estimates[k], est)
		}
	}
	return res, nil
}

// TestRunDynamicParallelMatchesSequential pins the strongest guarantee:
// the parallel clone-replay engine reproduces the sequential loop bit for bit,
// because every instance sees the identical overlay trajectory and its
// own rng consumes the same draws as in the sequential interleaving.
func TestRunDynamicParallelMatchesSequential(t *testing.T) {
	const n = 800
	cfg := DynamicConfig{
		Scenario:      churn.Catastrophic(n, 60),
		EstimateEvery: 2,
		SmoothLastK:   5,
	}
	build := func() []Estimator {
		return []Estimator{
			samplecollide.New(samplecollide.Config{T: 10, L: 20}, xrand.New(100)),
			hopssampling.New(hopssampling.Default(), xrand.New(101)),
			samplecollide.New(samplecollide.Config{T: 10, L: 10}, xrand.New(102)),
		}
	}
	seqNet := parallelTestNet(n, 6)
	seq, err := runDynamicSequential(build(), seqNet, cfg, xrand.New(55))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		parNet := parallelTestNet(n, 6)
		par, err := RunDynamicParallel(build(), parNet, cfg,
			func() *xrand.Rand { return xrand.New(55) }, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(par.Steps) != len(seq.Steps) {
			t.Fatalf("workers=%d: %d steps vs %d", workers, len(par.Steps), len(seq.Steps))
		}
		for i := range seq.Steps {
			if par.Steps[i] != seq.Steps[i] || par.TrueSizes[i] != seq.TrueSizes[i] {
				t.Fatalf("workers=%d: trajectory diverges at %d", workers, i)
			}
		}
		for k := range seq.Estimates {
			if par.Names[k] != seq.Names[k] || par.Failures[k] != seq.Failures[k] {
				t.Fatalf("workers=%d: instance %d metadata differs", workers, k)
			}
			for i := range seq.Estimates[k] {
				if math.Float64bits(par.Estimates[k][i]) != math.Float64bits(seq.Estimates[k][i]) {
					t.Fatalf("workers=%d: instance %d diverges at %d: %v vs %v",
						workers, k, i, par.Estimates[k][i], seq.Estimates[k][i])
				}
			}
		}
		// The sequential run mutates its overlay; the parallel run must
		// leave the input overlay untouched and merge the same traffic.
		if parNet.Size() != n {
			t.Fatalf("workers=%d: input overlay mutated to %d nodes", workers, parNet.Size())
		}
		if parNet.Counter().Total() != seqNet.Counter().Total() {
			t.Fatalf("workers=%d: merged traffic %d vs sequential %d",
				workers, parNet.Counter().Total(), seqNet.Counter().Total())
		}
	}
}

func TestRunDynamicParallelArgErrors(t *testing.T) {
	net := parallelTestNet(500, 8)
	if _, err := RunDynamicParallel(nil, net, DynamicConfig{}, nil, 1); err == nil {
		t.Fatal("empty instance list must error")
	}
}
