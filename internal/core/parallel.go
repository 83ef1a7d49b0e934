// The run loops: repeated estimations on a static overlay and concurrent
// estimation instances over a churn scenario, fanned out on the
// deterministic worker pool. Both produce results that are
// byte-identical at every worker count; RunDynamicParallel is
// additionally byte-identical to a sequential loop that steps one
// overlay and polls the instances in turn (the reference in
// parallel_test.go), because each instance replays the same churn
// trajectory on its own overlay clone.
package core

import (
	"errors"
	"fmt"
	"math"

	"p2psize/internal/churn"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/stats"
	"p2psize/internal/xrand"
)

// RunStaticParallel fans runs independent estimations over a worker pool.
// The overlay is shared read-only; every run gets its own estimator from
// newEstimator(run) — which must derive all randomness from the run index
// (e.g. via xrand.NewStream) — and its own metering view, so the result
// depends only on (overlay, run index), never on scheduling.
//
// Runs are statistically independent streams rather than one
// estimator's rng threading through all of them; the lastK smoothing is
// applied to the collected estimates in run order, preserving the paper's
// heuristic exactly. Per-run message counts are merged into the overlay's
// counter in run order afterwards.
func RunStaticParallel(newEstimator func(run int) Estimator, net *overlay.Network, runs, lastK, workers int) (*StaticResult, error) {
	if runs < 1 {
		return nil, errors.New("core: RunStaticParallel needs runs >= 1")
	}
	if lastK < 1 {
		lastK = LastK
	}
	type runOut struct {
		est     float64
		counter metrics.Counter
	}
	outs, err := parallel.Map(workers, runs, func(i int) (runOut, error) {
		view := net.View()
		e := newEstimator(i)
		est, err := e.Estimate(view)
		if err != nil {
			return runOut{}, fmt.Errorf("core: run %d of %s: %w", i, e.Name(), err)
		}
		return runOut{est: est, counter: view.Counter().Snapshot()}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &StaticResult{
		Name:      newEstimator(0).Name(),
		TrueSize:  net.Size(),
		Estimates: make([]float64, 0, runs),
		Smoothed:  make([]float64, 0, runs),
		Overheads: make([]uint64, 0, runs),
	}
	w := stats.NewWindow(lastK)
	for _, o := range outs {
		w.Add(o.est)
		res.Estimates = append(res.Estimates, o.est)
		res.Smoothed = append(res.Smoothed, w.Mean())
		res.Overheads = append(res.Overheads, o.counter.Total())
		net.Counter().Merge(&o.counter)
	}
	return res, nil
}

// RunDynamicParallel applies the scenario step by step and has every
// instance produce an estimate each EstimateEvery steps, like the three
// "Estimation #" curves in the paper's dynamic figures, with the
// instances fanned out across workers. Estimation failures record NaN
// and the run continues — precisely the regime (fragmented, shrunken
// overlays) the dynamic comparison is about. Each instance gets its own
// copy-on-write clone of the overlay (the overlay is the shared
// immutable base; each clone pays only for the churn it replays) and
// its own churn runner built from newRNG — which must return a fresh,
// identically seeded generator on every call — so all clones replay the
// exact same trajectory and instance k's estimates are what it would
// have produced in the sequential interleaving. Per-instance message
// counts are merged into the overlay's counter in instance order; the
// overlay itself is left unmutated.
func RunDynamicParallel(instances []Estimator, net *overlay.Network, cfg DynamicConfig, newRNG func() *xrand.Rand, workers int) (*DynamicResult, error) {
	if len(instances) == 0 {
		return nil, errors.New("core: RunDynamicParallel needs at least one estimator")
	}
	if cfg.EstimateEvery < 1 {
		cfg.EstimateEvery = 1
	}
	type instOut struct {
		steps     []float64
		trueSizes []float64
		estimates []float64
		failures  int
		counter   *metrics.Counter
	}
	outs, err := parallel.Map(workers, len(instances), func(k int) (instOut, error) {
		clone := net.CloneCOW()
		runner := churn.NewRunner(cfg.Scenario, newRNG())
		var window *stats.Window
		if cfg.SmoothLastK > 1 {
			window = stats.NewWindow(cfg.SmoothLastK)
		}
		o := instOut{counter: clone.Counter()}
		for step := 0; step < cfg.Scenario.TotalSteps; step++ {
			runner.Step(clone, step)
			if (step+1)%cfg.EstimateEvery != 0 {
				continue
			}
			o.steps = append(o.steps, float64(step+1))
			o.trueSizes = append(o.trueSizes, float64(clone.Size()))
			est, err := instances[k].Estimate(clone)
			if err != nil {
				o.failures++
				o.estimates = append(o.estimates, math.NaN())
				continue
			}
			if window != nil {
				window.Add(est)
				est = window.Mean()
			}
			o.estimates = append(o.estimates, est)
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	res := &DynamicResult{
		Names:     make([]string, len(instances)),
		Estimates: make([][]float64, len(instances)),
		Failures:  make([]int, len(instances)),
	}
	res.Steps = outs[0].steps
	res.TrueSizes = outs[0].trueSizes
	for k, o := range outs {
		// Every clone must have replayed the identical trajectory; a
		// divergence means newRNG violated its contract. (Best-effort:
		// the check sees sizes, which churn rates fix deterministically
		// in most scenarios even under a divergent rng.)
		for i := range o.trueSizes {
			if o.trueSizes[i] != outs[0].trueSizes[i] {
				return nil, fmt.Errorf("core: churn replay diverged at instance %d, step %g (%g != %g); newRNG must return identically seeded generators",
					k, o.steps[i], o.trueSizes[i], outs[0].trueSizes[i])
			}
		}
		res.Names[k] = instances[k].Name()
		res.Estimates[k] = o.estimates
		res.Failures[k] = o.failures
		net.Counter().Merge(o.counter)
	}
	return res, nil
}
