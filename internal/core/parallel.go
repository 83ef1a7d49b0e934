// The static run loop: repeated estimations on one overlay, fanned out
// on the deterministic worker pool, byte-identical at every worker
// count. (Sampling on a timeline — a trace, a churn scenario, a live
// cluster — is internal/monitor's loop.)
package core

import (
	"errors"
	"fmt"

	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/stats"
)

// RunStaticParallel fans runs independent estimations over a worker pool.
// The overlay is shared read-only; every run gets its own estimator from
// newEstimator(run) — which must derive all randomness from the run index
// (e.g. via xrand.NewStream) — and its own metering view, so the result
// depends only on (overlay, run index), never on scheduling. The factory
// is called exactly once per run; the result is named by run 0's
// instance.
//
// Runs are statistically independent streams rather than one
// estimator's rng threading through all of them; the paper's last-K
// smoothing (K = LastK) is applied to the collected estimates in run
// order, preserving its heuristic exactly. Per-run message counts are
// merged into the overlay's counter in run order afterwards.
func RunStaticParallel(newEstimator func(run int) Estimator, net *overlay.Network, runs, workers int) (*StaticResult, error) {
	if runs < 1 {
		return nil, errors.New("core: RunStaticParallel needs runs >= 1")
	}
	type runOut struct {
		name    string // run 0 only
		est     float64
		counter metrics.Counter
	}
	outs, err := parallel.Map(workers, runs, func(i int) (runOut, error) {
		view := net.View()
		e := newEstimator(i)
		if e == nil {
			return runOut{}, fmt.Errorf("core: run %d: the estimator factory returned nil", i)
		}
		est, err := e.Estimate(view)
		if err != nil {
			return runOut{}, fmt.Errorf("core: run %d of %s: %w", i, e.Name(), err)
		}
		o := runOut{est: est, counter: view.Counter().Snapshot()}
		if i == 0 {
			o.name = e.Name()
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	res := &StaticResult{
		Name:      outs[0].name,
		TrueSize:  net.Size(),
		Estimates: make([]float64, 0, runs),
		Smoothed:  make([]float64, 0, runs),
		Overheads: make([]uint64, 0, runs),
	}
	w := stats.NewWindow(LastK)
	for _, o := range outs {
		w.Add(o.est)
		res.Estimates = append(res.Estimates, o.est)
		res.Smoothed = append(res.Smoothed, w.Mean())
		res.Overheads = append(res.Overheads, o.counter.Total())
		net.Counter().Merge(&o.counter)
	}
	return res, nil
}
