// Package core is the comparative-study harness — the paper's actual
// contribution. It defines the common contract the three candidate
// algorithms are measured against and the run loops that produce every
// figure's data: repeated estimations on a static overlay (with the
// oneShot and lastKruns heuristics) and concurrent estimation processes
// on an overlay under churn, all against the same inputs and the same
// message meter.
package core

import (
	"math"

	"p2psize/internal/churn"
	"p2psize/internal/overlay"
	"p2psize/internal/stats"
)

// Estimator is the contract shared by the three candidates: one call
// produces one size estimate for the overlay's current state, metering
// all traffic it generates on the network's counter.
type Estimator interface {
	// Name identifies the estimator (and its headline parameters).
	Name() string
	// Estimate runs one estimation process and returns the estimated
	// number of live peers.
	Estimate(net *overlay.Network) (float64, error)
}

// OverlayMutator is the optional capability interface an Estimator
// implements to declare whether its Estimate calls mutate the overlay
// graph (rewire links, as a deployed cyclon-backed epidemic family
// would) or only observe it (walks, polls, probes). Read-only
// estimators can share one overlay clone — and one trace replay — per
// cadence group in the monitor's shared-replay mode, where the group's
// members estimate concurrently at a tick, each on its own view. So
// reporting false promises two things: Estimate only reads the graph,
// and it is safe beside other read-only estimators reading the same
// graph — all mutable state lives on the estimator instance.
type OverlayMutator interface {
	// MutatesOverlay reports whether Estimate mutates the overlay.
	MutatesOverlay() bool
}

// MutatesOverlay reports whether e declares itself overlay-mutating.
// Estimators that do not implement OverlayMutator are conservatively
// treated as mutating: an unknown estimator never rides a shared clone.
func MutatesOverlay(e Estimator) bool {
	if m, ok := e.(OverlayMutator); ok {
		return m.MutatesOverlay()
	}
	return true
}

// LastK is the paper's smoothing window: "last10runs is the average of
// the 10 last estimations".
const LastK = 10

// StaticResult holds the outcome of repeated estimations on a static
// overlay.
type StaticResult struct {
	// Name of the estimator that produced the result.
	Name string
	// TrueSize of the overlay during the run.
	TrueSize int
	// Estimates are the raw per-run values (the oneShot curve).
	Estimates []float64
	// Smoothed are the lastK-averaged values (the last10runs curve);
	// entry i averages Estimates[max(0,i-K+1) .. i].
	Smoothed []float64
	// Overheads are messages consumed by each run.
	Overheads []uint64
}

// QualityPct returns the estimates normalized to the paper's quality
// percentage (truth = 100): raw if smoothed is false, lastK otherwise.
func (r *StaticResult) QualityPct(smoothed bool) []float64 {
	src := r.Estimates
	if smoothed {
		src = r.Smoothed
	}
	out := make([]float64, len(src))
	for i, e := range src {
		out[i] = stats.QualityPct(e, float64(r.TrueSize))
	}
	return out
}

// MeanOverhead returns the average per-estimation message cost.
func (r *StaticResult) MeanOverhead() float64 {
	if len(r.Overheads) == 0 {
		return 0
	}
	sum := 0.0
	for _, o := range r.Overheads {
		sum += float64(o)
	}
	return sum / float64(len(r.Overheads))
}

// DynamicConfig drives estimators against a churning overlay.
type DynamicConfig struct {
	// Scenario is the churn workload; its TotalSteps set the horizon.
	Scenario churn.Scenario
	// EstimateEvery is the number of churn steps between consecutive
	// estimations (>= 1). The paper's dynamic HopsSampling figures span
	// 1000 time units with periodic restarts; its Sample&Collide figures
	// estimate at every step.
	EstimateEvery int
	// SmoothLastK > 1 applies lastK smoothing to each instance's curve
	// (HopsSampling dynamic figures use last10runs; Sample&Collide ones
	// use the raw oneShot values).
	SmoothLastK int
}

// DynamicResult holds concurrent estimation traces over a churn run.
type DynamicResult struct {
	// Names of the estimator instances.
	Names []string
	// Steps at which estimations happened.
	Steps []float64
	// TrueSizes[i] is the real overlay size at Steps[i].
	TrueSizes []float64
	// Estimates[k][i] is instance k's (possibly smoothed) estimate at
	// Steps[i]; NaN when the instance failed at that point (for example,
	// the overlay fragmented under it).
	Estimates [][]float64
	// Failures[k] counts instance k's failed estimations.
	Failures []int
}

// TrackingError summarizes how well instance k tracked the true size:
// mean |est/true - 1|·100 over its successful estimations.
func (r *DynamicResult) TrackingError(k int) float64 {
	if k < 0 || k >= len(r.Estimates) {
		panic("core: TrackingError index out of range")
	}
	sum, n := 0.0, 0
	for i, est := range r.Estimates[k] {
		if math.IsNaN(est) || r.TrueSizes[i] == 0 {
			continue
		}
		sum += math.Abs(est/r.TrueSizes[i]-1) * 100
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
