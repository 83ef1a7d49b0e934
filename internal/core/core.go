// Package core is the comparative-study harness — the paper's actual
// contribution. It defines the common contract the candidate algorithms
// are measured against and the static run loop: repeated estimations on
// one overlay (with the oneShot and lastKruns heuristics), all against
// the same inputs and the same message meter. Concurrent estimation
// processes on an overlay under churn are sampled by internal/monitor,
// on the same contract.
package core

import (
	"errors"

	"p2psize/internal/overlay"
	"p2psize/internal/stats"
)

// ErrReadOnly marks an estimate that tried to change the overlay it was
// handed through the public Network's churn methods or ApplyAdversary,
// which refuse inside Estimate. A monitoring run fails on it, since
// every estimator of a run reads one replayed trajectory.
var ErrReadOnly = errors.New("an estimator may not change the overlay")

// Estimator is the contract shared by the three candidates: one call
// produces one size estimate for the overlay's current state, metering
// all traffic it generates on the network's counter. Estimate only
// reads the overlay, and may run beside other estimates reading it.
type Estimator interface {
	// Name identifies the estimator (and its headline parameters).
	Name() string
	// Estimate runs one estimation process and returns the estimated
	// number of live peers.
	Estimate(net *overlay.Network) (float64, error)
}

// OverlayMutator is the optional declaration an Estimator makes of
// whether a deployment of it would rewire the overlay (as a
// cyclon-backed epidemic family would) or only observe it (walks,
// polls, probes). It chooses nothing: every estimator only reads the
// overlay it is handed and is safe beside other estimators reading the
// same one, and a monitoring run puts every instance on its own view
// of one replayed overlay. The declaration only feeds the replay-group
// count a monitoring run reports (monitor.Result.Groups), which goes
// with the benchmark's next re-pin.
type OverlayMutator interface {
	// MutatesOverlay reports whether Estimate mutates the overlay.
	MutatesOverlay() bool
}

// MutatesOverlay reports whether e declares itself overlay-mutating.
// Estimators that do not implement OverlayMutator count as mutating.
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
