// Package stats provides the statistical primitives the comparative study
// is built on: running moments, sliding windows (the paper's "last10runs"
// heuristic), exact quantiles, histograms and estimation-quality metrics.
//
// Everything here is deterministic and allocation-conscious; the hot paths
// (per-round quality tracking on million-node networks) avoid per-sample
// allocation entirely.
package stats

import (
	"math"
	"sort"
)

// Running accumulates count, mean, variance (Welford) and max of a
// stream of float64 observations in O(1) memory.
type Running struct {
	n             int
	mean, m2, max float64
}

// Add folds one observation into the accumulator.
func (r *Running) Add(x float64) {
	if r.n == 0 || x > r.max {
		r.max = x
	}
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Mean returns the sample mean (0 if empty).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance (0 if fewer than two
// observations).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation. No run reads it; it
// ships for the tests that bound an estimator's spread.
//
//detlint:allow testonly used by the stats, aggregation, capturerecapture, cyclon, dhtext and pushsum tests
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Max returns the largest observation (0 if empty).
func (r *Running) Max() float64 { return r.max }

// Reset clears the accumulator.
func (r *Running) Reset() { *r = Running{} }

// Window is a fixed-capacity sliding window over the most recent K
// observations. It implements the paper's lastKruns smoothing
// ("last10runs" with K = 10).
type Window struct {
	buf  []float64
	next int
	full bool
}

// NewWindow returns a window holding the last k observations.
// It panics if k <= 0.
func NewWindow(k int) *Window {
	if k <= 0 {
		panic("stats: NewWindow with k <= 0")
	}
	return &Window{buf: make([]float64, k)}
}

// Add pushes an observation, evicting the oldest once the window is full.
func (w *Window) Add(x float64) {
	w.buf[w.next] = x
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
		w.full = true
	}
}

// Len returns the number of observations currently held.
func (w *Window) Len() int {
	if w.full {
		return len(w.buf)
	}
	return w.next
}

// Mean returns the mean of the held observations (0 if empty).
func (w *Window) Mean() float64 {
	n := w.Len()
	if n == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += w.buf[i]
	}
	return sum / float64(n)
}

// Reset empties the window.
func (w *Window) Reset() {
	w.next = 0
	w.full = false
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It panics on an empty slice or
// out-of-range q. The input is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic("stats: Quantile with q outside [0,1]")
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// QualityPct expresses an estimate as a percentage of the true size, the
// normalization used on every static-setting figure of the paper
// ("the system size is normalized to 100").
func QualityPct(estimate, trueSize float64) float64 {
	if trueSize == 0 {
		return 0
	}
	return 100 * estimate / trueSize
}
