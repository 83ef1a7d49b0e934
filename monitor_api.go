package p2psize

// Public continuous-monitoring surface: run estimators on a cadence
// against an overlay evolving under a churn Trace and get tracking
// series plus error/staleness/budget metrics. Thin wrapper over
// internal/monitor; see that package for the semantics.

import (
	"errors"
	"fmt"
	"strings"

	"p2psize/internal/monitor"
	"p2psize/internal/xrand"
)

// SmoothingPolicy selects how a monitor folds raw estimates into the
// value it serves.
type SmoothingPolicy = monitor.Smoothing

const (
	// NoSmoothing serves each raw estimate as-is (the paper's oneShot).
	NoSmoothing = monitor.None
	// WindowSmoothing serves the mean of the last Window raw estimates
	// (the paper's lastKruns).
	WindowSmoothing = monitor.Window
	// EWMASmoothing serves an exponentially weighted moving average.
	EWMASmoothing = monitor.EWMA
)

// MonitorOptions configures RunMonitor.
type MonitorOptions struct {
	// Cadence is the simulated time between estimations for every
	// estimator without its own entry in Cadences. Required unless
	// every estimator has one.
	Cadence float64
	// Cadences optionally gives estimator k (matching the estimators
	// slice) its own sampling cadence; 0 entries inherit Cadence. The
	// result's time grid is the union of all schedules: estimators hold
	// their last served value between their own samples, trading
	// message budget against staleness inside one run. Like the shard
	// count, cadences are part of the output, not a scheduling knob.
	Cadences []float64
	// Policy selects the smoothing (default NoSmoothing).
	Policy SmoothingPolicy
	// Window is the WindowSmoothing length (default 10).
	Window int
	// Alpha is the EWMASmoothing weight in (0, 1] (default 0.3).
	Alpha float64
	// RestartJump > 0 restarts the smoothing state when a raw estimate
	// deviates from the served value by more than this relative
	// fraction — fast re-convergence after shocks.
	RestartJump float64
	// ReplaySeed drives the replay's join wiring (default: the zero
	// stream). Equal seeds give byte-identical runs.
	ReplaySeed uint64
	// Replay has no effect.
	//
	// Deprecated: it used to choose between one replay per estimator
	// and the one replay RunMonitor now always makes; both produced
	// bit-identical results.
	Replay string
	// Workers is the run's goroutine budget (0 = all CPUs): the
	// estimators due at a tick estimate concurrently on up to Workers
	// goroutines, after the replay has advanced alone. 1 runs everything
	// inline on the caller's goroutine. Output is identical at every
	// setting.
	Workers int
}

// MonitorMetrics summarizes one estimator's tracking performance.
type MonitorMetrics struct {
	// Name of the estimator instance.
	Name string
	// Cadence the instance actually sampled at.
	Cadence float64
	// Estimations is the number of samples its own schedule held.
	Estimations int
	// MAE is the mean absolute error |served − true| in peers.
	MAE float64
	// MAPE is the mean absolute percentage error |served/true − 1|·100.
	MAPE float64
	// Staleness is the mean age, in simulated time, of the data behind
	// the served values.
	Staleness float64
	// MsgsPerTimeUnit is the metered protocol traffic per simulated
	// time unit.
	MsgsPerTimeUnit float64
	// Failures counts estimations that returned an error.
	Failures int
	// Restarts counts restart-on-shock resets.
	Restarts int
}

// MonitorResult holds the tracking series and metrics of a RunMonitor
// call.
type MonitorResult struct {
	res *monitor.Result
}

// Times returns the sample times.
func (r *MonitorResult) Times() []float64 { return r.res.Times }

// TrueSizes returns the real overlay size at each sample.
func (r *MonitorResult) TrueSizes() []float64 { return r.res.TrueSizes }

// Names returns the estimator names, in instance order.
func (r *MonitorResult) Names() []string { return r.res.Names }

// Groups returns a count that chooses nothing: one per cadence shared
// by estimators that declare MutatesOverlay() false, plus one per other
// estimator. Every estimator of the run estimates on its own view of
// the one replayed overlay whatever the count. It is kept until the
// benchmark's next re-pin, which deletes it.
func (r *MonitorResult) Groups() int { return r.res.Groups }

// check validates an instance index before it reaches the internal
// slices, so a caller iterating the wrong roster gets a p2psize-
// attributed message instead of a bare runtime bounds panic.
func (r *MonitorResult) check(k int) {
	if k < 0 || k >= len(r.res.Names) {
		panic(fmt.Sprintf("p2psize: estimator index %d out of range [0, %d)", k, len(r.res.Names)))
	}
}

// Estimates returns instance k's served (smoothed) values per sample;
// NaN before its first success. Panics if k is out of range.
func (r *MonitorResult) Estimates(k int) []float64 {
	r.check(k)
	return r.res.Smoothed[k]
}

// RawEstimates returns instance k's raw values per sample; NaN on
// failed estimations. Panics if k is out of range.
func (r *MonitorResult) RawEstimates(k int) []float64 {
	r.check(k)
	return r.res.Raw[k]
}

// Tracking returns instance k's summary metrics. Panics if k is out of
// range.
func (r *MonitorResult) Tracking(k int) MonitorMetrics {
	r.check(k)
	return MonitorMetrics{
		Name:            r.res.Names[k],
		Cadence:         r.res.Cadences[k],
		Estimations:     r.res.Scheduled[k],
		MAE:             r.res.MAE(k),
		MAPE:            r.res.MAPE(k),
		Staleness:       r.res.MeanStaleness(k),
		MsgsPerTimeUnit: r.res.MsgsPerTime(k),
		Failures:        r.res.Failures[k],
		Restarts:        r.res.Restarts[k],
	}
}

// String renders a per-estimator tracking table.
func (r *MonitorResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %8s %10s %8s %10s %12s %9s %9s\n",
		"estimator", "cadence", "MAE", "MAPE%", "staleness", "msgs/time", "failures", "restarts")
	for k := range r.res.Names {
		m := r.Tracking(k)
		fmt.Fprintf(&b, "%-28s %8g %10.0f %8.1f %10.1f %12.0f %9d %9d\n",
			m.Name, m.Cadence, m.MAE, m.MAPE, m.Staleness, m.MsgsPerTimeUnit, m.Failures, m.Restarts)
	}
	return b.String()
}

// RunMonitor replays the trace once, on a copy-on-write clone of net,
// and samples every estimator each opts.Cadence time units under the
// chosen smoothing policy. The network must hold exactly
// tr.InitialNodes() peers. The estimators due at a tick estimate
// concurrently on a worker pool, each on its own read-only view of the
// replayed overlay: an estimate that calls a churn method or
// ApplyAdversary fails the run (see CustomEstimator). Equal seeds give
// byte-identical results at every worker count. The network itself is
// left unmutated, with all metered traffic merged into Messages().
func RunMonitor(net *Network, tr *Trace, estimators []Estimator, opts MonitorOptions) (*MonitorResult, error) {
	if net == nil {
		return nil, errors.New("p2psize: RunMonitor needs a network")
	}
	if tr == nil {
		return nil, errors.New("p2psize: RunMonitor needs a trace")
	}
	if len(estimators) == 0 {
		return nil, errors.New("p2psize: RunMonitor needs at least one estimator")
	}
	if len(opts.Cadences) != 0 && len(opts.Cadences) != len(estimators) {
		return nil, fmt.Errorf("p2psize: MonitorOptions.Cadences has %d entries for %d estimators",
			len(opts.Cadences), len(estimators))
	}
	instances := make([]monitor.Instance, len(estimators))
	for k, e := range estimators {
		if e == nil {
			return nil, fmt.Errorf("p2psize: estimator %d is nil", k)
		}
		instances[k] = monitor.Instance{Estimator: toCore(e)}
		if len(opts.Cadences) != 0 {
			instances[k].Cadence = opts.Cadences[k]
		}
	}
	res, err := monitor.RunScheduled(instances, net.net, tr.tr, monitor.Config{
		Cadence: opts.Cadence,
		Policy: monitor.Policy{
			Smoothing:   opts.Policy,
			Window:      opts.Window,
			Alpha:       opts.Alpha,
			RestartJump: opts.RestartJump,
		},
	}, func() *xrand.Rand { return xrand.New(opts.ReplaySeed) }, opts.Workers)
	if err != nil {
		return nil, err
	}
	return &MonitorResult{res: res}, nil
}
