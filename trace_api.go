package p2psize

// Public churn-trace surface: generate realistic workloads (heavy-tailed
// sessions, diurnal load, flash crowds, mass failures), load empirical
// traces from JSON/CSV, and feed them to RunMonitor. Thin wrappers over
// internal/trace; see that package for the semantics.

import (
	"errors"
	"fmt"
	"io"
	"math"

	"p2psize/internal/trace"
	"p2psize/internal/xrand"
)

// SessionModel selects the session-length distribution family of a
// generated trace.
type SessionModel = trace.SessionKind

const (
	// ExponentialSessions is the memoryless baseline.
	ExponentialSessions = trace.Exponential
	// WeibullSessions with Shape < 1 match the heavy-tailed session
	// lengths measured in deployed peer-to-peer systems.
	WeibullSessions = trace.Weibull
	// LogNormalSessions are the other common empirical fit.
	LogNormalSessions = trace.LogNormal
	// ParetoSessions have a power-law tail; Shape (the tail index) must
	// exceed 1.
	ParetoSessions = trace.Pareto
)

// TraceOptions configures GenerateTrace.
type TraceOptions struct {
	// Nodes is the population at time 0. Required.
	Nodes int
	// Horizon is the trace duration in simulated time units. Required.
	Horizon float64
	// Sessions selects the session-length family (default
	// ExponentialSessions).
	Sessions SessionModel
	// MeanSession is the expected session duration (default Horizon).
	MeanSession float64
	// Shape is the family's tail parameter: Weibull shape (default 0.5),
	// LogNormal sigma (default 1.5), Pareto tail index (default 2).
	Shape float64
	// ArrivalRate is the expected joins per time unit; 0 means the
	// stationary rate Nodes/MeanSession.
	ArrivalRate float64
	// DiurnalAmplitude in [0, 1) adds a day/night swing to arrivals.
	DiurnalAmplitude float64
	// DiurnalPeriod is the swing period (default Horizon/2).
	DiurnalPeriod float64
	// Seed drives generation; equal options give identical traces.
	Seed uint64
	// Name labels the trace in reports (default: the session family).
	Name string
	// Workers bounds the goroutines generation fans its per-session
	// random streams across (0 = all CPUs). The trace is byte-identical
	// at every setting.
	Workers int
}

// Trace is a timestamped join/leave workload, either generated or loaded
// from an empirical measurement. Replay it with RunMonitor.
type Trace struct {
	tr *trace.Trace
}

// GenerateTrace builds a synthetic churn trace per the options.
func GenerateTrace(opts TraceOptions) (*Trace, error) {
	if opts.Nodes < 1 {
		return nil, errors.New("p2psize: TraceOptions.Nodes must be >= 1")
	}
	if opts.Horizon <= 0 {
		return nil, errors.New("p2psize: TraceOptions.Horizon must be positive")
	}
	mean := opts.MeanSession
	if mean == 0 {
		mean = opts.Horizon
	}
	shape := opts.Shape
	if shape == 0 {
		switch opts.Sessions {
		case trace.Weibull:
			shape = 0.5
		case trace.LogNormal:
			shape = 1.5
		case trace.Pareto:
			shape = 2
		}
	}
	cfg := trace.Config{
		Name:             opts.Name,
		Initial:          opts.Nodes,
		Horizon:          opts.Horizon,
		ArrivalRate:      opts.ArrivalRate,
		Session:          trace.SessionDist{Kind: opts.Sessions, Mean: mean, Shape: shape},
		DiurnalAmplitude: opts.DiurnalAmplitude,
		DiurnalPeriod:    opts.DiurnalPeriod,
	}
	tr, err := trace.GenerateParallel(cfg, opts.Seed, opts.Workers)
	if err != nil {
		return nil, err
	}
	return &Trace{tr: tr}, nil
}

// AddFlashCrowd composes count short-lived visitors joining together at
// time at. meanStay is their expected session length (0 = 1/20 of the
// horizon); lifetimes are drawn Pareto with tail index 1.5, the typical
// flash-crowd profile. Seed makes the composition deterministic.
func (t *Trace) AddFlashCrowd(at float64, count int, meanStay float64, seed uint64) error {
	if !(meanStay >= 0) || math.IsInf(meanStay, 1) {
		return fmt.Errorf("p2psize: flash crowd meanStay=%g must be finite and >= 0", meanStay)
	}
	if meanStay == 0 {
		meanStay = t.tr.Horizon / 20
	}
	d := trace.SessionDist{Kind: trace.Pareto, Mean: meanStay, Shape: 1.5}
	return t.tr.AddFlashCrowd(at, count, d, xrand.New(seed))
}

// AddMassFailure makes the given fraction of the peers alive at time at
// leave at that instant — a correlated failure.
func (t *Trace) AddMassFailure(at, fraction float64, seed uint64) error {
	return t.tr.AddMassFailure(at, fraction, xrand.New(seed))
}

// AddPartitionHeal splits the given fraction of the peers alive at
// splitAt off the monitored component until healAt: from the majority's
// point of view the victims depart at the split and the survivors among
// them rejoin as fresh sessions at the heal. Victims whose own session
// would have ended inside the partition window never come back. Seed
// makes the victim draw deterministic.
func (t *Trace) AddPartitionHeal(splitAt, healAt, fraction float64, seed uint64) error {
	return t.tr.AddPartitionHeal(splitAt, healAt, fraction, xrand.New(seed))
}

// InitialNodes returns the population at time 0.
func (t *Trace) InitialNodes() int { return t.tr.Initial }

// Horizon returns the trace duration.
func (t *Trace) Horizon() float64 { return t.tr.Horizon }

// Name returns the trace label.
func (t *Trace) Name() string { return t.tr.Name }

// Joins returns the number of arrivals in the trace.
func (t *Trace) Joins() int { return t.tr.Joins() }

// Leaves returns the number of departures in the trace.
func (t *Trace) Leaves() int { return t.tr.Leaves() }

// SizeAt returns the population after all events up to time at.
func (t *Trace) SizeAt(at float64) int { return t.tr.SizeAt(at) }

// WriteJSON serializes the trace in the p2psize-trace/v1 JSON format.
func (t *Trace) WriteJSON(w io.Writer) error { return t.tr.WriteJSON(w) }

// WriteCSV serializes the trace as "t,session,op" CSV with "#key value"
// metadata headers.
func (t *Trace) WriteCSV(w io.Writer) error { return t.tr.WriteCSV(w) }

// ReadTraceJSON loads a trace written by WriteJSON (or authored from an
// empirical measurement).
func ReadTraceJSON(r io.Reader) (*Trace, error) {
	tr, err := trace.ReadJSON(r)
	if err != nil {
		return nil, err
	}
	return &Trace{tr: tr}, nil
}

// ReadTraceCSV loads a trace written by WriteCSV.
func ReadTraceCSV(r io.Reader) (*Trace, error) {
	tr, err := trace.ReadCSV(r)
	if err != nil {
		return nil, err
	}
	return &Trace{tr: tr}, nil
}

// ReadTraceFile loads a trace from a file. Gzip is detected from the
// content, and so is the CSV or JSON form; the extension (a trailing
// ".gz" stripped) breaks the tie only for content neither form opens
// with: ".csv" reads CSV, everything else JSON.
func ReadTraceFile(path string) (*Trace, error) {
	tr, err := trace.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &Trace{tr: tr}, nil
}
