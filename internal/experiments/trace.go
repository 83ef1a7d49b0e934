package experiments

// Trace-driven monitoring experiments: the paper's dynamic scenarios are
// stylized ramps and shocks, but its stated use case is tracking the
// size of a live, churning network. These experiments replay realistic
// churn traces (heavy-tailed session lengths, diurnal load, flash
// crowds, and the IPFS-calibrated empirical workload) through the
// monitor subsystem and compare how well the selected estimator roster
// (Params.Estimators; default: Sample&Collide, Random Tour,
// HopsSampling, Aggregation) tracks the true size, at what message
// budget and staleness — each family optionally on its own sampling
// cadence (Params.Cadences).

import (
	"fmt"
	"math"

	"p2psize/internal/core"
	"p2psize/internal/metrics"
	"p2psize/internal/monitor"
	"p2psize/internal/parallel"
	"p2psize/internal/registry"
	"p2psize/internal/trace"
	"p2psize/internal/xrand"
)

func init() {
	register("trace-weibull", traceWeibull)
	register("trace-diurnal", traceDiurnal)
	register("trace-flashcrowd", traceFlashcrowd)
}

// traceInstances builds the monitored roster from the registry: the
// families named by Params.Estimators (default: the paper's three
// head-to-head algorithms plus Random Tour, the random-walk baseline
// the study rejected on overhead grounds — continuous monitoring is
// exactly the regime where that overhead gap matters). Each family's
// rng derives from its fixed StreamOffset and each carries its
// Params.Cadences override, so both the selection and the cadence mix
// leave every other family's series untouched.
func traceInstances(p Params, stream uint64) ([]monitor.Instance, error) {
	roster, err := registry.Resolve(p.Estimators)
	if err != nil {
		return nil, err
	}
	cadences, err := registry.MonitoringCadences(roster, p.Cadences)
	if err != nil {
		return nil, err
	}
	// The instances fan out inside the monitor; the Aggregation epochs
	// shard their sweeps with the leftover budget.
	_, inner := parallel.Split(p.Workers, len(roster))
	opts := registry.Options{
		Tours:   3, // Random Tour's monitoring setting: one tour is far too noisy to track with
		Rounds:  p.EpochLen,
		Workers: inner,
	}
	out := make([]monitor.Instance, len(roster))
	for i, d := range roster {
		e, err := d.Build(nil, xrand.New(p.Seed+stream+d.StreamOffset), withFaults(p, opts))
		if err != nil {
			return nil, fmt.Errorf("estimator %q: %w", d.Name, err)
		}
		out[i] = monitor.Instance{Estimator: e, Cadence: cadences[i]}
	}
	return out, nil
}

// runTrace is the shared body of the trace experiments: replay tr on
// per-estimator clones of a fresh heterogeneous overlay, sample each
// roster member on its cadence under the given policy, and report
// tracking series plus per-estimator metrics.
func runTrace(id, title string, tr *trace.Trace, policy monitor.Policy, p Params, stream uint64) (*Figure, error) {
	// A Params.Faults partition clause composes onto ANY trace workload:
	// the spec's lo-hi window scales to the trace's own horizon. Folded
	// onto a copy — callers may share one trace across experiments, and
	// AddPartitionHeal rewrites the event list in place.
	if f := p.Faults; f.PartitionFrac > 0 {
		cp := *tr
		cp.Events = append([]trace.Event(nil), tr.Events...)
		if err := cp.AddPartitionHeal(f.PartitionLo*tr.Horizon, f.PartitionHi*tr.Horizon,
			f.PartitionFrac, xrand.New(p.Seed+stream+2)); err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		cp.Name += "+partition"
		tr = &cp
	}
	net := hetNet(tr.Initial, p, stream)
	ins, err := traceInstances(p, stream)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	res, err := monitor.RunScheduled(ins, net, tr, monitor.Config{
		Cadence: p.TraceCadence,
		Policy:  policy,
	}, func() *xrand.Rand { return xrand.New(p.Seed + stream + 1) }, p.Workers)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	fig := &Figure{ID: id, Title: title, XLabel: "Time", YLabel: "Size"}
	real := &metrics.Series{Name: "Real network size"}
	for i := range res.Times {
		real.Append(res.Times[i], res.TrueSizes[i])
	}
	fig.Series = append(fig.Series, real)
	for k, name := range res.Names {
		s := &metrics.Series{Name: name}
		for i := range res.Times {
			s.Append(res.Times[i], res.Smoothed[k][i])
		}
		fig.Series = append(fig.Series, s)
		if mape := res.MAPE(k); math.IsNaN(mape) {
			fig.AddNote("%s: produced no usable estimates (%d failures)", name, res.Failures[k])
		} else {
			fig.AddNote("%s: MAE %.0f, MAPE %.1f%%, staleness %.1f, %.0f msgs/time-unit (%d failures, %d restarts)",
				name, res.MAE(k), mape, res.MeanStaleness(k), res.MsgsPerTime(k),
				res.Failures[k], res.Restarts[k])
		}
	}
	for k, name := range res.Names {
		if res.Cadences[k] != p.TraceCadence {
			fig.AddNote("%s sampled every %g time units (%d estimations; base cadence %g)",
				name, res.Cadences[k], res.Scheduled[k], p.TraceCadence)
		}
	}
	fig.AddNote("trace %q: %d initial, %d joins, %d leaves over horizon %g; policy %s, cadence %g",
		tr.Name, tr.Initial, tr.Joins(), tr.Leaves(), tr.Horizon, res.Policy, p.TraceCadence)
	fig.Messages = net.Counter().Total()
	return fig, nil
}

func traceWeibull(p Params) (*Figure, error) {
	tr, err := trace.Generate(trace.Config{
		Name:    "weibull",
		Initial: p.N100k,
		Horizon: p.TraceHorizon,
		// Shape 0.5 is the heavy-tailed fit reported for deployed P2P
		// systems; mean = horizon gives one full population turnover in
		// expectation.
		Session: trace.SessionDist{Kind: trace.Weibull, Mean: p.TraceHorizon, Shape: 0.5},
	}, xrand.New(p.Seed+0x4002))
	if err != nil {
		return nil, err
	}
	return runTrace("trace-weibull",
		"Continuous monitoring under heavy-tailed (Weibull k=0.5) session churn",
		tr, monitor.Policy{Smoothing: monitor.Window, Window: core.LastK}, p, 0x4000)
}

func traceDiurnal(p Params) (*Figure, error) {
	tr, err := trace.Generate(trace.Config{
		Name:    "diurnal",
		Initial: p.N100k,
		Horizon: p.TraceHorizon,
		Session: trace.SessionDist{Kind: trace.LogNormal, Mean: p.TraceHorizon / 2, Shape: 1.5},
		// Two "days" per trace with an 80% day/night swing in arrivals.
		DiurnalAmplitude: 0.8,
	}, xrand.New(p.Seed+0x4102))
	if err != nil {
		return nil, err
	}
	return runTrace("trace-diurnal",
		"Continuous monitoring under diurnal arrivals with lognormal sessions",
		tr, monitor.Policy{Smoothing: monitor.EWMA, Alpha: 0.3}, p, 0x4100)
}

func traceFlashcrowd(p Params) (*Figure, error) {
	tr, err := trace.Generate(trace.Config{
		Name:    "flashcrowd",
		Initial: p.N100k,
		Horizon: p.TraceHorizon,
		Session: trace.SessionDist{Kind: trace.Exponential, Mean: p.TraceHorizon / 2},
	}, xrand.New(p.Seed+0x4202))
	if err != nil {
		return nil, err
	}
	// A +50% flash crowd of short-lived (Pareto) visitors at 30% of the
	// horizon, then a -25% correlated failure at 70%.
	if err := tr.AddFlashCrowd(0.3*p.TraceHorizon, p.N100k/2,
		trace.SessionDist{Kind: trace.Pareto, Mean: p.TraceHorizon / 20, Shape: 1.5},
		xrand.New(p.Seed+0x4203)); err != nil {
		return nil, err
	}
	if err := tr.AddMassFailure(0.7*p.TraceHorizon, 0.25, xrand.New(p.Seed+0x4204)); err != nil {
		return nil, err
	}
	return runTrace("trace-flashcrowd",
		"Continuous monitoring through a +50% flash crowd and a -25% mass failure",
		tr, monitor.Policy{Smoothing: monitor.Window, Window: core.LastK, RestartJump: 0.5}, p, 0x4200)
}

// RunTraceFigure monitors an externally supplied (e.g. empirical) trace
// with the standard estimator set and the default window policy,
// producing a figure in the same shape as the registered trace-*
// experiments. The overlay is built to the trace's initial population;
// Params supplies seed, degree cap, cadence and worker budget.
func RunTraceFigure(id string, tr *trace.Trace, p Params) (*Figure, error) {
	if tr.Initial < 2 {
		return nil, fmt.Errorf("experiments: trace %q has %d initial sessions; need >= 2 to build an overlay",
			tr.Name, tr.Initial)
	}
	return runTrace(id,
		fmt.Sprintf("Continuous monitoring of empirical trace %q", tr.Name),
		tr, monitor.Policy{Smoothing: monitor.Window, Window: core.LastK}, p, 0x4300)
}
