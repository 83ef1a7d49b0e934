package experiments

// Trace-driven monitoring experiments: the paper's dynamic scenarios are
// stylized ramps and shocks, but its stated use case is tracking the
// size of a live, churning network. These experiments replay realistic
// churn traces (heavy-tailed session lengths, diurnal load, flash
// crowds, and the IPFS-calibrated empirical workload) through the
// monitor subsystem and compare how well a fixed roster (the registry's
// default set: Sample&Collide, Random Tour, HopsSampling, Aggregation;
// every monitoring family for trace-ipfs-all) tracks the true size, at
// what message budget and staleness, every family on one cadence. The
// default set adds Random Tour, the walk baseline the study rejected on
// overhead grounds, to the paper's three candidates: continuous
// monitoring is exactly the regime where that overhead gap matters. A
// custom roster, per-family cadences, faults or a trace file are runs of
// p2psize -trace, not experiments.

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

// traceInstances builds the monitored roster from the registry. Each
// family's rng derives from its fixed StreamOffset, so a family's series
// is the same in every roster it appears in.
func traceInstances(id string, roster []string, p Params, stream uint64) ([]monitor.Instance, error) {
	// The instances fan out inside the monitor; the Aggregation epochs
	// shard their sweeps with the leftover budget.
	_, inner := parallel.Split(p.Workers, len(roster))
	opts := registry.Options{
		Tours:   3, // Random Tour's monitoring setting: one tour is far too noisy to track with
		Rounds:  epochLen,
		Workers: inner,
	}
	out := make([]monitor.Instance, len(roster))
	for i, name := range roster {
		d, err := estimator(id, name)
		if err != nil {
			return nil, err
		}
		e, err := d.Build(nil, xrand.New(p.Seed+stream+d.StreamOffset), opts)
		if err != nil {
			return nil, fmt.Errorf("%s: estimator %q: %w", id, d.Name, err)
		}
		out[i] = monitor.Instance{Estimator: e}
	}
	return out, nil
}

// runTrace is the shared body of the trace experiments: replay tr on
// one fresh heterogeneous overlay, sample each roster member every
// traceCadence under the given policy, and report tracking series plus
// per-estimator metrics.
func runTrace(id, title string, tr *trace.Trace, policy monitor.Policy, roster []string, p Params, stream uint64) (*Figure, error) {
	net := hetNet(tr.Initial, p, stream)
	ins, err := traceInstances(id, roster, p, stream)
	if err != nil {
		return nil, err
	}
	res, err := monitor.RunScheduled(ins, net, tr, monitor.Config{
		Cadence: traceCadence,
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
	fig.AddNote("trace %q: %d initial, %d joins, %d leaves over horizon %g; policy %s, cadence %g",
		tr.Name, tr.Initial, tr.Joins(), tr.Leaves(), tr.Horizon, res.Policy, traceCadence)
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
		tr, monitor.Policy{Smoothing: monitor.Window, Window: core.LastK}, registry.DefaultSet(), p, 0x4000)
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
		tr, monitor.Policy{Smoothing: monitor.EWMA, Alpha: 0.3}, registry.DefaultSet(), p, 0x4100)
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
		tr, monitor.Policy{Smoothing: monitor.Window, Window: core.LastK, RestartJump: 0.5}, registry.DefaultSet(), p, 0x4200)
}
