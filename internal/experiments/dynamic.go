package experiments

import (
	"fmt"
	"math"

	"p2psize/internal/aggregation"
	"p2psize/internal/churn"
	"p2psize/internal/core"
	"p2psize/internal/metrics"
	"p2psize/internal/monitor"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/stats"
	"p2psize/internal/xrand"
)

func init() {
	register("fig09", fig09)
	register("fig10", fig10)
	register("fig11", fig11)
	register("fig12", fig12)
	register("fig13", fig13)
	register("fig14", fig14)
	register("fig15", fig15)
	register("fig16", fig16)
	register("fig17", fig17)
}

// sampleDynamic is the shared body of Figs 9-14: three concurrent
// processes of one family sampled every `every` churn steps on the
// monitor's step clock — each on its own view of the one trunk the
// scenario steps, as every monitoring run estimates — laid out as the
// paper's dynamic figures: the real size curve plus one "Estimation #k"
// curve per process, its lastKruns mean (lastK = 1 is the raw oneShot
// curve). The tracking notes are computed from the curves as drawn.
//
// lastKruns is folded here with stats.Window rather than by the
// monitor's Window policy: the monitor sums its window oldest-first,
// stats.Window.Mean in slot order, and the last ulp that separates them
// is in the figures' frozen checksums.
func sampleDynamic(fig *Figure, family string, scenario churn.Scenario, every, lastK int, p Params, stream uint64) (*Figure, error) {
	net := hetNet(p.N100k, p, stream)
	ins, err := instances(fig.ID, family, 3, p, stream)
	if err != nil {
		return nil, err
	}
	sched := make([]monitor.Instance, len(ins))
	for k, e := range ins {
		sched[k] = monitor.Instance{Estimator: e}
	}
	res, err := monitor.RunScenario(sched, net, scenario, monitor.Config{Cadence: float64(every)},
		func() *xrand.Rand { return xrand.New(p.Seed + stream + 1) }, p.Workers)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", fig.ID, err)
	}
	real := &metrics.Series{Name: "Real network size"}
	for i, t := range res.Times {
		real.Append(t, res.TrueSizes[i])
	}
	fig.Series = []*metrics.Series{real}
	for k, raw := range res.Raw {
		curve := &metrics.Series{Name: fmt.Sprintf("Estimation #%d", k+1)}
		window := stats.NewWindow(lastK)
		for i, est := range raw {
			if !math.IsNaN(est) { // a failed estimation stays a gap
				window.Add(est)
				est = window.Mean()
			}
			curve.Append(res.Times[i], est)
		}
		fig.Series = append(fig.Series, curve)
		if te := trackingError(curve.Y, res.TrueSizes); math.IsNaN(te) {
			fig.AddNote("estimation #%d produced no usable estimates", k+1)
		} else {
			fig.AddNote("estimation #%d mean tracking error %.1f%% (%d failures)",
				k+1, te, res.Failures[k])
		}
	}
	fig.Messages = net.Counter().Total()
	return fig, nil
}

// trackingError summarizes how well a curve tracked the true size: mean
// |est/true - 1|·100 over its usable points (NaN when there are none).
func trackingError(estimates, trueSizes []float64) float64 {
	sum, n := 0.0, 0
	for i, est := range estimates {
		if math.IsNaN(est) || trueSizes[i] == 0 {
			continue
		}
		sum += math.Abs(est/trueSizes[i]-1) * 100
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// scDynamic is Figs 9-11: Sample&Collide (oneShot, l=200) with one
// estimate per churn step.
func scDynamic(id, title string, scenario churn.Scenario, p Params, stream uint64) (*Figure, error) {
	fig := &Figure{ID: id, Title: title, XLabel: "Number of estimations", YLabel: "Estimated size"}
	return sampleDynamic(fig, "samplecollide", scenario, 1, 1, p, stream)
}

func fig09(p Params) (*Figure, error) {
	return scDynamic("fig09",
		"Sample&Collide: oneShot heuristic, 100,000 node network, catastrophic failures",
		churn.Catastrophic(p.N100k, p.SCRuns), p, 0x0900)
}

func fig10(p Params) (*Figure, error) {
	return scDynamic("fig10",
		"Sample&Collide: oneShot, 100,000 node network, growing network",
		churn.Growing(p.N100k, p.SCRuns, 0.5), p, 0x0a00)
}

func fig11(p Params) (*Figure, error) {
	return scDynamic("fig11",
		"Sample&Collide: oneShot, 100,000 node network, shrinking network",
		churn.Shrinking(p.N100k, p.SCRuns, 0.5), p, 0x0b00)
}

// hopsDynamic is Figs 12-14: HopsSampling restarted every few time
// units, each process smoothed with last10runs.
func hopsDynamic(id, title string, scenario churn.Scenario, p Params, stream uint64) (*Figure, error) {
	fig := &Figure{ID: id, Title: title, XLabel: "Time", YLabel: "Size"}
	return sampleDynamic(fig, "hopssampling", scenario, max(1, p.HopsHorizon/100), core.LastK, p, stream)
}

func fig12(p Params) (*Figure, error) {
	return hopsDynamic("fig12",
		"HopsSampling: Last10runs heuristic, 100,000 node network, catastrophic failures",
		churn.Catastrophic(p.N100k, p.HopsHorizon), p, 0x0c00)
}

func fig13(p Params) (*Figure, error) {
	return hopsDynamic("fig13",
		"HopsSampling: Last10runs heuristic, 100,000 node network, growing network",
		churn.Growing(p.N100k, p.HopsHorizon, 0.5), p, 0x0d00)
}

func fig14(p Params) (*Figure, error) {
	return hopsDynamic("fig14",
		"HopsSampling: Last10runs heuristic, 100,000 node network, shrinking network",
		churn.Shrinking(p.N100k, p.HopsHorizon, 0.5), p, 0x0e00)
}

// aggDynamic is the shared body of Figs 15-17: three concurrent epoch-
// restarted Aggregation processes; churn advances every round; estimates
// are read at each epoch boundary (every epochLen rounds). One overlay,
// one churn trajectory: estimators only read, so the processes run on
// three metering views of one COW clone (the trunk) that a single
// runner steps alone, and fork within each round (the rule of
// fig05/06's views and of every monitoring run). The runner reserves
// its joins on the clone before the first epoch, and each process
// borrows its state and round engine from the family's free list for
// the run, so each is made once. This is a protocol-stepping loop — one
// churn step, one round, the real size drawn per round — not a sampling
// loop, which is why it does not ride monitor.RunScenario.
func aggDynamic(id, title string, scenario churn.Scenario, p Params, stream uint64) (*Figure, error) {
	net := hetNet(p.N100k, p, stream)
	const instances = 3
	type process struct {
		view     *overlay.Network
		proto    *aggregation.Protocol
		est      *metrics.Series
		failures int
		trackSum float64
		trackN   int
	}
	clone := net.CloneCOW()
	runner := churn.NewRunner(scenario, xrand.New(p.Seed+stream+1))
	runner.Reserve(clone)
	outer, inner := parallel.Split(p.Workers, instances)
	procs := make([]process, instances)
	for k := range procs {
		procs[k] = process{
			view:  clone.View(),
			proto: aggregation.New(aggConfig(inner), xrand.New(p.Seed+stream+10+uint64(k))),
			est:   &metrics.Series{Name: fmt.Sprintf("Estimation #%d", k+1)},
		}
		procs[k].proto.Borrow(procs[k].view)
	}
	defer func() {
		for k := range procs {
			procs[k].proto.Release()
		}
	}()
	for k := range procs {
		if err := procs[k].proto.StartEpoch(procs[k].view); err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
	}
	real := &metrics.Series{Name: "Real size"}
	for round := 0; round < scenario.TotalSteps; round++ {
		runner.Step(clone, round)
		if clone.Size() == 0 {
			break
		}
		x, truth := float64(round+1), float64(clone.Size())
		boundary := (round+1)%epochLen == 0
		err := parallel.ForEach(outer, instances, func(k int) error {
			o := &procs[k]
			if err := o.proto.RunRound(o.view); err != nil {
				return err
			}
			if !boundary {
				return nil
			}
			est, ok := o.proto.Estimate(o.view)
			if !ok {
				o.failures++
				o.est.Append(x, math.NaN())
			} else {
				o.est.Append(x, est)
				if truth > 0 {
					o.trackSum += math.Abs(est/truth-1) * 100
					o.trackN++
				}
			}
			// Restart: new tag, values reset, estimate of the finished
			// epoch was just read.
			return o.proto.StartEpoch(o.view)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		// The paper's figures draw the real size continuously but read
		// estimates only at epoch boundaries; shocks between epochs must
		// stay visible in the real curve.
		real.Append(x, truth)
	}
	fig := &Figure{ID: id, Title: title, XLabel: "#Round", YLabel: "Estimated Size"}
	fig.Series = []*metrics.Series{real}
	for k := range procs {
		o := &procs[k]
		fig.Series = append(fig.Series, o.est)
		if o.trackN == 0 {
			fig.AddNote("estimation #%d produced no usable estimates", k+1)
		} else {
			fig.AddNote("estimation #%d mean tracking error %.1f%% (%d lost epochs)",
				k+1, o.trackSum/float64(o.trackN), o.failures)
		}
		net.Counter().Merge(o.view.Counter())
	}
	fig.Messages = net.Counter().Total()
	return fig, nil
}

func fig15(p Params) (*Figure, error) {
	return aggDynamic("fig15",
		"Aggregation: Reaction under failures, -25% of nodes at 1% and 5% of horizon, +25% at 7%",
		churn.AggregationCatastrophic(p.N100k, p.AggHorizon), p, 0x0f00)
}

func fig16(p Params) (*Figure, error) {
	return aggDynamic("fig16",
		"Aggregation: Growing network, 100,000 node network",
		churn.Growing(p.N100k, p.AggHorizon, 0.5), p, 0x1000)
}

func fig17(p Params) (*Figure, error) {
	return aggDynamic("fig17",
		"Aggregation: Shrinking network, 100,000 node network",
		churn.Shrinking(p.N100k, p.AggHorizon, 0.5), p, 0x1100)
}
