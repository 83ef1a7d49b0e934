package experiments

import (
	"fmt"
	"math"

	"p2psize/internal/aggregation"
	"p2psize/internal/core"
	"p2psize/internal/graph"
	"p2psize/internal/hopssampling"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/registry"
	"p2psize/internal/stats"
	"p2psize/internal/xrand"
)

func init() {
	register("fig01", fig01)
	register("fig02", fig02)
	register("fig03", fig03)
	register("fig04", fig04)
	register("fig05", fig05)
	register("fig06", fig06)
	register("fig07", fig07)
	register("fig08", fig08)
	register("fig18", fig18)
}

// qualitySeries converts a StaticResult into the paper's quality-% curves.
func qualitySeries(res *core.StaticResult) (oneShot, lastK *metrics.Series) {
	oneShot = &metrics.Series{Name: "one shot"}
	lastK = &metrics.Series{Name: "Last 10 runs"}
	raw := res.QualityPct(false)
	smooth := res.QualityPct(true)
	for i := range raw {
		oneShot.Append(float64(i+1), raw[i])
		lastK.Append(float64(i+1), smooth[i])
	}
	return oneShot, lastK
}

func noteAccuracy(fig *Figure, res *core.StaticResult) {
	raw := res.QualityPct(false)
	smooth := res.QualityPct(true)
	var rawErr, smoothErr stats.Running
	for i := range raw {
		rawErr.Add(math.Abs(raw[i] - 100))
		smoothErr.Add(math.Abs(smooth[i] - 100))
	}
	fig.AddNote("oneShot mean |error| = %.1f%% (max %.1f%%)", rawErr.Mean(), rawErr.Max())
	fig.AddNote("last10runs mean |error| = %.1f%% (max %.1f%%)", smoothErr.Mean(), smoothErr.Max())
	fig.AddNote("mean overhead per estimation = %.0f messages", res.MeanOverhead())
}

// staticQuality is the shared body of the single-family static figures:
// compare with one candidate, a registry family on a fresh heterogeneous
// overlay, whose runs draw from the streams (Seed+stream+1, i). The
// overlay is returned so callers can add family-specific notes and read
// the meter.
func staticQuality(id, title, family string, opts registry.Options, n, runs int, p Params, stream uint64) (*Figure, *overlay.Network, error) {
	res, nets, err := compare(id, []candidate{{family, family, p.Seed + stream + 1, runs, opts}},
		func(int) *overlay.Network { return hetNet(n, p, stream) }, p)
	if err != nil {
		return nil, nil, err
	}
	fig := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "Number of estimations",
		YLabel: "Quality %",
	}
	oneShot, lastK := qualitySeries(res[0])
	fig.Series = []*metrics.Series{lastK, oneShot}
	noteAccuracy(fig, res[0])
	return fig, nets[0], nil
}

// scStatic is the shared body of Figs 1, 2 and 18.
func scStatic(id, title string, n, l, runs int, p Params, stream uint64) (*Figure, error) {
	fig, net, err := staticQuality(id, title, "samplecollide", registry.Options{SCL: l}, n, runs, p, stream)
	if err != nil {
		return nil, err
	}
	fig.Messages = net.Counter().Total()
	return fig, nil
}

func fig01(p Params) (*Figure, error) {
	return scStatic("fig01",
		"Sample&Collide: oneShot and last10runs heuristic with l=200, 100,000 node network, static environment",
		p.N100k, 200, p.SCRuns, p, 0x0100)
}

func fig02(p Params) (*Figure, error) {
	return scStatic("fig02",
		"Sample&Collide: oneShot and last10runs heuristic with l=200, 1,000,000 node network",
		p.N1M, 200, p.SCRuns1M, p, 0x0200)
}

func fig18(p Params) (*Figure, error) {
	return scStatic("fig18",
		"Sample & collide with l=10, 100,000 node network",
		p.N100k, 10, p.Fig18Runs, p, 0x1800)
}

// hopsStatic is the shared body of Figs 3 and 4; polls fan out like the
// Sample&Collide runs of scStatic.
func hopsStatic(id, title string, n, runs int, p Params, stream uint64) (*Figure, error) {
	fig, net, err := staticQuality(id, title, "hopssampling", registry.Options{}, n, runs, p, stream)
	if err != nil {
		return nil, err
	}
	// Reached fraction explains the paper's systematic under-estimation.
	probe := hopssampling.New(hopssampling.Default(), xrand.New(p.Seed+stream+2))
	if init, ok := net.RandomPeer(xrand.New(p.Seed + stream + 3)); ok {
		if frac, err := probe.ReachedFraction(net, init); err == nil {
			fig.AddNote("gossip spread reached %.1f%% of nodes (non-reached %.1f%%)",
				100*frac, 100*(1-frac))
		}
	}
	fig.Messages = net.Counter().Total()
	return fig, nil
}

func fig03(p Params) (*Figure, error) {
	return hopsStatic("fig03",
		"HopsSampling: oneShot and last10runs heuristics, 100,000 node network",
		p.N100k, p.HopsRuns, p, 0x0300)
}

func fig04(p Params) (*Figure, error) {
	return hopsStatic("fig04",
		"HopsSampling: oneShot and last10runs heuristics, 1,000,000 node network",
		p.N1M, p.HopsRuns1M, p, 0x0400)
}

// aggStatic is the shared body of Figs 5 and 6: three independent
// estimations, quality against round number. Each estimation owns an
// Aggregation protocol instance, whose state and round engine it
// borrows from the family's free list for the run; the three run
// concurrently on metering views of the shared (static, read-only)
// overlay.
func aggStatic(id, title string, n int, p Params, stream uint64) (*Figure, error) {
	net := hetNet(n, p, stream)
	fig := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "#Round",
		YLabel: "Quality %",
	}
	trueSize := float64(net.Size())
	type estOut struct {
		series    *metrics.Series
		converged int
		counter   metrics.Counter
	}
	// Three instances outside, sharded round sweeps inside.
	outer, inner := parallel.Split(p.Workers, 3)
	outs, err := parallel.Map(outer, 3, func(k int) (estOut, error) {
		view := net.View()
		proto := aggregation.New(aggConfig(inner),
			xrand.New(p.Seed+stream+10+uint64(k)))
		proto.Borrow(view)
		defer proto.Release()
		if err := proto.StartEpoch(view); err != nil {
			return estOut{}, fmt.Errorf("%s: %w", id, err)
		}
		s := &metrics.Series{Name: fmt.Sprintf("Estimation #%d", k+1)}
		s.Append(0, stats.QualityPct(1, trueSize)) // initiator starts at 1/1
		converged := -1
		for round := 1; round <= p.AggStaticRounds; round++ {
			if err := proto.RunRound(view); err != nil {
				return estOut{}, fmt.Errorf("%s: %w", id, err)
			}
			est, ok := proto.Estimate(view)
			q := 0.0
			if ok {
				q = stats.QualityPct(est, trueSize)
			}
			s.Append(float64(round), q)
			if converged < 0 && q >= 99 && q <= 101 {
				converged = round
			}
		}
		return estOut{series: s, converged: converged, counter: view.Counter().Snapshot()}, nil
	})
	if err != nil {
		return nil, err
	}
	for k, o := range outs {
		fig.Series = append(fig.Series, o.series)
		if o.converged > 0 {
			fig.AddNote("estimation #%d within 1%% of truth from round %d", k+1, o.converged)
		} else {
			fig.AddNote("estimation #%d did not reach 1%% accuracy in %d rounds", k+1, p.AggStaticRounds)
		}
		net.Counter().Merge(&o.counter)
	}
	fig.Messages = net.Counter().Total()
	return fig, nil
}

func fig05(p Params) (*Figure, error) {
	return aggStatic("fig05", "Aggregation: 100,000 node network", p.N100k, p, 0x0500)
}

func fig06(p Params) (*Figure, error) {
	return aggStatic("fig06", "Aggregation: 1,000,000 node network", p.N1M, p, 0x0600)
}

// fig07 plots the scale-free degree distribution (log-log).
func fig07(p Params) (*Figure, error) {
	net := scaleFreeNet(p.N100k, p, 0x0700)
	h := graph.DegreeHistogram(net.Graph())
	fig := &Figure{
		ID:     "fig07",
		Title:  "Scale free degree distribution, 3 neighbors min per node",
		XLabel: "Degree",
		YLabel: "Number of nodes",
		LogLog: true,
	}
	s := &metrics.Series{Name: "Scale Free Distribution"}
	values, counts := h.NonZero()
	for i := range values {
		s.Append(float64(values[i]), float64(counts[i]))
	}
	fig.Series = []*metrics.Series{s}
	fig.AddNote("nodes %d, min degree %d, max degree %d, average %.1f",
		net.Size(), values[0], h.Max(), h.Mean())
	return fig, nil
}

// fig08 runs all three algorithms on the scale-free graph:
// Sample&Collide l=200 oneShot, Aggregation with one 50-round epoch per
// estimation, HopsSampling with last10runs.
func fig08(p Params) (*Figure, error) {
	fig := &Figure{
		ID:     "fig08",
		Title:  "Test of the 3 algorithms on a scale free graph",
		XLabel: "Number of estimations",
		YLabel: "Quality %",
	}
	// The three head-to-head families from the registry; display names
	// and stream seeds are frozen (they predate the registry). Each
	// Aggregation estimate costs a full epoch (N·50·2 messages) and the
	// curve is flat after convergence, so its points are capped at paper
	// scale — noted on the figure.
	cands := []candidate{
		{"Aggregation", "aggregation", p.Seed + 0x0801, min(20, p.SCRuns), epochOpts()},
		{"Sample&collide", "samplecollide", p.Seed + 0x0802, p.SCRuns, registry.Options{}},
		{"HopsSampling", "hopssampling", p.Seed + 0x0803, p.SCRuns, registry.Options{}},
	}
	smoothed := []bool{false, false, true}
	// Fresh topology per candidate (same seed), so one candidate's meter
	// and rng use cannot perturb another.
	res, nets, err := compare("fig08", cands,
		func(int) *overlay.Network { return scaleFreeNet(p.N100k, p, 0x0800) }, p)
	if err != nil {
		return nil, err
	}
	for ci, c := range cands {
		if c.runs < p.SCRuns {
			fig.AddNote("%s plotted for %d estimations (flat curve, epoch cost N·%d·2)", c.name, c.runs, epochLen)
		}
		s, signed := qualityCurve(c.name, res[ci].QualityPct(smoothed[ci]))
		fig.Series = append(fig.Series, s)
		fig.AddNote("%s mean signed error %.1f%%", c.name, signed)
		fig.Messages += nets[ci].Counter().Total()
	}
	return fig, nil
}

// qualityCurve plots one candidate's quality-% values against the
// estimation number and returns their mean signed error beside the
// series (negative = systematic under-estimation).
func qualityCurve(name string, q []float64) (*metrics.Series, float64) {
	s := &metrics.Series{Name: name}
	var e stats.Running
	for i, v := range q {
		s.Append(float64(i+1), v)
		e.Add(v - 100)
	}
	return s, e.Mean()
}
