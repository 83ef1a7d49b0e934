package experiments

// Comparison figures for the PR-5 estimator families — push-sum
// (epidemic), capture–recapture (random-walk sampling) and the DHT
// k-closest density extrapolator (structured) — under the same two
// regimes every established family is measured in:
//
//   - static-new: repeated estimations on the static 100k-node
//     heterogeneous overlay, with Sample&Collide as the cross-family
//     reference curve (the fig08 shape, on the paper's default
//     topology).
//   - trace-ipfs-all: the checked-in IPFS-calibrated churn workload
//     monitored by every monitoring-capable family at once. It runs on
//     the same seed stream as trace-ipfs, so the families shared with
//     that experiment produce byte-identical series — the registry's
//     fixed per-family stream offsets make the two figures directly
//     comparable, point for point.
//
// Neither experiment touches the default roster or its frozen seed
// streams: the new families carry fresh StreamOffsets and stay out of
// the default set, so all pre-existing experiment checksums are
// unchanged.

import (
	"p2psize/internal/core"
	"p2psize/internal/monitor"
	"p2psize/internal/overlay"
	"p2psize/internal/registry"
)

func init() {
	register("static-new", staticNew)
	register("trace-ipfs-all", traceIPFSAll)
}

// monitoringRoster is the trace-ipfs-all roster: every family that may
// be scheduled by the continuous monitor, in registration order. Spelled
// out (rather than derived from the catalog) so a custom registration
// in the embedding process can never change the experiment's output.
var monitoringRoster = []string{
	"samplecollide", "randomtour", "hopssampling", "aggregation",
	"polling", "pushsum", "capturerecapture", "dht",
}

func staticNew(p Params) (*Figure, error) {
	fig := &Figure{
		ID:     "static-new",
		Title:  "New families (push-sum, capture-recapture, DHT density) vs Sample&Collide, 100,000 node network, static environment",
		XLabel: "Number of estimations",
		YLabel: "Quality %",
	}
	// Fresh per-candidate seeds in the 0x19xx block. An epidemic estimate
	// costs a full epoch (N·rounds messages) and the curve is flat after
	// convergence, so push-sum's points are capped like fig08 caps
	// Aggregation's — noted below.
	cands := []candidate{
		{"Sample&collide", "samplecollide", p.Seed + 0x1901, p.SCRuns, registry.Options{}},
		{"Push-sum", "pushsum", p.Seed + 0x1902, min(20, p.SCRuns), epochOpts()},
		{"Capture-recapture", "capturerecapture", p.Seed + 0x1903, p.SCRuns, registry.Options{}},
		{"DHT density", "dht", p.Seed + 0x1904, p.SCRuns, registry.Options{}},
	}
	// Fresh topology per candidate (same stream), so one candidate's
	// meter and rng use cannot perturb another.
	res, nets, err := compare("static-new", cands,
		func(int) *overlay.Network { return hetNet(p.N100k, p, 0x1900) }, p)
	if err != nil {
		return nil, err
	}
	for ci, c := range cands {
		if c.runs < p.SCRuns {
			fig.AddNote("%s plotted for %d estimations (flat curve, epoch cost N·%d)", c.name, c.runs, epochLen)
		}
		s, signed := qualityCurve(c.name, res[ci].QualityPct(false))
		fig.Series = append(fig.Series, s)
		fig.AddNote("%s mean signed error %.1f%%, mean overhead %.0f msgs/estimation",
			c.name, signed, res[ci].MeanOverhead())
		fig.Messages += nets[ci].Counter().Total()
	}
	return fig, nil
}

func traceIPFSAll(p Params) (*Figure, error) {
	tr, err := loadIPFSTrace()
	if err != nil {
		return nil, err
	}
	// The stream matches trace-ipfs, so every family shared with it
	// keeps bit-equal series.
	return runTrace("trace-ipfs-all",
		"Continuous monitoring under IPFS-calibrated churn: every monitoring-capable family side by side",
		tr, monitor.Policy{Smoothing: monitor.Window, Window: core.LastK}, monitoringRoster, p, 0x4400)
}
