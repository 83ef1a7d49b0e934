package registry

// Built-in descriptors: the nine estimator families the repo implements
// — the paper's candidates and baselines in its presentation order, then
// push-sum, capture-recapture and the DHT extrapolator. StreamOffsets
// are part of the output-identity contract — the trace experiments seed
// instance rngs at seed+offset, and these values reproduce the
// pre-registry hand-rolled rosters bit for bit — so they are frozen: new
// families take fresh offsets, existing ones never move.

import (
	"errors"
	"fmt"
	"math"

	"p2psize/internal/aggregation"
	"p2psize/internal/capturerecapture"
	"p2psize/internal/core"
	"p2psize/internal/dhtext"
	"p2psize/internal/hopssampling"
	"p2psize/internal/idspace"
	"p2psize/internal/overlay"
	"p2psize/internal/polling"
	"p2psize/internal/pushsum"
	"p2psize/internal/randomtour"
	"p2psize/internal/samplecollide"
	"p2psize/internal/xrand"
)

func init() {
	MustRegister(Descriptor{
		Name:    "samplecollide",
		Aliases: []string{"sc", "sample-collide", "sample&collide"},
		Class:   "random-walk",
		Summary: "uniform sampling by continuous-time random walk + inverted birthday paradox (§III-A)",
		// Θ(√(2lN)·T·d̄) messages per estimation.
		CostHint:           30,
		SupportsDynamic:    true,
		SupportsMonitoring: true,
		SupportsTransport:  true,
		InDefaultSet:       true,
		StreamOffset:       10,
		New: func(_ *overlay.Network, rng *xrand.Rand, o Options) (core.Estimator, error) {
			cfg := samplecollide.Default()
			switch {
			case o.SCTimer > 0 && !math.IsInf(o.SCTimer, 1):
				cfg.T = o.SCTimer
			case o.SCTimer != 0:
				return nil, fmt.Errorf("SCTimer %g must be positive and finite (0 = %g)", o.SCTimer, cfg.T)
			}
			if err := knob(&cfg.L, "SCL", o.SCL); err != nil {
				return nil, err
			}
			if o.SCMLE {
				cfg.Kind = samplecollide.MLE
			}
			return samplecollide.New(cfg, rng), nil
		},
	})
	MustRegister(Descriptor{
		Name:    "randomtour",
		Aliases: []string{"tour", "random-tour"},
		Class:   "random-walk",
		Summary: "return-time random walk (§II) — the baseline Sample&Collide was chosen over",
		// Θ(N·d̄/deg) messages per tour: the costliest family by far.
		CostHint:           100,
		SupportsDynamic:    true,
		SupportsMonitoring: true,
		SupportsTransport:  true,
		InDefaultSet:       true,
		StreamOffset:       11,
		New: func(_ *overlay.Network, rng *xrand.Rand, o Options) (core.Estimator, error) {
			cfg := randomtour.Default()
			if err := knob(&cfg.Tours, "Tours", o.Tours); err != nil {
				return nil, err
			}
			return randomtour.New(cfg, rng), nil
		},
	})
	MustRegister(Descriptor{
		Name:    "hopssampling",
		Aliases: []string{"hops", "hops-sampling"},
		Class:   "probabilistic-polling",
		Summary: "gossip a poll, count replies weighted by hop distance (§III-B)",
		// One gossip spread plus routed replies: ~4N messages.
		CostHint:           20,
		SupportsDynamic:    true,
		SupportsMonitoring: true,
		SupportsTransport:  true,
		InDefaultSet:       true,
		StreamOffset:       12,
		New: func(_ *overlay.Network, rng *xrand.Rand, o Options) (core.Estimator, error) {
			cfg := hopssampling.Default()
			if err := knob(&cfg.MinHopsReporting, "MinHops", o.MinHops); err != nil {
				return nil, err
			}
			return hopssampling.New(cfg, rng), nil
		},
	})
	MustRegister(Descriptor{
		Name:    "aggregation",
		Aliases: []string{"agg"},
		Class:   "epidemic",
		Summary: "push-pull averaging of a one-hot value; converges to 1/N everywhere (§III-C)",
		// N·rounds·2 messages per epoch — cheap per node, huge per
		// estimate, which is why its suggested monitoring cadence is 10x
		// the base tick.
		CostHint:           200,
		SupportsDynamic:    true,
		SupportsMonitoring: true,
		SupportsTransport:  true,
		InDefaultSet:       true,
		// Cyclon-backed in deployment, where exchanges rewire views;
		// it declares so (MutatesOverlay), which only the monitor's
		// replay-group count reads.
		StreamOffset: 13,
		New: func(_ *overlay.Network, rng *xrand.Rand, o Options) (core.Estimator, error) {
			cfg := aggregation.Default()
			if err := knob(&cfg.RoundsPerEpoch, "Rounds", o.Rounds); err != nil {
				return nil, err
			}
			cfg.Workers = o.Workers
			return aggregation.NewEstimator(cfg, rng), nil
		},
	})
	MustRegister(Descriptor{
		Name:    "idspace",
		Aliases: []string{"id-density", "ids"},
		Class:   "structured",
		Summary: "identifier-density estimation on a structured ring (§II's interval-density class)",
		// k probes against a precomputed ring: the cheapest family, but
		// the ring is a membership snapshot, so it is unsound the moment
		// the overlay churns — hence no dynamic/monitoring support.
		CostHint:           5,
		SupportsDynamic:    false,
		SupportsMonitoring: false,
		StreamOffset:       14,
		New: func(net *overlay.Network, rng *xrand.Rand, o Options) (core.Estimator, error) {
			ring := o.Ring
			if ring == nil {
				if net == nil {
					return nil, errors.New("idspace needs an overlay (or a pre-built Options.Ring) to derive its identifier ring")
				}
				ring = idspace.NewRing(net, rng)
			}
			return idspace.New(ring, 200, rng), nil
		},
	})
	MustRegister(Descriptor{
		Name:    "polling",
		Aliases: []string{"poll"},
		Class:   "probabilistic-polling",
		Summary: "flood a probe, count replies sent with fixed probability (§II's plain polling)",
		// One flood plus ~pN routed replies.
		CostHint:           15,
		SupportsDynamic:    true,
		SupportsMonitoring: true,
		SupportsTransport:  true,
		StreamOffset:       15,
		New: func(_ *overlay.Network, rng *xrand.Rand, _ Options) (core.Estimator, error) {
			return polling.New(polling.Default(), rng), nil
		},
	})
	MustRegister(Descriptor{
		Name:    "pushsum",
		Aliases: []string{"push-sum", "ps"},
		Class:   "epidemic",
		Summary: "push half of a (sum, weight) pair to a random neighbor; sum/weight converges to N (Kempe et al., FOCS'03)",
		// N·rounds messages per epoch — half of push-pull's round price,
		// still an epoch per estimate, so it shares Aggregation's slow
		// suggested monitoring cadence.
		CostHint:           150,
		SupportsDynamic:    true,
		SupportsMonitoring: true,
		SupportsTransport:  true,
		// Same cyclon-backed epidemic class as aggregation.
		StreamOffset: 16,
		New: func(_ *overlay.Network, rng *xrand.Rand, o Options) (core.Estimator, error) {
			cfg := pushsum.Default()
			if err := knob(&cfg.RoundsPerEpoch, "Rounds", o.Rounds); err != nil {
				return nil, err
			}
			cfg.Workers = o.Workers
			return pushsum.NewEstimator(cfg, rng), nil
		},
	})
	MustRegister(Descriptor{
		Name:    "capturerecapture",
		Aliases: []string{"capture-recapture", "cr", "lincoln-petersen"},
		Class:   "random-walk",
		Summary: "mark a walk-sampled set, re-sample, extrapolate from the overlap (Lincoln–Petersen, Chapman-corrected)",
		// (capture + recapture draws)·T·d̄ walk hops per estimation —
		// fixed cost, accuracy degrades (instead of cost growing) with N.
		CostHint:           25,
		SupportsDynamic:    true,
		SupportsMonitoring: true,
		SupportsTransport:  true,
		StreamOffset:       17,
		New: func(_ *overlay.Network, rng *xrand.Rand, _ Options) (core.Estimator, error) {
			return capturerecapture.New(capturerecapture.Default(), rng), nil
		},
	})
	MustRegister(Descriptor{
		Name:    "dht",
		Aliases: []string{"dhtext", "dht-density", "kclosest"},
		Class:   "structured",
		Summary: "extrapolate size from nearest-neighbor ID density over Kademlia k-closest sets (the IPFS crawlers' method)",
		// Probes·(log₂N + k) messages per estimation: cheap, and —
		// unlike idspace's snapshot ring — sound under churn, because
		// identifiers are hashed from stable node IDs.
		CostHint:           10,
		SupportsDynamic:    true,
		SupportsMonitoring: true,
		SupportsTransport:  true,
		StreamOffset:       18,
		New: func(_ *overlay.Network, rng *xrand.Rand, _ Options) (core.Estimator, error) {
			return dhtext.New(dhtext.Default(), rng), nil
		},
	})
}

// knob applies an integer option to *dst, which holds the family's
// default: 0 keeps the default, a positive value overrides it, and a
// negative value is an error naming the option rather than a silent
// fall-back to the default.
func knob(dst *int, name string, v int) error {
	if v < 0 {
		return fmt.Errorf("%s %d must not be negative (0 = %d)", name, v, *dst)
	}
	if v > 0 {
		*dst = v
	}
	return nil
}
