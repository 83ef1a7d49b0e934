// Package aggregation implements the gossip-based Aggregation size
// estimator (§III-C of the comparative study; Jelasity & Montresor,
// ICDCS'04), the representative of the epidemic class.
//
// The protocol averages a one-hot vector: the initiator starts with value
// 1 and every other participant with 0. Each round ("predefined cycle"),
// every participating node picks a uniformly random neighbor and the pair
// swaps and averages its values (the push/pull heuristic — two messages
// per exchange). Averaging preserves the total mass of 1, so values
// converge to 1/N and any node can read the system size as 1/value. In a
// static network convergence to the exact size takes a few tens of rounds
// (the paper observes ≈40 for 100k nodes, ≈50 for 1M).
//
// Dynamics are handled with epochs ("tags"): a counting process is
// restarted at a regular interval; a node reached by a message carrying a
// new tag resets its value to 0 and joins the new process. Within one
// epoch the protocol is conservative — departures remove mass and
// arrivals join with 0 — so the estimate is only accurate as of the epoch
// start, and heavy departures that fragment the overlay break the
// averaging entirely (the paper's ≈30% threshold in the shrinking
// scenario).
package aggregation

import (
	"errors"
	"math"

	"p2psize/internal/epidemic"
	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/prefetch"
	"p2psize/internal/xrand"
)

// Config parameterizes the Aggregation protocol (epidemic.Config).
type Config = epidemic.Config

// Default returns the paper's dynamic-setting configuration (50 rounds).
func Default() Config { return epidemic.Default() }

// Protocol is a running Aggregation instance. One instance corresponds to
// one independent "Estimation #k" curve in the paper's figures; several
// instances can share an overlay (each owns its values, the epoch's State).
type Protocol struct {
	epidemic.Epoch[float64, pair]
	pol overlay.FaultPolicy // scratch: this round's fault policy
	g   *graph.Graph        // scratch: this round's graph, for the hint callback
}

// Message fates under an installed fault policy. Push/pull traffic is
// fire-and-forget: a lost message loses its payload (no retransmission),
// which is how drop corrupts the conserved mass.
const (
	fatePushLost = 1 << iota // u's push never reached v: no exchange at all
	fatePullLost             // v's reply never reached u: v averaged, u kept its value
)

// pair is one deferred cross-shard exchange: u initiated, v was drawn,
// fate carries the pair's message fates (drawn in the initiating shard's
// stream so the fix-up pass replays them unchanged).
type pair struct {
	u, v graph.NodeID
	fate uint8
}

var (
	// ErrEmptyOverlay is returned when no live peer can initiate.
	ErrEmptyOverlay = errors.New("aggregation: empty overlay")
	// ErrNoEpoch is returned by RunRound before the first StartEpoch.
	ErrNoEpoch = errors.New("aggregation: RunRound before StartEpoch")
	// family names Aggregation to the epoch driver: the initiator starts
	// an epoch with value 1, everyone else joins with 0 on first contact.
	// A node outside the epoch holds -0, which no member holds: members
	// average non-negative values, and a sum of two is -0 only when both
	// addends are.
	family = epidemic.Family[float64]{Pkg: "aggregation", Name: "aggregation", ErrNoEpoch: ErrNoEpoch, ErrEmptyOverlay: ErrEmptyOverlay,
		Start: 1, Absent: math.Copysign(0, -1), In: func(x float64) bool { return !epidemic.IsNegZero(x) }}
)

// New builds a Protocol; it panics on invalid configuration.
func New(cfg Config, rng *xrand.Rand) *Protocol {
	p := &Protocol{}
	p.Init(&family, cfg, rng, p.sweep, p.EstimateAt)
	return p
}

// NewEstimator builds the one-shot adapter (epidemic.Estimator).
func NewEstimator(cfg Config, rng *xrand.Rand) *epidemic.Estimator[float64, pair] {
	return epidemic.NewEstimator(&New(cfg, rng).Epoch)
}

// sweep returns the engine callbacks of one round (RunRound): one
// synchronous push-pull cycle in which every live node, in fresh random
// order, exchanges with one uniformly random neighbor (the epidemic
// substrate runs on all nodes — the paper prices a round at exactly 2
// messages per node). When either endpoint participates in the current
// epoch, the other joins with initial value 0 ("a node which is reached
// by a counting message with a new tag will create a 0 initial value")
// and the pair averages its values.
//
//go:noinline
func (p *Protocol) sweep(net *overlay.Network, g *graph.Graph, pol overlay.FaultPolicy, dropP float64) parallel.Sweep[pair] {
	p.pol, p.g = pol, g
	return parallel.Sweep[pair]{
		// An exchange reads both endpoints' values. The graph comes
		// from p.g rather than a capture, so that the closure holds one
		// pointer and allocates 16 bytes a round.
		Hint: func(b *prefetch.Batch, keys []graph.NodeID, prs []pair) {
			g := p.g
			for _, u := range keys {
				b.Add(g.RecordAddr(u))
			}
			for _, pr := range prs {
				b.Add(prefetch.Addr(p.State, int(pr.u)))
				b.Add(prefetch.Addr(p.State, int(pr.v)))
			}
		},
		Visit: func(sh *parallel.Shard[pair], u graph.NodeID, rng *xrand.Rand) error {
			v, ok := g.RandomNeighbor(u, rng)
			if !ok {
				return nil
			}
			var fate uint8
			if dropP > 0 {
				fate = drawFate(rng, dropP)
			}
			// Asymmetric (NAT-limited) connectivity folds into the push
			// fate: a push to a fated target is sent — and metered — but
			// lost at the NAT, so the exchange never happens (the pull
			// direction is exempt: it answers a contact the initiator
			// opened, riding the established path). Pure salted-hash
			// consultation: no draws, so benign and NAT-free streams are
			// untouched.
			if p.pol != nil && p.pol.Unreachable(v) {
				fate |= fatePushLost
			}
			sh.Meters[0]++ // push sent
			if fate&fatePushLost == 0 {
				sh.Meters[1]++ // pull answered
			}
			if t := sh.Owner(v); t == sh.Index {
				p.exchange(u, v, fate)
			} else {
				sh.Defer(t, pair{u: u, v: v, fate: fate})
			}
			return nil
		},
		Merge: func(sh *parallel.Shard[pair]) {
			net.SendN(metrics.KindPush, sh.Meters[0])
			net.SendN(metrics.KindPull, sh.Meters[1])
		},
		Resolve: func(pr pair, _ *xrand.Rand) error {
			p.exchange(pr.u, pr.v, pr.fate)
			return nil
		},
	}
}

// drawFate draws a pair's message fates under drop probability dropP:
// the push and then the pull are each lost with probability dropP.
func drawFate(rng *xrand.Rand, dropP float64) uint8 {
	var fate uint8
	if rng.Bernoulli(dropP) {
		fate |= fatePushLost
	}
	if rng.Bernoulli(dropP) {
		fate |= fatePullLost
	}
	return fate
}

// exchange performs one push-pull averaging between u and v: when either
// endpoint participates in the current epoch the other joins with value
// 0 and the pair averages. With no fault policy that is one branch-free
// average: an absent endpoint's -0 adds as 0 (x + -0 = x for every x,
// +0 included), and two absent endpoints average to -0 and stay absent.
// Under a fault policy, a lost push aborts the exchange, an absent
// endpoint joins with +0 explicitly, a lost pull leaves u with its old
// value after v already averaged (breaking mass conservation), and a
// lying endpoint's value is scaled as seen by its peer while its own
// copy stays honest.
func (p *Protocol) exchange(u, v graph.NodeID, fate uint8) {
	vu, vv := p.State[u], p.State[v]
	if p.pol == nil {
		avg := (vu + vv) / 2
		p.State[u] = avg
		p.State[v] = avg
		return
	}
	absentU, absentV := epidemic.IsNegZero(vu), epidemic.IsNegZero(vv)
	if fate&fatePushLost != 0 || absentU && absentV {
		return
	}
	// A new endpoint joins with value 0.
	if absentU {
		vu, p.State[u] = 0, 0
	}
	if absentV {
		vv, p.State[v] = 0, 0
	}
	p.State[v] = (p.pol.ReportScale(u)*vu + vv) / 2
	if fate&fatePullLost == 0 {
		p.State[u] = (vu + p.pol.ReportScale(v)*vv) / 2
	}
}

// EstimateAt returns the size estimate 1/value held at the given node,
// and false when the node holds no usable value (not a participant, dead,
// or value zero). One of the paper's observations is that, after
// convergence, this is available at *every* node, with no result
// broadcast needed.
func (p *Protocol) EstimateAt(net *overlay.Network, id graph.NodeID) (float64, bool) {
	if !net.Alive(id) || !p.Participant(id) {
		return 0, false
	}
	v := p.State[id]
	if v <= 0 {
		return 0, false
	}
	return 1 / v, true
}
