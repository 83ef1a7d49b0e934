// Package pushsum implements the Push-Sum size estimator (Kempe, Dobra
// & Gehrke, FOCS'03), the second representative of the epidemic class
// alongside Aggregation's push-pull averaging.
//
// Every participant holds a (sum, weight) pair. An epoch starts with
// the initiator holding weight 1; a node reached by an epoch message
// joins with sum 1 and weight 0, so the epoch-wide totals are
// Σsum = #participants and Σweight = 1. Each round, every participating
// node keeps half of its pair and pushes the other half to one
// uniformly random neighbor (one message per node per round — half the
// per-round price of push-pull). Both totals are conserved by
// construction, the local ratio sum/weight converges to Σsum/Σweight at
// every node with positive weight, and the initiator reads the size
// estimate sum/weight after RoundsPerEpoch rounds.
//
// Compared to Aggregation the protocol is asymmetric (push only, no
// reply), which halves the round cost but roughly doubles the rounds to
// a given dispersion; under churn it shares Aggregation's epoch
// semantics — departures remove mass, arrivals join on first contact —
// and the same fragmentation failure mode in shrinking scenarios.
package pushsum

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

// Config parameterizes the Push-Sum protocol (epidemic.Config).
type Config = epidemic.Config

// Default returns the 50-round configuration.
func Default() Config { return epidemic.Default() }

// Protocol is a running Push-Sum instance. Several instances can share
// an overlay; each owns its (sum, weight) pairs, the epoch's State.
type Protocol struct {
	epidemic.Epoch[state, push]
}

// state is a node's (sum, weight) pair.
type state struct{ sum, weight float64 }

// push is one deferred cross-shard delivery: half of u's pair headed
// for v, already debited from u during the parallel phase.
type push struct {
	v    graph.NodeID
	s, w float64
}

var (
	// ErrEmptyOverlay is returned when no live peer can initiate.
	ErrEmptyOverlay = errors.New("pushsum: empty overlay")
	// ErrNoEpoch is returned by RunRound before the first StartEpoch.
	ErrNoEpoch = errors.New("pushsum: RunRound before StartEpoch")
	// family names push-sum to the epoch driver: the initiator starts an
	// epoch with sum 1 and the epoch's entire weight mass of 1. A node
	// outside the epoch holds (1, -0): the sum it joins with and a weight
	// no member holds (members halve and add non-negative weights).
	family = epidemic.Family[state]{Pkg: "pushsum", Name: "push-sum", ErrNoEpoch: ErrNoEpoch, ErrEmptyOverlay: ErrEmptyOverlay,
		Start: state{1, 1}, Absent: state{1, math.Copysign(0, -1)}, In: in}
)

// New builds a Protocol; it panics on invalid configuration.
func New(cfg Config, rng *xrand.Rand) *Protocol {
	p := &Protocol{}
	p.Init(&family, cfg, rng, p.sweep, p.EstimateAt)
	return p
}

// NewEstimator builds the one-shot adapter (epidemic.Estimator).
func NewEstimator(cfg Config, rng *xrand.Rand) *epidemic.Estimator[state, push] {
	return epidemic.NewEstimator(&New(cfg, rng).Epoch)
}

// in reports whether a node's pair belongs to a member of the epoch.
func in(st state) bool { return !epidemic.IsNegZero(st.weight) }

// deliver credits a pushed half-pair to v. A node new to the epoch joins
// by the same two adds ("a node reached by a counting message with a new
// tag" contributes its own sum of 1): its Absent pair (1, -0) becomes
// (1 + s, w), since -0 + w = w, and w, half a member's weight, is never
// -0.
func (p *Protocol) deliver(v graph.NodeID, s, w float64) {
	p.State[v].sum += s
	p.State[v].weight += w
}

// halve debits half of u's pair and returns it; the caller delivers it
// to the drawn target.
func (p *Protocol) halve(u graph.NodeID) (s, w float64) {
	s, w = p.State[u].sum/2, p.State[u].weight/2
	p.State[u] = state{s, w}
	return s, w
}

// sweep returns the engine callbacks of one round (RunRound): one
// synchronous push cycle in which every live node, in fresh random
// order, draws one uniformly random neighbor (the epidemic substrate
// runs on all nodes — a round is priced at exactly one push message per
// node); participants of the current epoch send half of their pair to
// the drawn neighbor, which joins the epoch on first contact. A shard
// debits and delivers immediately when the drawn neighbor lies in its
// own segment and defers the (already debited) delivery otherwise.
//
// Pushes are fire-and-forget: under a fault policy a lost push is still
// metered and the sender still halves, but the half-pair evaporates in
// transit — the mass-conservation failure drop causes. A lying sender
// scales the sum it pushes; its own half stays honest.
//
//go:noinline
func (p *Protocol) sweep(net *overlay.Network, g *graph.Graph, pol overlay.FaultPolicy, dropP float64) parallel.Sweep[push] {
	return parallel.Sweep[push]{
		// The visitor's record comes with its own pair, which every
		// visit reads (its weight says whether it is a member). A
		// delivery reads the target's pair.
		Hint: func(b *prefetch.Batch, keys []graph.NodeID, prs []push) {
			for _, u := range keys {
				b.Add(g.RecordAddr(u))
				b.Add(prefetch.Addr(p.State, int(u)))
			}
			for _, pr := range prs {
				b.Add(prefetch.Addr(p.State, int(pr.v)))
			}
		},
		Visit: func(sh *parallel.Shard[push], u graph.NodeID, rng *xrand.Rand) error {
			v, ok := g.RandomNeighbor(u, rng)
			if !ok {
				return nil
			}
			// Asymmetric (NAT-limited) connectivity: a push to a fated
			// target is sent — and metered — but lost at the NAT, the
			// same evaporation as a dropped push. Pure salted-hash
			// consultation: no draws, so benign and NAT-free streams are
			// untouched.
			lost := (dropP > 0 && rng.Bernoulli(dropP)) || (pol != nil && pol.Unreachable(v))
			sh.Meters[0]++ // push sent
			if !in(p.State[u]) {
				return nil
			}
			ds, dw := p.halve(u)
			if lost {
				return nil
			}
			if pol != nil {
				ds *= pol.ReportScale(u)
			}
			if t := sh.Owner(v); t == sh.Index {
				p.deliver(v, ds, dw)
			} else {
				sh.Defer(t, push{v: v, s: ds, w: dw})
			}
			return nil
		},
		Merge: func(sh *parallel.Shard[push]) {
			net.SendN(metrics.KindPush, sh.Meters[0])
		},
		Resolve: func(pr push, _ *xrand.Rand) error {
			p.deliver(pr.v, pr.s, pr.w)
			return nil
		},
	}
}

// EstimateAt returns the size estimate sum/weight held at the given
// node, and false when the node holds no usable value (not a
// participant, dead, or zero weight — a node that joined but never
// received weight mass cannot estimate yet).
func (p *Protocol) EstimateAt(net *overlay.Network, id graph.NodeID) (float64, bool) {
	if !net.Alive(id) || !p.Participant(id) {
		return 0, false
	}
	st := p.State[id]
	if st.weight <= 0 {
		return 0, false
	}
	return st.sum / st.weight, true
}
