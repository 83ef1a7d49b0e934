// Package polling implements the plain probabilistic-polling baseline
// from the study's background section (§II): the initiator broadcasts a
// probe carrying a response probability p and infers the size from the
// number of replies, N̂ = replies/p (+1 for itself) — the approach of
// Bawa et al. and of Friedman & Towsley's multicast membership
// estimation. The comparative study picked HopsSampling over it because
// distance-dependent response probabilities "could lower message
// overhead compared to simple probabilistic response, as fewer 'far
// nodes' should reply with messages that will cross an important part of
// the overlay"; this package makes that comparison runnable.
//
// The broadcast is a flood over the overlay links (every node forwards
// once to all neighbors), so unlike the HopsSampling gossip it reaches
// the initiator's entire component, at a cost of 2|E| spread messages.
// Replies cost their hop distance when routed (the default, comparable
// to HopsSampling's accounting) or one message when direct.
package polling

import (
	"errors"
	"fmt"
	"slices"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/scratch"
	"p2psize/internal/xrand"
)

// Config parameterizes the polling estimator.
type Config struct {
	// ResponseProb is the probability p with which every probed node
	// replies (0 < p <= 1).
	ResponseProb float64
	// RoutedReplies prices each reply at its hop distance instead of 1.
	RoutedReplies bool
}

// Default returns a 1% response probability with routed replies — a
// light-touch poll for large overlays.
func Default() Config { return Config{ResponseProb: 0.01, RoutedReplies: true} }

func (c *Config) validate() error {
	if c.ResponseProb <= 0 || c.ResponseProb > 1 {
		return errors.New("polling: ResponseProb must be in (0, 1]")
	}
	return nil
}

// Estimator runs probabilistic-polling estimations. It satisfies the
// core.Estimator contract.
type Estimator struct {
	cfg Config
	rng *xrand.Rand

	// warmed accumulates what the flood's read-ahead loaded, so that
	// the compiler keeps the loads; nothing reads it.
	warmed int32
}

// flood is what a poll needs per node: hop distances by node ID and the
// BFS queue, both a million entries at paper scale.
type flood struct {
	dist  []int32
	queue []graph.NodeID
}

// idle lends a finished poll's flood to the next, on any estimator.
var idle = scratch.NewList(func(f *flood) int { return cap(f.dist) })

// stageBlock is how many queued nodes the flood stages at a time.
const stageBlock = 64

// New builds an Estimator; it panics on invalid configuration.
func New(cfg Config, rng *xrand.Rand) *Estimator {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		panic("polling: nil rng")
	}
	return &Estimator{cfg: cfg, rng: rng}
}

// Name identifies the estimator in reports.
func (e *Estimator) Name() string {
	return fmt.Sprintf("polling(p=%g)", e.cfg.ResponseProb)
}

// MutatesOverlay reports false: polling only broadcasts and counts
// (core.OverlayMutator).
func (e *Estimator) MutatesOverlay() bool { return false }

// ErrEmptyOverlay is returned when no live peer can initiate.
var ErrEmptyOverlay = errors.New("polling: empty overlay")

// Estimate floods a probe from a random initiator and extrapolates the
// size from the probabilistic replies.
func (e *Estimator) Estimate(net *overlay.Network) (float64, error) {
	initiator, ok := net.RandomPeer(e.rng)
	if !ok {
		return 0, ErrEmptyOverlay
	}
	return e.EstimateFrom(net, initiator)
}

// EstimateFrom floods a probe from the given initiator.
func (e *Estimator) EstimateFrom(net *overlay.Network, initiator graph.NodeID) (float64, error) {
	if !net.Alive(initiator) {
		return 0, fmt.Errorf("polling: initiator %d is not alive", initiator)
	}
	// Flood: classic BFS over overlay links. Every node forwards the
	// probe once to each neighbor, so the spread costs exactly 2|E|
	// messages within the initiator's component and records hop
	// distances for reply routing.
	g := net.Graph()
	// Asymmetric (NAT-limited) connectivity: a probe forwarded to a
	// fated peer is sent — and metered — but lost at the NAT, so the
	// peer never learns of the poll, never forwards and never replies
	// (dist stays -1). Replies are exempt: they retrace the flood path
	// the initiator's probe established. Benign policies answer false
	// with zero extra draws.
	pol := net.FaultPolicy()
	f, ok := idle.Get(g.IDCeiling())
	if !ok {
		f = new(flood)
	}
	defer idle.Put(f)
	f.dist = scratch.Fit(f.dist, g.NumIDs(), g.IDCeiling())
	dist := f.dist
	for i := range dist {
		dist[i] = -1
	}
	dist[initiator] = 0
	// The queue ends up holding every reached node: reserve the live
	// count up front rather than walk append's regrowth chain, and let
	// slices.Grow keep later growth under churn geometric.
	queue := append(slices.Grow(f.queue[:0], g.NumAlive()), initiator)
	for head := 0; head < len(queue); {
		// A block is what is queued when it starts (the visit only
		// appends behind it). Its records, then its neighbours' dist
		// entries, are read as independent loads first.
		blk := queue[head:min(head+stageBlock, len(queue))]
		head += len(blk)
		acc := int32(g.DegreeSum(blk))
		for _, u := range blk {
			for _, v := range g.Neighbors(u) {
				acc += dist[v]
			}
		}
		e.warmed += acc
		for _, u := range blk {
			for _, v := range g.Neighbors(u) {
				net.SendTo(v, metrics.KindGossipSpread)
				if pol != nil && pol.Unreachable(v) {
					continue // sent, lost at the target's NAT
				}
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	f.queue = queue
	// Probabilistic replies.
	total := 1.0
	p := e.cfg.ResponseProb
	for i := 0; i < g.NumAlive(); i++ {
		id := g.AliveAt(i)
		if id == initiator || dist[id] < 0 {
			continue
		}
		if !e.rng.Bernoulli(p) {
			continue
		}
		if e.cfg.RoutedReplies {
			net.SendN(metrics.KindReply, uint64(dist[id]))
		} else {
			net.Send(metrics.KindReply)
		}
		total += 1 / p
	}
	return total, nil
}
