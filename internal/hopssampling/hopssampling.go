// Package hopssampling implements the HopsSampling size estimator
// (§III-B of the comparative study), the representative of the
// probabilistic-polling class, using the minHopsReporting heuristic of
// Kostoulas, Psaltoulis, Gupta, Birman & Demers (PODC'04 / NCA'05).
//
// The protocol has two phases:
//
//  1. Distance spread. The initiator gossips a poll message carrying a
//     hop counter (gossipTo targets per gossiping node, each infected
//     node gossips for gossipFor rounds). Every node remembers the
//     lowest hop count it received — its estimated distance from the
//     initiator — and the neighbor that delivered it (its parent for
//     routed replies).
//
//  2. Probabilistic reporting. A node at distance h replies with
//     probability 1 when h < minHopsReporting, else with probability
//     gossipTo^-(h - minHopsReporting), which throttles the reply flood
//     from the (exponentially many) far nodes. The initiator multiplies
//     each reply by the inverse of its reporting probability and sums,
//     plus one for itself.
//
// The paper's parameters ([17], [16]): gossipTo=2, gossipFor=1,
// gossipUntil=1, minHopsReporting=5. The under-estimation the paper
// observes (≈ -20%, amplified on scale-free graphs) comes from the
// spread phase missing nodes ("approximatively 11% of non reached nodes
// out of 100,000") — the extrapolation itself is unbiased, which
// Diagnostics lets tests verify directly.
//
// Reply transport is configurable because the paper is ambiguous about
// it: the text prices an estimation at O(2N) messages (direct replies)
// while Table I's 5M figure and the "message flood towards the
// initiator ... may overload the initiator's neighbors" remark imply
// replies routed hop-by-hop through the overlay. RoutedReplies selects
// the Table I behaviour and is the default in the experiments.
package hopssampling

import (
	"errors"
	"fmt"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// Config parameterizes HopsSampling. Zero values are invalid; use
// Default() for the paper's setting.
type Config struct {
	// GossipTo is the gossip fan-out per round (paper: 2).
	GossipTo int
	// GossipFor is how many rounds an infected node gossips (paper: 1).
	GossipFor int
	// GossipUntil is how many consecutive rounds without any new
	// infection the spread tolerates before stopping (paper: 1).
	GossipUntil int
	// MinHopsReporting is the distance below which nodes always reply
	// (paper: 5).
	MinHopsReporting int
	// RoutedReplies routes responses hop-by-hop along gossip parents
	// (costing distance messages each) instead of directly (1 message).
	RoutedReplies bool
	// MaxRounds bounds the spread phase (safety valve; 0 means 10000).
	MaxRounds int
}

// Default returns the paper's configuration with routed replies.
func Default() Config {
	return Config{
		GossipTo:         2,
		GossipFor:        1,
		GossipUntil:      1,
		MinHopsReporting: 5,
		RoutedReplies:    true,
	}
}

func (c *Config) validate() error {
	if c.GossipTo < 1 {
		return errors.New("hopssampling: GossipTo must be >= 1")
	}
	if c.GossipFor < 1 {
		return errors.New("hopssampling: GossipFor must be >= 1")
	}
	if c.GossipUntil < 1 {
		return errors.New("hopssampling: GossipUntil must be >= 1")
	}
	if c.MinHopsReporting < 1 {
		return errors.New("hopssampling: MinHopsReporting must be >= 1")
	}
	if c.MaxRounds < 0 {
		return errors.New("hopssampling: MaxRounds must be >= 0")
	}
	return nil
}

func (c *Config) maxRounds() int {
	if c.MaxRounds > 0 {
		return c.MaxRounds
	}
	return 10000
}

// Diagnostics reports per-estimation internals used by the evaluation
// (§V discusses reached fraction and distance accuracy).
type Diagnostics struct {
	// Reached is the number of nodes that received the poll (initiator
	// included).
	Reached int
	// Rounds is the number of spread rounds executed.
	Rounds int
	// Replies is the number of nodes that reported back.
	Replies int
	// Estimate is the extrapolated size (duplicated for convenience).
	Estimate float64
}

// Estimator runs HopsSampling estimations. It satisfies the
// core.Estimator contract.
type Estimator struct {
	cfg Config
	rng *xrand.Rand

	// Per-run scratch, reused across estimations to avoid re-allocating
	// million-entry slices: dist and parent are indexed by node ID and
	// versioned by stamp so clearing is O(1).
	dist   []int32
	parent []graph.NodeID
	stamp  []uint32
	gen    uint32
	// The spread's own scratch, indexed by node ID and cleared per poll
	// (one byte per node), and its two round queues.
	budget       []int8 // remaining gossip rounds
	acts         []int8 // activations consumed
	queued       []bool // already in next round's queue
	active, next []graph.NodeID
}

// New builds an Estimator; it panics on invalid configuration.
func New(cfg Config, rng *xrand.Rand) *Estimator {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		panic("hopssampling: nil rng")
	}
	return &Estimator{cfg: cfg, rng: rng}
}

// Name identifies the estimator in reports.
func (e *Estimator) Name() string {
	return fmt.Sprintf("hops-sampling(minHops=%d)", e.cfg.MinHopsReporting)
}

// MutatesOverlay reports false: hops sampling only floods and observes
// (core.OverlayMutator), so the monitor may run it on a shared clone.
func (e *Estimator) MutatesOverlay() bool { return false }

// Config returns the estimator's configuration.
func (e *Estimator) Config() Config { return e.cfg }

// ErrEmptyOverlay is returned when no live peer can initiate.
var ErrEmptyOverlay = errors.New("hopssampling: empty overlay")

// Estimate runs one poll from a random initiator.
func (e *Estimator) Estimate(net *overlay.Network) (float64, error) {
	initiator, ok := net.RandomPeer(e.rng)
	if !ok {
		return 0, ErrEmptyOverlay
	}
	est, _, err := e.EstimateFrom(net, initiator)
	return est, err
}

// EstimateFrom runs one poll from the given initiator and returns the
// estimate together with spread diagnostics.
func (e *Estimator) EstimateFrom(net *overlay.Network, initiator graph.NodeID) (float64, Diagnostics, error) {
	if !net.Alive(initiator) {
		return 0, Diagnostics{}, fmt.Errorf("hopssampling: initiator %d is not alive", initiator)
	}
	e.resetScratch(net.Graph().NumIDs())
	rounds := e.spread(net, initiator)
	est, reached, replies := e.collect(net, initiator)
	d := Diagnostics{Reached: reached, Rounds: rounds, Replies: replies, Estimate: est}
	return est, d, nil
}

func (e *Estimator) resetScratch(numIDs int) {
	if len(e.dist) < numIDs {
		// Under churn every join adds an ID, so vectors sized to this
		// poll would be re-made at the next one: leave a quarter spare.
		n := numIDs + numIDs/4
		e.dist = make([]int32, n)
		e.parent = make([]graph.NodeID, n)
		e.stamp = make([]uint32, n)
		e.budget = make([]int8, n)
		e.acts = make([]int8, n)
		e.queued = make([]bool, n)
		e.gen = 0
	}
	e.gen++
}

// seen reports whether id has a distance in the current run.
func (e *Estimator) seen(id graph.NodeID) bool { return e.stamp[id] == e.gen }

func (e *Estimator) setDist(id graph.NodeID, d int32, parent graph.NodeID) {
	e.dist[id] = d
	e.parent[id] = parent
	e.stamp[id] = e.gen
}

// maxActivations bounds how many times one node is re-armed to gossip
// during a single poll (first infection plus distance-improvement
// relays). The cap keeps the spread at O(2N) total messages and is what
// leaves a tail of unreached nodes and partially inaccurate distances —
// the two under-estimation sources the paper analyses in §V. Unbounded
// re-arming floods the overlay until reach is ≈100% and the estimate is
// unbiased, which is NOT the algorithm the paper measured.
const maxActivations = 2

// spread runs the bounded gossip dissemination and returns the number of
// rounds executed. A node gossips for GossipFor rounds after its first
// receipt and re-arms when its recorded hop count improves ("the lowest
// hopCount value received by a node is remembered"): relaying
// improvements relaxes recorded distances toward BFS distances, which
// the minHopsReporting extrapolation needs — with pure first-receipt
// relaying, recorded distances would be fan-out-2 tree depths (~log2 N),
// putting nearly every node past minHopsReporting and making the
// inverse-probability weights explode. Relaxation also flows backward:
// links are bidirectional, so a contacted node holding a better distance
// corrects the sender with one response message. The spread stops once
// GossipUntil consecutive rounds infect no new node.
func (e *Estimator) spread(net *overlay.Network, initiator graph.NodeID) int {
	// Asymmetric (NAT-limited) connectivity: a gossip message to a fated
	// peer is sent — and metered — but lost at the NAT, so the peer is
	// never infected, never relays and never replies; the tail of
	// unreached nodes grows by the fated fraction. The bidirectional
	// correction below is exempt: it answers a contact the corrected
	// sender itself initiated, so it rides the established path. Benign
	// policies answer false with zero extra draws.
	pol := net.FaultPolicy()
	budget, acts, queued := e.budget, e.acts, e.queued
	clear(budget)
	clear(acts)
	clear(queued)
	e.setDist(initiator, 0, graph.None)
	budget[initiator] = int8(e.cfg.GossipFor)
	acts[initiator] = 1
	active, next := append(e.active[:0], initiator), e.next
	quiet := 0
	rounds := 0
	for len(active) > 0 && quiet < e.cfg.GossipUntil && rounds < e.cfg.maxRounds() {
		rounds++
		next = next[:0]
		infected := 0
		enqueue := func(id graph.NodeID) {
			if !queued[id] {
				queued[id] = true
				next = append(next, id)
			}
		}
		arm := func(id graph.NodeID) {
			if acts[id] >= maxActivations {
				return
			}
			acts[id]++
			budget[id] = int8(e.cfg.GossipFor)
			enqueue(id)
		}
		for _, id := range active {
			for k := 0; k < e.cfg.GossipTo; k++ {
				h := e.dist[id]
				target, ok := net.RandomNeighbor(id, e.rng)
				if !ok {
					break
				}
				net.SendTo(target, metrics.KindGossipSpread)
				if pol != nil && pol.Unreachable(target) {
					continue // sent, lost at the target's NAT
				}
				nd := h + 1
				switch {
				case !e.seen(target):
					e.setDist(target, nd, id)
					infected++
					acts[target] = 1
					budget[target] = int8(e.cfg.GossipFor)
					enqueue(target)
				case nd < e.dist[target]:
					// Better distance: remember it and re-arm the target
					// so the improvement propagates.
					e.setDist(target, nd, id)
					arm(target)
				case e.dist[target]+1 < h:
					// Bidirectional link: the target corrects the sender
					// with its better distance (one response message).
					net.SendTo(id, metrics.KindGossipSpread)
					e.setDist(id, e.dist[target]+1, target)
					arm(id)
				}
			}
			budget[id]--
			if budget[id] > 0 {
				enqueue(id)
			}
		}
		active, next = next, active
		for _, id := range active {
			queued[id] = false
		}
		// Quiescence counts only new infections: once no fresh node was
		// reached for GossipUntil rounds the poll stops, even though
		// distance improvements may still be circulating.
		if infected == 0 {
			quiet++
		} else {
			quiet = 0
		}
	}
	e.active, e.next = active, next
	return rounds
}

// collect runs the probabilistic reporting phase and extrapolates the
// size estimate.
func (e *Estimator) collect(net *overlay.Network, initiator graph.NodeID) (est float64, reached, replies int) {
	g := net.Graph()
	total := 1.0 // the initiator counts itself
	reached = 0
	minHops := int32(e.cfg.MinHopsReporting)
	for i := 0; i < g.NumAlive(); i++ {
		id := g.AliveAt(i)
		if !e.seen(id) {
			continue
		}
		reached++
		if id == initiator {
			continue
		}
		h := e.dist[id]
		p := 1.0
		if h >= minHops {
			p = inversePow(e.cfg.GossipTo, int(h-minHops))
		}
		if !e.rng.Bernoulli(p) {
			continue
		}
		replies++
		if e.cfg.RoutedReplies {
			// The response retraces the gossip path: h hops.
			net.SendN(metrics.KindReply, uint64(h))
		} else {
			net.Send(metrics.KindReply)
		}
		total += 1 / p
	}
	return total, reached, replies
}

// inversePow returns base^-exp for small non-negative integer exponents.
func inversePow(base, exp int) float64 {
	p := 1.0
	for i := 0; i < exp; i++ {
		p /= float64(base)
	}
	return p
}

// ReachedFraction runs only the spread phase and returns the fraction of
// live nodes reached — the quantity behind the paper's −20% bias
// discussion. Exposed for experiments and tests.
func (e *Estimator) ReachedFraction(net *overlay.Network, initiator graph.NodeID) (float64, error) {
	if !net.Alive(initiator) {
		return 0, fmt.Errorf("hopssampling: initiator %d is not alive", initiator)
	}
	e.resetScratch(net.Graph().NumIDs())
	e.spread(net, initiator)
	g := net.Graph()
	reached := 0
	for i := 0; i < g.NumAlive(); i++ {
		if e.seen(g.AliveAt(i)) {
			reached++
		}
	}
	return float64(reached) / float64(g.NumAlive()), nil
}

// EstimateWithOracleDistances runs the reporting phase against exact BFS
// distances instead of gossip-derived ones. §V uses exactly this probe
// ("we verified our intuition by giving the accurate distance from the
// initiator to all nodes in the overlay, and the resulting size
// estimation was correct") to show the polling extrapolation itself is
// unbiased.
func (e *Estimator) EstimateWithOracleDistances(net *overlay.Network, initiator graph.NodeID) (float64, error) {
	if !net.Alive(initiator) {
		return 0, fmt.Errorf("hopssampling: initiator %d is not alive", initiator)
	}
	e.resetScratch(net.Graph().NumIDs())
	dist := graph.BFSDistances(net.Graph(), initiator)
	for id, d := range dist {
		if d >= 0 {
			e.setDist(graph.NodeID(id), d, graph.None)
		}
	}
	est, _, _ := e.collect(net, initiator)
	return est, nil
}
