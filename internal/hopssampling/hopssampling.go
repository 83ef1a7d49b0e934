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
//     initiator.
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
// the Table I behaviour and is the default in the experiments. Nothing
// records the gossip path and no reply walks one: a routed reply from a
// node at recorded distance h is priced at h messages, metered in one
// batch.
package hopssampling

import (
	"errors"
	"fmt"
	"math"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/scratch"
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
	// RoutedReplies prices each response at its hop distance h — the h
	// messages a reply relayed back toward the initiator costs — instead
	// of one direct message. No path is recorded or walked.
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
	// A node's remaining gossip rounds are kept in one signed byte.
	if c.GossipFor > math.MaxInt8 {
		return fmt.Errorf("hopssampling: GossipFor %d exceeds %d", c.GossipFor, math.MaxInt8)
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

	// tables is the poll's working set, borrowed from idle for the
	// length of one poll (empty between polls).
	tables
	// pow memoizes inversePow(GossipTo, x) by exponent x.
	pow []float64
	// warmed accumulates what the read-aheads loaded, so that the
	// compiler keeps the loads; nothing reads it.
	warmed uint64
}

// tables is what a poll needs per node: one slot per node ID, versioned
// by gen so clearing is O(1), and the spread's two round queues. Its gen
// travels with it: every stamp in slots[:cap(slots)] is a gen at or
// below it, so a poll on borrowed tables reads none of them as its own.
type tables struct {
	slots        []slot
	gen          uint32
	active, next []graph.NodeID
}

// idle lends tables from a finished poll to the next, on any estimator.
var idle = scratch.NewList(func(t tables) int { return cap(t.slots) })

// slot is everything a poll keeps about one node, in one 12-byte record
// so that a visit costs one cache miss, not one per field. A slot whose
// stamp is not the current gen is unseen and its other fields are
// stale: the poll's first write to it overwrites the whole slot.
type slot struct {
	dist   int32  // lowest hop count received
	stamp  uint32 // gen of the poll that reached the node
	budget int8   // remaining gossip rounds
	acts   int8   // activations consumed
	queued bool   // already in next round's queue
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
// (core.OverlayMutator).
func (e *Estimator) MutatesOverlay() bool { return false }

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
	e.borrow(net.Graph())
	defer e.release()
	rounds := e.spread(net, initiator)
	est, reached, replies := e.collect(net, initiator)
	d := Diagnostics{Reached: reached, Rounds: rounds, Replies: replies, Estimate: est}
	return est, d, nil
}

// borrow takes tables for g's ids from idle (empty ones when it has
// none) and opens a new poll on them. Tables that must grow are made at
// g's IDCeiling.
func (e *Estimator) borrow(g *graph.Graph) {
	t, _ := idle.Get(g.IDCeiling())
	t.slots = scratch.Fit(t.slots, g.NumIDs(), g.IDCeiling())
	t.gen++
	if t.gen == 0 {
		// The stamps wrapped: every old stamp could now read as seen.
		clear(t.slots[:cap(t.slots)])
		t.gen = 1
	}
	e.tables = t
}

// release hands the poll's tables back to idle.
func (e *Estimator) release() {
	idle.Put(e.tables)
	e.tables = tables{}
}

// maxActivations bounds how many times one node is re-armed to gossip
// during a single poll (first infection plus distance-improvement
// relays). The cap keeps the spread at O(2N) total messages and is what
// leaves a tail of unreached nodes and partially inaccurate distances —
// the two under-estimation sources the paper analyses in §V. Unbounded
// re-arming floods the overlay until reach is ≈100% and the estimate is
// unbiased, which is NOT the algorithm the paper measured.
const maxActivations = 2

// stageBlock is how many nodes spread and collect stage at a time: each
// block's slots (and, in spread, records and targets' slots) are first
// read as independent loads, then visited one dependent step at a time.
const stageBlock = 64

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
	g := net.Graph()
	slots, gen, gossipFor := e.slots, e.gen, int8(e.cfg.GossipFor)
	slots[initiator] = slot{dist: 0, stamp: gen, budget: gossipFor, acts: 1}
	active, next := append(e.active[:0], initiator), e.next
	enqueue := func(id graph.NodeID, s *slot) {
		if !s.queued {
			s.queued = true
			next = append(next, id)
		}
	}
	arm := func(id graph.NodeID, s *slot) {
		if s.acts >= maxActivations {
			return
		}
		s.acts++
		s.budget = gossipFor
		enqueue(id, s)
	}
	quiet := 0
	rounds := 0
	for len(active) > 0 && quiet < e.cfg.GossipUntil && rounds < e.cfg.maxRounds() {
		rounds++
		next = next[:0]
		infected := 0
		for lo := 0; lo < len(active); lo += stageBlock {
			blk := active[lo:min(lo+stageBlock, len(active))]
			e.stage(g, blk)
			for _, id := range blk {
				src := &slots[id]
				for k := 0; k < e.cfg.GossipTo; k++ {
					h := src.dist
					target, ok := g.RandomNeighbor(id, e.rng)
					if !ok {
						break
					}
					net.SendTo(target, metrics.KindGossipSpread)
					if pol != nil && pol.Unreachable(target) {
						continue // sent, lost at the target's NAT
					}
					nd := h + 1
					dst := &slots[target]
					switch {
					case dst.stamp != gen:
						*dst = slot{dist: nd, stamp: gen, budget: gossipFor, acts: 1, queued: true}
						next = append(next, target)
						infected++
					case nd < dst.dist:
						// Better distance: remember it and re-arm the target
						// so the improvement propagates.
						dst.dist = nd
						arm(target, dst)
					case dst.dist+1 < h:
						// Bidirectional link: the target corrects the sender
						// with its better distance (one response message).
						net.SendTo(id, metrics.KindGossipSpread)
						src.dist = dst.dist + 1
						arm(id, src)
					}
				}
				src.budget--
				if src.budget > 0 {
					enqueue(id, src)
				}
			}
		}
		active, next = next, active
		for _, id := range active {
			slots[id].queued = false
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

// stage reads, as independent loads, what the block's senders are about
// to touch one dependent miss at a time: their graph records and slots,
// then the slots of the targets they will draw. The draws are fixed by
// the generator's state, so they are replayed on a copy of it, as
// graph.WireUpTo does; only spread's own loop advances e.rng.
func (e *Estimator) stage(g *graph.Graph, blk []graph.NodeID) {
	acc := uint64(g.DegreeSum(blk))
	for _, id := range blk {
		acc += uint64(e.slots[id].stamp)
	}
	ahead := *e.rng
	for _, id := range blk {
		for k := 0; k < e.cfg.GossipTo; k++ {
			target, ok := g.RandomNeighbor(id, &ahead)
			if !ok {
				break
			}
			acc += uint64(e.slots[target].stamp)
		}
	}
	e.warmed += acc
}

// collect runs the probabilistic reporting phase and extrapolates the
// size estimate. The alive list is swept in blocks whose slots are read
// ahead as independent loads.
func (e *Estimator) collect(net *overlay.Network, initiator graph.NodeID) (est float64, reached, replies int) {
	g := net.Graph()
	total := 1.0 // the initiator counts itself
	minHops := int32(e.cfg.MinHopsReporting)
	var ids [stageBlock]graph.NodeID
	for lo, n := 0, g.NumAlive(); lo < n; lo += stageBlock {
		blk := ids[:min(stageBlock, n-lo)]
		var acc uint64
		for j := range blk {
			blk[j] = g.AliveAt(lo + j)
			acc += uint64(e.slots[blk[j]].stamp)
		}
		e.warmed += acc
		for _, id := range blk {
			s := &e.slots[id]
			if s.stamp != e.gen {
				continue
			}
			reached++
			if id == initiator {
				continue
			}
			h := s.dist
			p := 1.0
			if h >= minHops {
				p = e.reportProb(int(h - minHops))
			}
			if !e.rng.Bernoulli(p) {
				continue
			}
			replies++
			if e.cfg.RoutedReplies {
				// A routed reply costs one message per hop back.
				net.SendN(metrics.KindReply, uint64(h))
			} else {
				net.Send(metrics.KindReply)
			}
			total += 1 / p
		}
	}
	return total, reached, replies
}

// reportProb returns the reporting probability GossipTo^-x of a node x
// hops past MinHopsReporting, memoized by x; the table is filled by
// inversePow itself, so the values are bit-equal to calling it.
func (e *Estimator) reportProb(x int) float64 {
	for len(e.pow) <= x {
		e.pow = append(e.pow, inversePow(e.cfg.GossipTo, len(e.pow)))
	}
	return e.pow[x]
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
	e.borrow(net.Graph())
	defer e.release()
	e.spread(net, initiator)
	g := net.Graph()
	reached := 0
	for i := 0; i < g.NumAlive(); i++ {
		if e.slots[g.AliveAt(i)].stamp == e.gen {
			reached++
		}
	}
	return float64(reached) / float64(g.NumAlive()), nil
}
