package hopssampling

import (
	"fmt"
	"math"
	"testing"

	"p2psize/internal/fault"
	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// refEstimator is the unstaged implementation of the two phases, kept
// verbatim as the reference the staged loops must match draw for draw:
// six per-node vectors (parent written and never read), three clears
// per poll, one dependent load at a time and inversePow per reply.
type refEstimator struct {
	cfg Config
	rng *xrand.Rand

	dist         []int32
	parent       []graph.NodeID
	stamp        []uint32
	gen          uint32
	budget       []int8
	acts         []int8
	queued       []bool
	active, next []graph.NodeID
}

func (e *refEstimator) estimateFrom(net *overlay.Network, initiator graph.NodeID) (float64, Diagnostics) {
	e.resetScratch(net.Graph().NumIDs())
	rounds := e.spread(net, initiator)
	est, reached, replies := e.collect(net, initiator)
	return est, Diagnostics{Reached: reached, Rounds: rounds, Replies: replies, Estimate: est}
}

func (e *refEstimator) oracle(net *overlay.Network, initiator graph.NodeID) float64 {
	e.resetScratch(net.Graph().NumIDs())
	for id, d := range graph.BFSDistances(net.Graph(), initiator) {
		if d >= 0 {
			e.setDist(graph.NodeID(id), d, graph.None)
		}
	}
	est, _, _ := e.collect(net, initiator)
	return est
}

func (e *refEstimator) resetScratch(numIDs int) {
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
func (e *refEstimator) seen(id graph.NodeID) bool { return e.stamp[id] == e.gen }

func (e *refEstimator) setDist(id graph.NodeID, d int32, parent graph.NodeID) {
	e.dist[id] = d
	e.parent[id] = parent
	e.stamp[id] = e.gen
}

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
func (e *refEstimator) spread(net *overlay.Network, initiator graph.NodeID) int {
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
func (e *refEstimator) collect(net *overlay.Network, initiator graph.NodeID) (est float64, reached, replies int) {
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

// diffCase is one overlay the staged estimator and the reference both
// poll, each on its own view so their meters stay apart.
type diffCase struct {
	name string
	net  *overlay.Network
	nat  bool
}

// views returns two metering views of c's overlay; under nat each gets
// its own injector from the same seed, so fates and fault draws agree.
func (c diffCase) views() (*overlay.Network, *overlay.Network) {
	a, b := c.net.View(), c.net.View()
	if c.nat {
		spec := fault.Spec{NATFrac: 0.2}
		a.SetFaultPolicy(fault.NewInjector(spec, xrand.New(99)))
		b.SetFaultPolicy(fault.NewInjector(spec, xrand.New(99)))
	}
	return a, b
}

func diffCases(t *testing.T, seed uint64) []diffCase {
	t.Helper()
	var cs []diffCase
	for _, n := range []int{1, 2, 50, 5000} {
		plain := hetNet(n, seed)
		cs = append(cs, diffCase{name: fmt.Sprintf("plain/n=%d", n), net: plain})
		// A COW clone after churn: departures leave holes in the id
		// range and joins append ids past the base's.
		clone := hetNet(n, seed).CloneCOW()
		rng := xrand.New(seed + 100)
		for i := 0; i < n/5; i++ {
			clone.LeaveRandom(rng)
		}
		for i := 0; i < n/5+1; i++ {
			clone.JoinRandomDegree(rng)
		}
		cs = append(cs, diffCase{name: fmt.Sprintf("cow-churned/n=%d", n), net: clone})
	}
	var withNAT []diffCase
	for _, c := range cs {
		withNAT = append(withNAT, c, diffCase{name: c.name + "/nat", net: c.net, nat: true})
	}
	return withNAT
}

// pollBoth runs one poll on each side from the initiator each draws
// from its own generator, and fails on any difference in estimate,
// diagnostics, per-kind messages or generator position.
func pollBoth(t *testing.T, label string, e *Estimator, ref *refEstimator, a, b *overlay.Network) {
	t.Helper()
	ia, okA := a.RandomPeer(e.rng)
	ib, okB := b.RandomPeer(ref.rng)
	if okA != okB || ia != ib {
		t.Fatalf("%s: initiators %d/%v vs %d/%v", label, ia, okA, ib, okB)
	}
	if !okA {
		return
	}
	est, d, err := e.EstimateFrom(a, ia)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	rest, rd := ref.estimateFrom(b, ib)
	if math.Float64bits(est) != math.Float64bits(rest) || d != rd {
		t.Fatalf("%s: staged %v %+v, reference %v %+v", label, est, d, rest, rd)
	}
	if a.Counter().Snapshot() != b.Counter().Snapshot() {
		t.Fatalf("%s: messages %v, reference %v", label, a.Counter(), b.Counter())
	}
	if *e.rng != *ref.rng {
		t.Fatalf("%s: generators diverged", label)
	}
	if math.IsNaN(est) || math.IsInf(est, 0) {
		t.Fatalf("%s: estimate %v", label, est)
	}
}

// TestStagedMatchesReference: the staged spread and collect draw, meter
// and estimate exactly as the unstaged reference, per call, across
// fan-outs, reply modes, fault policies, churned clones and back-to-back
// polls whose id range outgrows the scratch's headroom.
func TestStagedMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, c := range diffCases(t, seed) {
			for _, fan := range []int{1, 2, 3} {
				for _, routed := range []bool{true, false} {
					cfg := Default()
					cfg.GossipTo, cfg.RoutedReplies = fan, routed
					label := fmt.Sprintf("seed=%d/%s/gossipTo=%d/routed=%v", seed, c.name, fan, routed)
					e := New(cfg, xrand.New(seed+7))
					ref := &refEstimator{cfg: cfg, rng: xrand.New(seed + 7)}
					a, b := c.views()
					for call := 0; call < 3; call++ {
						pollBoth(t, fmt.Sprintf("%s/call=%d", label, call), e, ref, a, b)
					}
					if ia, ok := a.RandomPeer(xrand.New(seed)); ok {
						if est, err := e.EstimateWithOracleDistances(a, ia); err != nil || est != ref.oracle(b, ia) {
							t.Fatalf("%s: oracle estimate %v (err %v) differs from the reference", label, est, err)
						}
						if *e.rng != *ref.rng {
							t.Fatalf("%s: generators diverged after the oracle probe", label)
						}
					}
				}
			}
		}
	}
}

// TestStagedMatchesReferenceAcrossGrowth: polls on one estimator while
// joins push NumIDs past the 1.25x headroom, so the scratch is re-made
// (and the stamps restart) between calls.
func TestStagedMatchesReferenceAcrossGrowth(t *testing.T) {
	for _, seed := range []uint64{4, 5} {
		net := hetNet(400, seed).CloneCOW()
		e := New(Default(), xrand.New(seed))
		ref := &refEstimator{cfg: Default(), rng: xrand.New(seed)}
		a, b := net.View(), net.View()
		rng := xrand.New(seed + 1)
		for call := 0; call < 6; call++ {
			pollBoth(t, fmt.Sprintf("seed=%d/call=%d/ids=%d", seed, call, net.Graph().NumIDs()), e, ref, a, b)
			for i, grow := 0, net.Graph().NumIDs()/2; i < grow; i++ {
				net.JoinRandomDegree(rng)
			}
			net.LeaveRandom(rng)
		}
	}
}

// TestDegenerateInputs: the staged loops on overlays smaller than one
// block, an isolated initiator, and a clone all but one peer left give a
// finite estimate or an error — never a panic or a NaN.
func TestDegenerateInputs(t *testing.T) {
	check := func(label string, net *overlay.Network) {
		t.Helper()
		e := New(Default(), xrand.New(41))
		for call := 0; call < 3; call++ {
			est, err := e.Estimate(net)
			if err == nil && (math.IsNaN(est) || math.IsInf(est, 0) || est < 1) {
				t.Fatalf("%s: estimate %v", label, est)
			}
		}
	}
	check("n=1", hetNet(1, 1))
	check("n=2", hetNet(2, 1))
	check(fmt.Sprintf("n=%d", stageBlock-1), hetNet(stageBlock-1, 1))
	check(fmt.Sprintf("n=%d", stageBlock+1), hetNet(stageBlock+1, 1))

	g := graph.NewWithNodes(stageBlock + 3)
	g.AddEdge(1, 2)
	iso := overlay.New(g, 10, nil)
	if est, d, err := New(Default(), xrand.New(42)).EstimateFrom(iso, 0); err != nil || est != 1 || d.Reached != 1 {
		t.Fatalf("isolated initiator: est %v reached %d err %v, want 1/1", est, d.Reached, err)
	}

	lone := hetNet(300, 43).CloneCOW()
	rng := xrand.New(44)
	for lone.Size() > 1 {
		lone.LeaveRandom(rng)
	}
	check("all but one left", lone)
	if est, err := New(Default(), xrand.New(45)).Estimate(lone); err != nil || est != 1 {
		t.Fatalf("lone survivor: est %v err %v, want 1", est, err)
	}
	none := hetNet(1, 1).CloneCOW()
	none.Leave(0)
	if _, err := New(Default(), xrand.New(46)).Estimate(none); err == nil {
		t.Fatal("empty clone: no error")
	}
}

// TestStampWrap: when the poll counter wraps, slots stamped by earlier
// polls must not read as reached by the new one.
func TestStampWrap(t *testing.T) {
	net := hetNet(2000, 9)
	e := New(Default(), xrand.New(10))
	if _, err := e.Estimate(net); err != nil {
		t.Fatal(err)
	}
	e.gen = math.MaxUint32
	fresh := New(Default(), xrand.New(0))
	*fresh.rng = *e.rng
	a, da, err := e.EstimateFrom(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, db, err := fresh.EstimateFrom(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || da != db {
		t.Fatalf("after the wrap: %v %+v, fresh estimator %v %+v", a, da, b, db)
	}
}
