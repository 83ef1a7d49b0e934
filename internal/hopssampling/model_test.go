package hopssampling

import (
	"fmt"
	"math"
	"testing"

	"p2psize/internal/fault"
	"p2psize/internal/graph"
	"p2psize/internal/model"
	"p2psize/internal/overlay"
	"p2psize/internal/scratch"
	"p2psize/internal/xrand"
)

// diffCase is one overlay the estimator and the model both poll, each
// on its own view so their meters stay apart; under nat each view gets
// its own injector from the same seed, so fates agree.
type diffCase struct {
	name string
	net  *overlay.Network
	nat  bool
}

func (c diffCase) views() (*overlay.Network, *overlay.Network) {
	a, b := c.net.View(), c.net.View()
	if c.nat {
		a.SetFaultPolicy(fault.NewInjector(fault.Spec{NATFrac: 0.2}, xrand.New(99)))
		b.SetFaultPolicy(fault.NewInjector(fault.Spec{NATFrac: 0.2}, xrand.New(99)))
	}
	return a, b
}

// diffCases are plain overlays and COW clones after churn (departures
// leave holes in the id range, joins append ids past the base's), with
// and without NAT, at sizes below and above one staged block.
func diffCases(seed uint64) []diffCase {
	var cs []diffCase
	for _, n := range []int{1, 2, 50, 5000} {
		clone := hetNet(n, seed).CloneCOW()
		rng := xrand.New(seed + 100)
		for i := 0; i < n/5; i++ {
			clone.LeaveRandom(rng)
		}
		for i := 0; i < n/5+1; i++ {
			clone.JoinRandomDegree(rng)
		}
		for _, nat := range []bool{false, true} {
			cs = append(cs, diffCase{fmt.Sprintf("plain/n=%d/nat=%v", n, nat), hetNet(n, seed), nat},
				diffCase{fmt.Sprintf("cow-churned/n=%d/nat=%v", n, nat), clone, nat})
		}
	}
	return cs
}

// pollBoth runs one poll on each side from the initiator each draws
// from its own generator, and fails on any difference in estimate,
// diagnostics, per-kind messages or generator position.
func pollBoth(t *testing.T, label string, e *Estimator, ref *xrand.Rand, a, b *overlay.Network) {
	t.Helper()
	ia, okA := a.RandomPeer(e.rng)
	ib, okB := b.RandomPeer(ref)
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
	h := model.Hops(e.cfg)
	dist, rounds := h.Spread(b, ib, ref)
	rest, reached, replies := h.Collect(b, ib, dist, ref)
	if rd := (Diagnostics{reached, rounds, replies, rest}); math.Float64bits(est) != math.Float64bits(rest) || d != rd {
		t.Fatalf("%s: staged %v %+v, model %v %+v", label, est, d, rest, rd)
	}
	if a.Counter().Snapshot() != b.Counter().Snapshot() {
		t.Fatalf("%s: messages %v, model %v", label, a.Counter(), b.Counter())
	}
	if *e.rng != *ref {
		t.Fatalf("%s: generators diverged", label)
	}
	if math.IsNaN(est) || math.IsInf(est, 0) {
		t.Fatalf("%s: estimate %v", label, est)
	}
}

// TestStagedMatchesReference: the staged spread and collect draw, meter
// and estimate exactly as the model's, per call, across fan-outs, reply
// modes, fault policies, churned clones and back-to-back polls; so does
// the collect phase alone on BFS distances (the oracle probe).
func TestStagedMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, c := range diffCases(seed) {
			// The last row gossips for the most rounds a node's budget
			// holds, five times the messages of a default poll: on the
			// first seed only.
			for _, gossip := range []struct{ to, rounds int }{{1, 1}, {2, 1}, {3, 1}, {2, math.MaxInt8}} {
				if gossip.rounds > 1 && seed > 1 {
					continue
				}
				for _, routed := range []bool{true, false} {
					cfg := Default()
					cfg.GossipTo, cfg.GossipFor, cfg.RoutedReplies = gossip.to, gossip.rounds, routed
					label := fmt.Sprintf("seed=%d/%s/gossipTo=%d/gossipFor=%d/routed=%v", seed, c.name, gossip.to, gossip.rounds, routed)
					e, ref := New(cfg, xrand.New(seed+7)), xrand.New(seed+7)
					a, b := c.views()
					for call := 0; call < 3; call++ {
						pollBoth(t, fmt.Sprintf("%s/call=%d", label, call), e, ref, a, b)
					}
					if ia, ok := a.RandomPeer(xrand.New(seed)); ok {
						bfs := map[graph.NodeID]int32{}
						for id, d := range graph.BFSDistances(b.Graph(), ia) {
							if d >= 0 {
								bfs[graph.NodeID(id)] = d
							}
						}
						want, _, _ := model.Hops(cfg).Collect(b, ia, bfs, ref)
						if est, err := e.EstimateWithOracleDistances(a, ia); err != nil || est != want || *e.rng != *ref {
							t.Fatalf("%s: oracle estimate %v (err %v), model %v, same generator %v", label, est, err, want, *e.rng == *ref)
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
		e, ref := New(Default(), xrand.New(seed)), xrand.New(seed)
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

// TestStampWrap: when the poll counter of the tables a poll borrows
// wraps, slots stamped by earlier polls must not read as reached by the
// new one.
func TestStampWrap(t *testing.T) {
	net := hetNet(2000, 9)
	e := New(Default(), xrand.New(10))
	scratch.Drop()
	if _, err := e.Estimate(net); err != nil {
		t.Fatal(err)
	}
	used, _ := idle.Get(0) // the only idle tables: the poll's
	used.gen = math.MaxUint32
	idle.Put(used)
	fresh := New(Default(), xrand.New(0))
	*fresh.rng = *e.rng
	a, da, err := e.EstimateFrom(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	scratch.Drop()
	b, db, err := fresh.EstimateFrom(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || da != db {
		t.Fatalf("after the wrap: %v %+v, fresh estimator %v %+v", a, da, b, db)
	}
}
