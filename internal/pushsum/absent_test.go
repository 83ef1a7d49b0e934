package pushsum

import (
	"math"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/xrand"
)

// tagged is a node as the tagged rule held it: a (sum, weight) pair, and
// whether the node's epoch tag was the current epoch's.
type tagged struct {
	st state
	in bool
}

// taggedDeliver is deliver as it was written over a separate epoch-tag
// vector, kept verbatim as the reference: a node new to the epoch joins
// with (1, 0), then takes the pushed half.
func taggedDeliver(x []tagged, v graph.NodeID, s, w float64) {
	if !x[v].in {
		x[v] = tagged{state{sum: 1}, true}
	}
	x[v].st.sum += s
	x[v].st.weight += w
}

// taggedVisit is the visit's arithmetic as it was written over the tag
// vector: a participant halves its pair and, unless the push is lost,
// delivers the half, its sum scaled by a lying sender.
func taggedVisit(x []tagged, u, v graph.NodeID, pol overlay.FaultPolicy, lost bool) {
	if !x[u].in {
		return
	}
	ds, dw := x[u].st.sum/2, x[u].st.weight/2
	x[u].st = state{ds, dw}
	if lost {
		return
	}
	if pol != nil {
		ds *= pol.ReportScale(u)
	}
	taggedDeliver(x, v, ds, dw)
}

// policy is a fault policy with one liar, one unreachable node and a
// drop probability.
type policy struct {
	liar        graph.NodeID
	scale       float64
	unreachable graph.NodeID
	drop        float64
}

func (policy) OnSend(metrics.Kind, uint64) uint64 { return 0 }
func (p policy) DropProb() float64                { return p.drop }
func (p policy) ReportScale(id graph.NodeID) float64 {
	if id == p.liar {
		return p.scale
	}
	return 1
}
func (p policy) Unreachable(id graph.NodeID) bool { return id == p.unreachable }

// twoNodes is an overlay of nodes 0 and 1 joined by one edge.
func twoNodes() *overlay.Network {
	g := graph.NewWithNodes(2)
	g.AddEdge(0, 1)
	return overlay.New(g, 10, nil)
}

// TestAbsentArithmetic holds the sign-bit membership rule to the tagged
// rule it replaced, bit for bit. The absent pair is what the epoch
// driver gives a node outside a fresh epoch after a first epoch made
// every node a member. A member's sum and weight range over {+0, -0,
// the smallest subnormal, 0.5, 1, 1e308} (a weight of -0 is the absent
// pair's); deliver credits every pushed half from {+0, 0.5}² to every
// pair, and a visit of node 0 pushing to node 1 runs for every two
// pairs on the benign path and under a policy that lies x3, drops every
// push, or NATs the target. Membership must agree with the reference
// after each step, and so must a member's pair.
func TestAbsentArithmetic(t *testing.T) {
	net := twoNodes()
	p := New(Default(), xrand.New(1))
	if err := p.StartEpoch(net); err != nil {
		t.Fatal(err)
	}
	if err := p.RunRound(net); err != nil {
		t.Fatal(err)
	}
	if !p.Participant(0) || !p.Participant(1) {
		t.Fatal("one round of the first epoch left a node out")
	}
	if err := p.StartEpoch(net); err != nil {
		t.Fatal(err)
	}
	other := 1 - p.Initiator
	if !p.Participant(p.Initiator) || p.Participant(other) {
		t.Fatalf("a fresh epoch: initiator member %v, the other node member %v", p.Participant(p.Initiator), p.Participant(other))
	}
	absent := p.State[other]
	negZero := math.Copysign(0, -1)
	if absent.sum != 1 || math.Float64bits(absent.weight) != math.Float64bits(negZero) {
		t.Fatalf("a node outside the epoch holds %v, want (1, -0)", absent)
	}
	// The reference's absent node holds an old epoch's leftovers, which
	// the tagged rule never read.
	toTagged := func(st state) tagged {
		if sameBits(st, absent) {
			return tagged{state{0.75, 0.25}, false}
		}
		return tagged{st, true}
	}
	table := []float64{0, negZero, math.SmallestNonzeroFloat64, 0.5, 1, 1e308}
	states := []state{absent}
	for _, s := range table {
		for _, w := range table {
			if math.Float64bits(w) != math.Float64bits(negZero) {
				states = append(states, state{s, w})
			}
		}
	}
	check := func(what string, ref []tagged) {
		t.Helper()
		for id := graph.NodeID(0); id < 2; id++ {
			got, want := p.State[id], ref[id]
			if p.Participant(id) != want.in || want.in && !sameBits(got, want.st) {
				t.Fatalf("%s: node %d holds %v (member %v), reference %v (member %v)", what, id, got, p.Participant(id), want.st, want.in)
			}
		}
	}
	halves := []float64{0, 0.5}
	for _, st := range states {
		for _, s := range halves {
			for _, w := range halves {
				p.State[0], p.State[1] = absent, st
				ref := []tagged{toTagged(absent), toTagged(st)}
				p.deliver(1, s, w)
				taggedDeliver(ref, 1, s, w)
				check("deliver", ref)
			}
		}
	}
	paths := []struct {
		name string
		pol  overlay.FaultPolicy
		lost bool
	}{
		{"benign", nil, false},
		{"u lies x3", policy{liar: 0, scale: 3, unreachable: graph.None}, false},
		{"drop", policy{liar: graph.None, unreachable: graph.None, drop: 1}, true},
		{"NAT", policy{liar: graph.None, unreachable: 1}, true},
	}
	for _, path := range paths {
		dropP := 0.0
		if path.pol != nil {
			dropP = path.pol.DropProb()
		}
		sw := p.sweep(net, net.Graph(), path.pol, dropP)
		for _, a := range states {
			for _, b := range states {
				p.State[0], p.State[1] = a, b
				ref := []tagged{toTagged(a), toTagged(b)}
				if err := sw.Visit(&parallel.Shard[push]{}, 0, xrand.New(2)); err != nil {
					t.Fatal(err)
				}
				taggedVisit(ref, 0, 1, path.pol, path.lost)
				check(path.name+" visit", ref)
			}
		}
	}
}

func sameBits(a, b state) bool {
	return math.Float64bits(a.sum) == math.Float64bits(b.sum) && math.Float64bits(a.weight) == math.Float64bits(b.weight)
}
