package pushsum

import (
	"math"
	"testing"

	"p2psize/internal/epidemic"
	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/model"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/xrand"
)

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

// TestAbsentArithmetic holds the sign-bit membership rule to the
// model's push (internal/model), membership in a map, bit for bit. The absent pair is what the epoch
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
	toModel := func(a, b state) *model.Epoch {
		e := &model.Epoch{PushSum: true, State: map[graph.NodeID][2]float64{}}
		for id, st := range []state{a, b} {
			if !sameBits(st, absent) {
				e.State[graph.NodeID(id)] = [2]float64{st.sum, st.weight}
			}
		}
		return e
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
	check := func(what string, ref *model.Epoch) {
		t.Helper()
		for id := graph.NodeID(0); id < 2; id++ {
			want, in := ref.State[id]
			if got := p.State[id]; p.Participant(id) != in || in && !sameBits(got, state{want[0], want[1]}) {
				t.Fatalf("%s: node %d holds %v (member %v), model %v (member %v)", what, id, got, p.Participant(id), want, in)
			}
		}
	}
	halves := []float64{0, 0.5}
	for _, st := range states {
		for _, s := range halves {
			for _, w := range halves {
				p.State[0], p.State[1] = absent, st
				ref := toModel(absent, st)
				ref.State[2] = [2]float64{2 * s, 2 * w} // a third node pushes (s, w)
				ref.Push(nil, 2, 1, false)()
				delete(ref.State, 2)
				p.deliver(1, s, w)
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
		r := epidemic.Round{Net: net, G: net.Graph(), Pol: path.pol}
		if path.pol != nil {
			r.DropP = path.pol.DropProb()
		}
		sw := p.sweep(&r)
		for _, a := range states {
			for _, b := range states {
				p.State[0], p.State[1] = a, b
				ref := toModel(a, b)
				if err := sw.Visit(&parallel.Shard[push]{}, 0, xrand.New(2)); err != nil {
					t.Fatal(err)
				}
				if deliver := ref.Push(path.pol, 0, 1, path.lost); deliver != nil {
					deliver()
				}
				check(path.name+" visit", ref)
			}
		}
	}
}

func sameBits(a, b state) bool {
	return math.Float64bits(a.sum) == math.Float64bits(b.sum) && math.Float64bits(a.weight) == math.Float64bits(b.weight)
}
