package aggregation

import (
	"math"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/model"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// lyingPolicy is a fault policy under which liar scales the values it
// reports by scale; it drops nothing and reaches everyone (drops and
// NAT reach exchange as fates).
type lyingPolicy struct {
	liar  graph.NodeID
	scale float64
}

func (lyingPolicy) OnSend(metrics.Kind, uint64) uint64 { return 0 }
func (lyingPolicy) DropProb() float64                  { return 0 }
func (l lyingPolicy) ReportScale(id graph.NodeID) float64 {
	if id == l.liar {
		return l.scale
	}
	return 1
}
func (lyingPolicy) Unreachable(graph.NodeID) bool { return false }

// twoNodes is an overlay of nodes 0 and 1 joined by one edge.
func twoNodes() *overlay.Network {
	g := graph.NewWithNodes(2)
	g.AddEdge(0, 1)
	return overlay.New(g, 10, nil)
}

// TestAbsentArithmetic holds the sign-bit membership rule to the
// model's exchange (internal/model), membership in a map, bit for bit. The absent state is what the epoch
// driver gives a node outside a fresh epoch after a first epoch made
// every node a member. Every pair of states from {+0, absent (-0), the
// smallest subnormal, 0.5, 1, 1e308} is exchanged on the benign path,
// and under a policy with every fate (a drop loses the push or the
// pull; a NAT'd target loses the push) and no liar, u lying x3 or v
// lying x3. After each exchange both nodes' membership must agree with
// the model, and so must a member's value.
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
	if math.Float64bits(absent) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("a node outside the epoch holds %v, want -0", absent)
	}
	toModel := func(a, b float64) *model.Epoch {
		e := &model.Epoch{State: map[graph.NodeID][2]float64{}}
		for id, x := range []float64{a, b} {
			if math.Float64bits(x) != math.Float64bits(absent) {
				e.State[graph.NodeID(id)] = [2]float64{x}
			}
		}
		return e
	}
	table := []float64{0, absent, math.SmallestNonzeroFloat64, 0.5, 1, 1e308}
	allFates := []uint8{0, fatePullLost, fatePushLost, fatePushLost | fatePullLost}
	paths := []struct {
		name  string
		pol   overlay.FaultPolicy
		fates []uint8
	}{
		{"benign", nil, []uint8{0}},
		{"policy, no liar", lyingPolicy{graph.None, 1}, allFates},
		{"policy, u lies x3", lyingPolicy{0, 3}, allFates},
		{"policy, v lies x3", lyingPolicy{1, 3}, allFates},
	}
	for _, path := range paths {
		for _, fate := range path.fates {
			for _, a := range table {
				for _, b := range table {
					p.State[0], p.State[1] = a, b
					ref := toModel(a, b)
					p.exchange(path.pol, 0, 1, fate)
					if fate&fatePushLost == 0 {
						ref.Exchange(path.pol, 0, 1, fate&fatePullLost != 0)
					}
					for id := graph.NodeID(0); id < 2; id++ {
						want, in := ref.State[id]
						if got := p.State[id]; p.Participant(id) != in || in && math.Float64bits(got) != math.Float64bits(want[0]) {
							t.Fatalf("%s, fate %b, (%v, %v): node %d holds %v (member %v), model %v (member %v)",
								path.name, fate, a, b, id, got, p.Participant(id), want[0], in)
						}
					}
				}
			}
		}
	}
}
