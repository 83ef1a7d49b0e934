package polling

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

// TestStagedFloodMatchesReference: per call, the staged flood leaves the
// model's hop distances, meters the same messages by kind, returns the
// same estimate and leaves the generator where the model does — on
// plain overlays and churned COW clones, with and without a nat=
// policy, across polls that reuse the scratch and polls that outgrow
// it.
func TestStagedFloodMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, n := range []int{1, 2, 50, 5000} {
			clone := hetNet(n, seed).CloneCOW()
			rng := xrand.New(seed + 100)
			for i := 0; i < n/5; i++ {
				clone.LeaveRandom(rng)
			}
			for i := 0; i < n/5+1; i++ {
				clone.JoinRandomDegree(rng)
			}
			for kind, net := range []*overlay.Network{hetNet(n, seed), clone} {
				for _, nat := range []bool{false, true} {
					label := fmt.Sprintf("seed=%d/n=%d/churned=%v/nat=%v", seed, n, kind == 1, nat)
					diffFlood(t, label, net, nat, seed)
				}
			}
		}
	}
}

func diffFlood(t *testing.T, label string, net *overlay.Network, nat bool, seed uint64) {
	t.Helper()
	net = net.CloneCOW() // the growth below stays private to this case
	a, b := net.View(), net.View()
	if nat {
		a.SetFaultPolicy(fault.NewInjector(fault.Spec{NATFrac: 0.2}, xrand.New(99)))
		b.SetFaultPolicy(fault.NewInjector(fault.Spec{NATFrac: 0.2}, xrand.New(99)))
	}
	e, ref := New(xrand.New(seed+7)), xrand.New(seed+7)
	grow := xrand.New(seed + 8)
	scratch.Drop() // every call below polls on the one flood it hands back
	for call := 0; call < 3; call++ {
		at := fmt.Sprintf("%s/call=%d", label, call)
		ia, okA := a.RandomPeer(e.rng)
		ib, okB := b.RandomPeer(ref)
		if okA != okB || ia != ib {
			t.Fatalf("%s: initiators %d/%v vs %d/%v", at, ia, okA, ib, okB)
		}
		if !okA {
			return
		}
		est, err := e.EstimateFrom(a, ia)
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		want, dist := model.Poll(b, ib, responseProb, true, ref)
		if math.Float64bits(est) != math.Float64bits(want) || math.IsNaN(est) {
			t.Fatalf("%s: staged %v, model %v", at, est, want)
		}
		used, _ := idle.Get(0)
		ids := net.Graph().NumIDs()
		for id := range ids {
			want := int32(-1) // unreached
			if d, seen := dist[graph.NodeID(id)]; seen {
				want = d
			}
			if used.dist[id] != want {
				t.Fatalf("%s: node %d at hop distance %d, model %d", at, id, used.dist[id], want)
			}
		}
		idle.Put(used)
		if a.Counter().Snapshot() != b.Counter().Snapshot() {
			t.Fatalf("%s: messages %v, model %v", at, a.Counter(), b.Counter())
		}
		if *e.rng != *ref {
			t.Fatalf("%s: generators diverged", at)
		}
		// The second call reuses the first one's flood; then the id
		// range is pushed past the scratch's 1.25x headroom, so the
		// third makes a new one.
		for i := 0; call > 0 && i < ids/2+1; i++ {
			net.JoinRandomDegree(grow)
		}
	}
}
