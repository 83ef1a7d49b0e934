package polling

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"p2psize/internal/fault"
	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// refEstimator is the unstaged flood and reply sweep, kept verbatim as
// the reference the staged BFS must match: one queue entry at a time,
// each visit waiting on its record and then on its neighbours' dist.
type refEstimator struct {
	cfg   Config
	rng   *xrand.Rand
	dist  []int32
	queue []graph.NodeID
}

func (e *refEstimator) estimateFrom(net *overlay.Network, initiator graph.NodeID) float64 {
	g := net.Graph()
	pol := net.FaultPolicy()
	if n := g.NumIDs(); len(e.dist) < n {
		e.dist = make([]int32, n+n/4)
	}
	dist := e.dist
	for i := range dist {
		dist[i] = -1
	}
	dist[initiator] = 0
	queue := append(e.queue[:0], initiator)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
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
	e.queue = queue
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
	return total
}

// TestStagedFloodMatchesReference: per call, the staged flood leaves the
// same hop distances, meters the same messages by kind, returns the same
// estimate and leaves the generator where the reference does — on plain
// overlays and churned COW clones, with and without a nat= policy, with
// routed and direct replies, across polls that outgrow the scratch.
func TestStagedFloodMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, n := range []int{1, 2, 50, 5000} {
			nets := map[string]*overlay.Network{"plain": hetNet(n, seed)}
			clone := hetNet(n, seed).CloneCOW()
			rng := xrand.New(seed + 100)
			for i := 0; i < n/5; i++ {
				clone.LeaveRandom(rng)
			}
			for i := 0; i < n/5+1; i++ {
				clone.JoinRandomDegree(rng)
			}
			nets["cow-churned"] = clone
			for _, kind := range []string{"plain", "cow-churned"} {
				for _, nat := range []bool{false, true} {
					for _, routed := range []bool{true, false} {
						label := fmt.Sprintf("seed=%d/n=%d/%s/nat=%v/routed=%v", seed, n, kind, nat, routed)
						cfg := Config{ResponseProb: 0.3, RoutedReplies: routed}
						diffFlood(t, label, cfg, nets[kind], nat, seed)
					}
				}
			}
		}
	}
}

func diffFlood(t *testing.T, label string, cfg Config, net *overlay.Network, nat bool, seed uint64) {
	t.Helper()
	net = net.CloneCOW() // the growth below stays private to this case
	a, b := net.View(), net.View()
	if nat {
		spec := fault.Spec{NATFrac: 0.2}
		a.SetFaultPolicy(fault.NewInjector(spec, xrand.New(99)))
		b.SetFaultPolicy(fault.NewInjector(spec, xrand.New(99)))
	}
	e := New(cfg, xrand.New(seed+7))
	ref := &refEstimator{cfg: cfg, rng: xrand.New(seed + 7)}
	grow := xrand.New(seed + 8)
	for call := 0; call < 3; call++ {
		at := fmt.Sprintf("%s/call=%d", label, call)
		ia, okA := a.RandomPeer(e.rng)
		ib, okB := b.RandomPeer(ref.rng)
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
		rest := ref.estimateFrom(b, ib)
		if math.Float64bits(est) != math.Float64bits(rest) || math.IsNaN(est) {
			t.Fatalf("%s: staged %v, reference %v", at, est, rest)
		}
		ids := net.Graph().NumIDs()
		if !slices.Equal(e.dist[:ids], ref.dist[:ids]) {
			t.Fatalf("%s: hop distances differ from the reference", at)
		}
		if a.Counter().Snapshot() != b.Counter().Snapshot() {
			t.Fatalf("%s: messages %v, reference %v", at, a.Counter(), b.Counter())
		}
		if *e.rng != *ref.rng {
			t.Fatalf("%s: generators diverged", at)
		}
		// Push the id range past the scratch's 1.25x headroom.
		for i := 0; i < ids/2+1; i++ {
			net.JoinRandomDegree(grow)
		}
	}
}

// TestDegenerateInputs: overlays smaller than one block, an isolated
// initiator and a clone all but one peer left give a finite estimate or
// an error — never a panic or a NaN.
func TestDegenerateInputs(t *testing.T) {
	finite := func(label string, net *overlay.Network) {
		t.Helper()
		e := New(Config{ResponseProb: 0.5, RoutedReplies: true}, xrand.New(41))
		for call := 0; call < 3; call++ {
			est, err := e.Estimate(net)
			if err == nil && (math.IsNaN(est) || math.IsInf(est, 0) || est < 1) {
				t.Fatalf("%s: estimate %v", label, est)
			}
		}
	}
	for _, n := range []int{1, 2, stageBlock - 1, stageBlock + 1} {
		finite(fmt.Sprintf("n=%d", n), hetNet(n, 1))
	}
	g := graph.NewWithNodes(stageBlock + 3)
	g.AddEdge(1, 2)
	if est, err := New(Config{ResponseProb: 1}, xrand.New(42)).EstimateFrom(overlay.New(g, 10, nil), 0); err != nil || est != 1 {
		t.Fatalf("isolated initiator: est %v err %v, want 1", est, err)
	}
	lone := hetNet(300, 43).CloneCOW()
	rng := xrand.New(44)
	for lone.Size() > 1 {
		lone.LeaveRandom(rng)
	}
	finite("all but one left", lone)
	if est, err := New(Config{ResponseProb: 1}, xrand.New(45)).Estimate(lone); err != nil || est != 1 {
		t.Fatalf("lone survivor: est %v err %v, want 1", est, err)
	}
}
