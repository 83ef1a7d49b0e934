package polling

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

func hetNet(n int, seed uint64) *overlay.Network {
	return overlay.New(graph.Heterogeneous(n, 10, xrand.New(seed)), 10, nil)
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{{ResponseProb: 0}, {ResponseProb: -0.5}, {ResponseProb: 1.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg, xrand.New(1))
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("nil rng did not panic")
			}
		}()
		New(Default(), nil)
	}()
}

func TestName(t *testing.T) {
	if got := New(Config{ResponseProb: 0.05}, xrand.New(1)).Name(); got != "polling(p=0.05)" {
		t.Fatalf("Name = %q", got)
	}
}

func TestUnbiasedEstimate(t *testing.T) {
	// The flood reaches everyone, so with a decent p the estimate
	// concentrates tightly around N (std ≈ sqrt(N(1-p)/p) ≈ 435 for
	// p=0.05, N=10000 → a few runs average well within 5%).
	const n = 10000
	net := hetNet(n, 2)
	e := New(Config{ResponseProb: 0.05}, xrand.New(3))
	sum := 0.0
	const runs = 10
	for i := 0; i < runs; i++ {
		est, err := e.Estimate(net)
		if err != nil {
			t.Fatal(err)
		}
		sum += est
	}
	if mean := sum / runs; math.Abs(mean-n)/n > 0.05 {
		t.Fatalf("mean estimate %.0f, truth %d", mean, n)
	}
}

func TestRepliesScaleWithP(t *testing.T) {
	const n = 5000
	replies := func(p float64) uint64 {
		net := hetNet(n, 4)
		e := New(Config{ResponseProb: p, RoutedReplies: false}, xrand.New(5))
		if _, err := e.Estimate(net); err != nil {
			t.Fatal(err)
		}
		return net.Counter().Count(metrics.KindReply)
	}
	lo, hi := replies(0.01), replies(0.2)
	wantRatio := 20.0
	ratio := float64(hi) / float64(lo)
	if ratio < wantRatio/2 || ratio > wantRatio*2 {
		t.Fatalf("reply ratio = %.1f, want ≈%.0f", ratio, wantRatio)
	}
}

func TestSpreadCostIsTwoE(t *testing.T) {
	const n = 3000
	net := hetNet(n, 6)
	edges := net.Graph().NumEdges()
	e := New(Config{ResponseProb: 0.01, RoutedReplies: false}, xrand.New(7))
	if _, err := e.Estimate(net); err != nil {
		t.Fatal(err)
	}
	spread := net.Counter().Count(metrics.KindGossipSpread)
	if spread != uint64(2*edges) {
		t.Fatalf("spread = %d messages, want 2|E| = %d", spread, 2*edges)
	}
}

func TestRoutedRepliesCostMore(t *testing.T) {
	const n = 5000
	cost := func(routed bool) uint64 {
		net := hetNet(n, 8)
		e := New(Config{ResponseProb: 0.1, RoutedReplies: routed}, xrand.New(9))
		if _, err := e.Estimate(net); err != nil {
			t.Fatal(err)
		}
		return net.Counter().Count(metrics.KindReply)
	}
	if direct, routed := cost(false), cost(true); routed <= direct {
		t.Fatalf("routed %d not above direct %d", routed, direct)
	}
}

func TestP1CountsExactly(t *testing.T) {
	// p=1: everyone replies once; the estimate is exactly the component
	// size.
	const n = 500
	net := hetNet(n, 10)
	e := New(Config{ResponseProb: 1}, xrand.New(11))
	est, err := e.Estimate(net)
	if err != nil {
		t.Fatal(err)
	}
	if est != float64(graph.LargestComponent(net.Graph())) {
		t.Fatalf("p=1 estimate %.0f, component %d", est, graph.LargestComponent(net.Graph()))
	}
}

func TestSeesOnlyOwnComponent(t *testing.T) {
	g := graph.NewWithNodes(20)
	for i := graph.NodeID(0); i < 9; i++ {
		g.AddEdge(i, i+1)
	}
	for i := graph.NodeID(10); i < 19; i++ {
		g.AddEdge(i, i+1)
	}
	net := overlay.New(g, 10, nil)
	e := New(Config{ResponseProb: 1}, xrand.New(12))
	est, err := e.EstimateFrom(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if est != 10 {
		t.Fatalf("estimate %.0f, component size 10", est)
	}
}

func TestEmptyAndDeadInitiator(t *testing.T) {
	g := graph.NewWithNodes(1)
	g.RemoveNode(0)
	net := overlay.New(g, 10, nil)
	if _, err := New(Default(), xrand.New(13)).Estimate(net); !errors.Is(err, ErrEmptyOverlay) {
		t.Fatalf("err = %v", err)
	}
	net2 := hetNet(10, 14)
	id, _ := net2.RandomPeer(xrand.New(15))
	net2.Leave(id)
	if _, err := New(Default(), xrand.New(16)).EstimateFrom(net2, id); err == nil {
		t.Fatal("dead initiator accepted")
	}
}

func TestIsolatedInitiator(t *testing.T) {
	g := graph.NewWithNodes(3)
	g.AddEdge(1, 2)
	net := overlay.New(g, 10, nil)
	est, err := New(Config{ResponseProb: 1}, xrand.New(17)).EstimateFrom(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if est != 1 {
		t.Fatalf("isolated initiator estimate %.0f, want 1", est)
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
