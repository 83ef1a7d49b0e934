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

// TestConfigValidation: the one invalid input left to New is a nil
// generator.
func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil rng did not panic")
		}
	}()
	New(nil)
}

func TestUnbiasedEstimate(t *testing.T) {
	// The flood reaches everyone, so the estimate 1 + replies/p is
	// unbiased with std sqrt((N-1)(1-p)/p) ≈ 995 for p = 0.01 and
	// N = 10000: 40 runs average to within 5% (3 standard errors).
	const n, runs = 10000, 40
	net := hetNet(n, 2)
	e := New(xrand.New(3))
	sum := 0.0
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

// TestRepliesScaleWithP: each reached peer replies with probability p,
// so a poll of the whole overlay draws about p·N repliers; the
// estimate 1 + repliers/p gives their count back.
func TestRepliesScaleWithP(t *testing.T) {
	const n, runs = 5000, 20
	net := hetNet(n, 4)
	e := New(xrand.New(5))
	repliers := 0.0
	for i := 0; i < runs; i++ {
		est, err := e.Estimate(net)
		if err != nil {
			t.Fatal(err)
		}
		r := (est - 1) * responseProb
		if r != math.Round(r) {
			t.Fatalf("estimate %v is not 1 + repliers/p", est)
		}
		repliers += r
	}
	// Binomial(runs·(N-1), p): mean ≈ 1000, std ≈ 31.
	if want := runs * (n - 1) * responseProb; math.Abs(repliers-want) > 4*math.Sqrt(want) {
		t.Fatalf("%v repliers over %d polls, want ≈ %.0f", repliers, runs, want)
	}
}

func TestSpreadCostIsTwoE(t *testing.T) {
	const n = 3000
	net := hetNet(n, 6)
	edges := net.Graph().NumEdges()
	e := New(xrand.New(7))
	if _, err := e.Estimate(net); err != nil {
		t.Fatal(err)
	}
	spread := net.Counter().Count(metrics.KindGossipSpread)
	if spread != uint64(2*edges) {
		t.Fatalf("spread = %d messages, want 2|E| = %d", spread, 2*edges)
	}
}

// TestSeesOnlyOwnComponent: the flood crosses each link of the
// initiator's component twice and never leaves it, and the estimate
// counts at most that component's peers.
func TestSeesOnlyOwnComponent(t *testing.T) {
	g := graph.NewWithNodes(20)
	for i := graph.NodeID(0); i < 9; i++ {
		g.AddEdge(i, i+1)
	}
	for i := graph.NodeID(10); i < 19; i++ {
		g.AddEdge(i, i+1)
	}
	net := overlay.New(g, 10, nil)
	e := New(xrand.New(12))
	for call := 0; call < 20; call++ {
		net.Counter().Reset()
		est, err := e.EstimateFrom(net, 0)
		if err != nil {
			t.Fatal(err)
		}
		if spread := net.Counter().Count(metrics.KindGossipSpread); spread != 18 {
			t.Fatalf("spread = %d messages, want the component's 2·9 = 18", spread)
		}
		if est > 1+9/responseProb {
			t.Fatalf("estimate %.0f beyond the component's 1 + 9/p", est)
		}
	}
}

func TestEmptyAndDeadInitiator(t *testing.T) {
	g := graph.NewWithNodes(1)
	g.RemoveNode(0)
	net := overlay.New(g, 10, nil)
	if _, err := New(xrand.New(13)).Estimate(net); !errors.Is(err, ErrEmptyOverlay) {
		t.Fatalf("err = %v", err)
	}
	net2 := hetNet(10, 14)
	id, _ := net2.RandomPeer(xrand.New(15))
	net2.Leave(id)
	if _, err := New(xrand.New(16)).EstimateFrom(net2, id); err == nil {
		t.Fatal("dead initiator accepted")
	}
}

func TestIsolatedInitiator(t *testing.T) {
	g := graph.NewWithNodes(3)
	g.AddEdge(1, 2)
	net := overlay.New(g, 10, nil)
	est, err := New(xrand.New(17)).EstimateFrom(net, 0)
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
		e := New(xrand.New(41))
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
	if est, err := New(xrand.New(42)).EstimateFrom(overlay.New(g, 10, nil), 0); err != nil || est != 1 {
		t.Fatalf("isolated initiator: est %v err %v, want 1", est, err)
	}
	lone := hetNet(300, 43).CloneCOW()
	rng := xrand.New(44)
	for lone.Size() > 1 {
		lone.LeaveRandom(rng)
	}
	finite("all but one left", lone)
	if est, err := New(xrand.New(45)).Estimate(lone); err != nil || est != 1 {
		t.Fatalf("lone survivor: est %v err %v, want 1", est, err)
	}
}
