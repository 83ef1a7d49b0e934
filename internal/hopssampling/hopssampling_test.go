package hopssampling

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/scratch"
	"p2psize/internal/xrand"
)

func hetNet(n int, seed uint64) *overlay.Network {
	return overlay.New(graph.Heterogeneous(n, 10, xrand.New(seed)), 10, nil)
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{{MinHopsReporting: 0}, {MinHopsReporting: -1}} {
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

func TestDefaultMatchesPaper(t *testing.T) {
	if cfg := Default(); cfg.MinHopsReporting != 5 {
		t.Fatalf("defaults = %+v, want the paper's minHops=5", cfg)
	}
	if GossipTo != 2 || gossipFor != 1 || gossipUntil != 1 {
		t.Fatalf("gossipTo=%d gossipFor=%d gossipUntil=%d, want the paper's 2, 1, 1", GossipTo, gossipFor, gossipUntil)
	}
}

func TestName(t *testing.T) {
	if got := New(Default(), xrand.New(1)).Name(); got != "hops-sampling(minHops=5)" {
		t.Fatalf("Name = %q", got)
	}
	if got := New(Config{MinHopsReporting: 3}, xrand.New(1)).Name(); got != "hops-sampling(minHops=3)" {
		t.Fatalf("Name = %q", got)
	}
}

func TestSpreadReachesMostNodes(t *testing.T) {
	// Branching factor 2 with collisions reaches the fraction ρ solving
	// ρ = 1 - e^{-2ρ} ≈ 0.80 on a random graph; allow a generous band.
	net := hetNet(20000, 2)
	e := New(Default(), xrand.New(3))
	initiator, _ := net.RandomPeer(xrand.New(4))
	frac, err := e.ReachedFraction(net, initiator)
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0.6 || frac > 0.98 {
		t.Fatalf("reached fraction = %.2f, want ≈0.8", frac)
	}
}

func TestUnderEstimationBiasMatchesReachedFraction(t *testing.T) {
	// The estimate should track reached/|N| (paper: consistent
	// under-estimation ≈ -20%).
	const n = 20000
	net := hetNet(n, 5)
	e := New(Default(), xrand.New(6))
	initiator, _ := net.RandomPeer(xrand.New(7))
	est, diag, err := e.EstimateFrom(net, initiator)
	if err != nil {
		t.Fatal(err)
	}
	reachedFrac := float64(diag.Reached) / n
	estFrac := est / n
	if math.Abs(estFrac-reachedFrac) > 0.15 {
		t.Fatalf("estimate fraction %.2f vs reached fraction %.2f", estFrac, reachedFrac)
	}
	if estFrac > 1.05 {
		t.Fatalf("HopsSampling over-estimated: %.2f", estFrac)
	}
}

func TestOracleDistancesUnbiased(t *testing.T) {
	// §V's probe: with exact BFS distances the extrapolation recovers the
	// true size. Average over several runs to wash out reply randomness.
	const n = 10000
	net := hetNet(n, 8)
	e := New(Default(), xrand.New(9))
	initiator, _ := net.RandomPeer(xrand.New(10))
	sum := 0.0
	const runs = 20
	for i := 0; i < runs; i++ {
		est, err := e.EstimateWithOracleDistances(net, initiator)
		if err != nil {
			t.Fatal(err)
		}
		sum += est
	}
	mean := sum / runs
	if math.Abs(mean-n)/n > 0.1 {
		t.Fatalf("oracle-distance mean estimate %.0f, truth %d (polling should be unbiased)", mean, n)
	}
}

func TestCloseNodesAlwaysReply(t *testing.T) {
	// With minHopsReporting far above any gossip distance, every reached
	// node replies with probability 1 and weight 1, so the estimate equals
	// the reached count exactly.
	g := graph.Clique(30)
	net := overlay.New(g, 29, nil)
	cfg := Default()
	cfg.MinHopsReporting = 1000
	e := New(cfg, xrand.New(11))
	est, diag, err := e.EstimateFrom(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Fan-out-2 gossip reaches ρ ≈ 0.8 of the nodes even on a clique.
	if diag.Reached < 15 {
		t.Fatalf("reached only %d of 30 on a clique", diag.Reached)
	}
	if diag.Replies != diag.Reached-1 {
		t.Fatalf("replies = %d, want %d", diag.Replies, diag.Reached-1)
	}
	if est != float64(diag.Reached) {
		t.Fatalf("estimate = %g, want %d", est, diag.Reached)
	}
}

func TestOverheadOrderN(t *testing.T) {
	// Text: a single shot costs O(2N) with direct replies. Check the
	// spread alone stays within a small multiple of N.
	const n = 20000
	net := hetNet(n, 15)
	e := New(Default(), xrand.New(16))
	initiator, _ := net.RandomPeer(xrand.New(17))
	if _, _, err := e.EstimateFrom(net, initiator); err != nil {
		t.Fatal(err)
	}
	spread := float64(net.Counter().Count(metrics.KindGossipSpread))
	if spread < 0.5*n || spread > 4*n {
		t.Fatalf("spread cost = %.0f messages, want O(2N) with N=%d", spread, n)
	}
}

func TestEmptyOverlay(t *testing.T) {
	g := graph.NewWithNodes(1)
	g.RemoveNode(0)
	net := overlay.New(g, 10, nil)
	e := New(Default(), xrand.New(18))
	if _, err := e.Estimate(net); !errors.Is(err, ErrEmptyOverlay) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeadInitiator(t *testing.T) {
	net := hetNet(10, 19)
	id, _ := net.RandomPeer(xrand.New(20))
	net.Leave(id)
	e := New(Default(), xrand.New(21))
	if _, _, err := e.EstimateFrom(net, id); err == nil {
		t.Fatal("dead initiator accepted")
	}
	if _, err := e.EstimateWithOracleDistances(net, id); err == nil {
		t.Fatal("dead initiator accepted by oracle probe")
	}
	if _, err := e.ReachedFraction(net, id); err == nil {
		t.Fatal("dead initiator accepted by ReachedFraction")
	}
}

func TestIsolatedInitiator(t *testing.T) {
	g := graph.NewWithNodes(5)
	g.AddEdge(1, 2)
	net := overlay.New(g, 10, nil)
	e := New(Default(), xrand.New(22))
	est, diag, err := e.EstimateFrom(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if est != 1 || diag.Reached != 1 {
		t.Fatalf("isolated initiator: est=%g reached=%d, want 1/1", est, diag.Reached)
	}
}

func TestSpreadStaysInComponent(t *testing.T) {
	g := graph.NewWithNodes(20)
	for i := graph.NodeID(0); i < 9; i++ {
		g.AddEdge(i, i+1) // component 0..9 (path)
	}
	for i := graph.NodeID(10); i < 19; i++ {
		g.AddEdge(i, i+1) // component 10..19
	}
	net := overlay.New(g, 10, nil)
	e := New(Default(), xrand.New(23))
	_, diag, err := e.EstimateFrom(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Reached > 10 {
		t.Fatalf("spread leaked across components: reached %d", diag.Reached)
	}
}

// TestScratchGrowsWithJoins: polls before and after 500 joins on a
// 100-node overlay. When the graph reserved those ids, the first poll
// makes its slot table at the ceiling and the second reuses it; when it
// did not, the table holds a quarter spare and the joins outgrow it.
// The estimates are the same either way.
func TestScratchGrowsWithJoins(t *testing.T) {
	const n, joins = 100, 500
	// poll estimates on net and returns the estimate and the idle slot
	// table the poll handed back (the only one: the list was emptied).
	poll := func(e *Estimator, net *overlay.Network) (float64, []slot) {
		est, err := e.Estimate(net)
		if err != nil {
			t.Fatal(err)
		}
		tb, _ := idle.Get(0)
		idle.Put(tb)
		return est, tb.slots
	}
	var ests [2][2]float64
	for i, reserve := range []bool{true, false} {
		scratch.Drop()
		net := hetNet(n, 26)
		if reserve {
			net.Graph().ReserveIDs(n + joins)
		}
		e := New(Default(), xrand.New(27))
		est, before := poll(e, net)
		rng := xrand.New(28)
		for range joins {
			net.JoinRandomDegree(rng)
		}
		again, after := poll(e, net)
		ests[i] = [2]float64{est, again}
		switch {
		case reserve && (cap(before) != n+joins || &after[0] != &before[0]):
			t.Fatalf("reserved: tables of cap %d then %d (same: %v), want one of the ceiling's %d",
				cap(before), cap(after), &after[0] == &before[0], n+joins)
		case !reserve && (cap(before) != n+n/4 || cap(after) != (n+joins)*5/4):
			t.Fatalf("unreserved: tables of cap %d then %d, want %d then %d", cap(before), cap(after), n+n/4, (n+joins)*5/4)
		}
	}
	if ests[0] != ests[1] {
		t.Fatalf("estimates %v reserved, %v unreserved", ests[0], ests[1])
	}
}

func TestInversePow(t *testing.T) {
	cases := []struct {
		base, exp int
		want      float64
	}{
		{2, 0, 1}, {2, 1, 0.5}, {2, 3, 0.125}, {3, 2, 1.0 / 9},
	}
	for _, c := range cases {
		if got := inversePow(c.base, c.exp); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("inversePow(%d,%d) = %g, want %g", c.base, c.exp, got, c.want)
		}
	}
}

// EstimateWithOracleDistances runs the reporting phase against exact BFS
// distances instead of gossip-derived ones. §V uses exactly this probe
// ("we verified our intuition by giving the accurate distance from the
// initiator to all nodes in the overlay, and the resulting size
// estimation was correct") to show the polling extrapolation itself is
// unbiased.
func (e *Estimator) EstimateWithOracleDistances(net *overlay.Network, initiator graph.NodeID) (float64, error) {
	if !net.Alive(initiator) {
		return 0, fmt.Errorf("hopssampling: initiator %d is not alive", initiator)
	}
	e.borrow(net.Graph())
	defer e.release()
	dist := graph.BFSDistances(net.Graph(), initiator)
	for id, d := range dist {
		if d >= 0 {
			e.slots[id] = slot{dist: d, stamp: e.gen}
		}
	}
	est, _, _ := e.collect(net, initiator)
	return est, nil
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
