package dhtext

import (
	"math"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/stats"
	"p2psize/internal/xrand"
)

func hetNet(n int, seed uint64) *overlay.Network {
	return overlay.New(graph.Heterogeneous(n, 10, xrand.New(seed)), 10, nil)
}

func TestEstimatePlausible(t *testing.T) {
	const n = 2000
	net := hetNet(n, 1)
	e := New(Default(), xrand.New(2))
	est, err := e.Estimate(net)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est/n-1) > 0.30 {
		t.Fatalf("estimate %.1f off truth %d beyond the single-shot envelope", est, n)
	}
}

// TestStatisticalEnvelope is the paper-style bias check: the per-probe
// estimator (k−1)·2^64/d(k) is exactly unbiased for uniform
// identifiers, so over 30 seeded estimations on fresh overlays (fresh
// salts, fresh targets) the mean must sit within a few percent of the
// truth, with spread near 1/√(Probes·(k−2)).
func TestStatisticalEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("30 estimations at n=2000")
	}
	const n, runs = 2000, 30
	var r stats.Running
	for i := 0; i < runs; i++ {
		net := hetNet(n, uint64(500+i))
		e := New(Default(), xrand.New(uint64(900+i)))
		est, err := e.Estimate(net)
		if err != nil {
			t.Fatal(err)
		}
		r.Add(est)
	}
	if math.Abs(r.Mean()/n-1) > 0.05 {
		t.Fatalf("mean estimate %.1f off truth %d by more than 5%%", r.Mean(), n)
	}
	if r.StdDev() == 0 {
		t.Fatal("zero spread across independent runs")
	}
	if r.StdDev()/r.Mean() > 0.15 {
		t.Fatalf("relative spread %.3f beyond the order-statistic envelope", r.StdDev()/r.Mean())
	}
}

func TestDeterministicForEqualSeeds(t *testing.T) {
	a, err := New(Default(), xrand.New(7)).Estimate(hetNet(1200, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Default(), xrand.New(7)).Estimate(hetNet(1200, 3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("equal seeds gave %g and %g", a, b)
	}
}

func TestSoundUnderChurn(t *testing.T) {
	// The identifiers are hashed from stable node IDs, so no state
	// goes stale when membership changes — the property that lets the
	// family monitor (unlike the snapshot-based idspace ring).
	net := hetNet(1000, 4)
	e := New(Default(), xrand.New(5))
	if _, err := e.Estimate(net); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(6)
	for i := 0; i < 400; i++ {
		net.LeaveRandom(rng)
	}
	for i := 0; i < 100; i++ {
		net.JoinRandomDegree(rng)
	}
	truth := float64(net.Size())
	var r stats.Running
	for i := 0; i < 10; i++ {
		est, err := e.Estimate(net)
		if err != nil {
			t.Fatal(err)
		}
		r.Add(est)
	}
	if math.Abs(r.Mean()/truth-1) > 0.10 {
		t.Fatalf("post-churn mean %.1f off truth %.0f by more than 10%%", r.Mean(), truth)
	}
}

func TestMessagesMetered(t *testing.T) {
	const n = 512
	net := hetNet(n, 8)
	cfg := Config{K: 10, Probes: 4}
	if _, err := New(cfg, xrand.New(9)).Estimate(net); err != nil {
		t.Fatal(err)
	}
	c := net.Counter()
	// Iterative routing sends one message per distance-halving hop: at
	// least one per probe, and for 512 peers well under the 64-hop cap.
	// The exact count is a deterministic function of the seed (golden).
	walks := c.Count(metrics.KindWalk)
	if walks < 4 || walks > 4*64 {
		t.Fatalf("routing hops = %d, want within [4, %d]", walks, 4*64)
	}
	if got, want := walks, uint64(21); got != want {
		t.Fatalf("routing hops = %d, want golden %d (seed 9)", got, want)
	}
	if got, want := c.Count(metrics.KindReply), uint64(4*10); got != want {
		t.Fatalf("closest-set replies = %d, want %d", got, want)
	}
}

func TestTinyOverlays(t *testing.T) {
	for n := 1; n <= 4; n++ {
		g := graph.NewWithNodes(n)
		for i := 1; i < n; i++ {
			g.AddEdge(graph.NodeID(0), graph.NodeID(i))
		}
		net := overlay.New(g, 10, nil)
		est, err := New(Default(), xrand.New(uint64(n))).Estimate(net)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if est <= 0 || math.IsInf(est, 0) || math.IsNaN(est) {
			t.Fatalf("n=%d: estimate %g", n, est)
		}
	}
	net := overlay.New(graph.New(0), 10, nil)
	if _, err := New(Default(), xrand.New(1)).Estimate(net); err != ErrEmptyOverlay {
		t.Fatalf("empty overlay err = %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{{K: 1, Probes: 1}, {K: 2, Probes: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v did not panic", cfg)
				}
			}()
			New(cfg, xrand.New(1))
		}()
	}
}

// TestDegenerateInputs: a clone all but one peer left, and one emptied,
// give a finite estimate or an error — never a panic or a NaN.
func TestDegenerateInputs(t *testing.T) {
	net := hetNet(300, 43).CloneCOW()
	rng := xrand.New(44)
	e := New(Default(), xrand.New(45))
	for net.Size() > 0 {
		est, err := e.Estimate(net)
		if err != nil || math.IsNaN(est) || math.IsInf(est, 0) || est <= 0 {
			t.Fatalf("n=%d: estimate %v err %v", net.Size(), est, err)
		}
		if net.Size() == 1 {
			net.Leave(net.Graph().AliveAt(0))
		} else {
			net.LeaveRandom(rng)
		}
	}
	if _, err := e.Estimate(net); err != ErrEmptyOverlay {
		t.Fatalf("emptied clone: err %v, want ErrEmptyOverlay", err)
	}
}
