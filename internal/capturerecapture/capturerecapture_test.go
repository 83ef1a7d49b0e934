package capturerecapture

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

func TestChapmanFormula(t *testing.T) {
	// 100 marked, 100 recaptured, 9 overlaps: (101·101)/10 − 1.
	if got, want := Chapman(100, 100, 9), 101.0*101/10-1; got != want {
		t.Fatalf("Chapman = %g, want %g", got, want)
	}
	// m = 0 stays finite — the correction's point.
	if got := Chapman(50, 50, 0); math.IsInf(got, 0) || got != 51*51-1 {
		t.Fatalf("Chapman at m=0 = %g", got)
	}
}

func TestEstimatePlausible(t *testing.T) {
	const n = 2000
	net := hetNet(n, 1)
	e := New(xrand.New(2))
	est, err := e.Estimate(net)
	if err != nil {
		t.Fatal(err)
	}
	if est < float64(n)/2 || est > float64(n)*2 {
		t.Fatalf("estimate %.1f implausible for %d nodes", est, n)
	}
}

// TestStatisticalEnvelope is the paper-style bias check: over 30 seeded
// estimations on fresh overlays, the mean sits within a modest envelope
// of the truth (the per-run error is ~1/√m ≈ 15% at these sizes, so
// the 30-run mean should land within a few percent).
func TestStatisticalEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("30 estimations at n=2000")
	}
	const n, runs = 2000, 30
	var r stats.Running
	for i := 0; i < runs; i++ {
		net := hetNet(n, uint64(400+i))
		e := New(xrand.New(uint64(800 + i)))
		est, err := e.Estimate(net)
		if err != nil {
			t.Fatal(err)
		}
		r.Add(est)
	}
	if math.Abs(r.Mean()/n-1) > 0.10 {
		t.Fatalf("mean estimate %.1f off truth %d by more than 10%%", r.Mean(), n)
	}
	if r.StdDev() == 0 {
		t.Fatal("zero spread across independent runs")
	}
	if r.StdDev()/r.Mean() > 0.35 {
		t.Fatalf("relative spread %.3f far beyond the 1/√m envelope", r.StdDev()/r.Mean())
	}
}

func TestDeterministicForEqualSeeds(t *testing.T) {
	a, err := New(xrand.New(9)).Estimate(hetNet(1000, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(xrand.New(9)).Estimate(hetNet(1000, 3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("equal seeds gave %g and %g", a, b)
	}
}

func TestMessagesMetered(t *testing.T) {
	net := hetNet(500, 4)
	e := New(xrand.New(5))
	if _, err := e.Estimate(net); err != nil {
		t.Fatal(err)
	}
	c := net.Counter()
	if c.Count(metrics.KindWalk) == 0 {
		t.Fatal("no walk hops metered")
	}
	// One sample-return per walk draw.
	if got := c.Count(metrics.KindSampleReturn); got != marks+recaptures {
		t.Fatalf("sample returns = %d, want %d", got, marks+recaptures)
	}
	// One control message per distinct mark: at most one per capture
	// draw, and on 500 peers fewer (300 draws collide).
	if got := c.Count(metrics.KindControl); got == 0 || got >= marks {
		t.Fatalf("mark control messages = %d, want in (0, %d)", got, marks)
	}
}

func TestEmptyOverlayErrors(t *testing.T) {
	net := overlay.New(graph.New(0), 10, nil)
	if _, err := New(xrand.New(1)).Estimate(net); err != ErrEmptyOverlay {
		t.Fatalf("err = %v, want ErrEmptyOverlay", err)
	}
}

func TestSingletonOverlay(t *testing.T) {
	// A lone isolated peer samples itself in both phases: n1 = 1,
	// m = recaptures, and Chapman collapses to exactly 1.
	g := graph.NewWithNodes(1)
	net := overlay.New(g, 10, nil)
	est, err := New(xrand.New(6)).Estimate(net)
	if err != nil {
		t.Fatal(err)
	}
	if est != 1 {
		t.Fatalf("singleton estimate = %g, want 1", est)
	}
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
