package dhtext

import (
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/model"
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
	e := New(xrand.New(2))
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
// truth, with spread near 1/√(16·(k−2)).
func TestStatisticalEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("30 estimations at n=2000")
	}
	const n, runs = 2000, 30
	var r stats.Running
	for i := 0; i < runs; i++ {
		net := hetNet(n, uint64(500+i))
		e := New(xrand.New(uint64(900 + i)))
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
	a, err := New(xrand.New(7)).Estimate(hetNet(1200, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(xrand.New(7)).Estimate(hetNet(1200, 3))
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
	e := New(xrand.New(5))
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
	ref := net.View()
	rng := xrand.New(9)
	if _, err := New(rng).Estimate(net); err != nil {
		t.Fatal(err)
	}
	c := net.Counter()
	// Iterative routing sends one message per distance-halving hop: at
	// least one per lookup, and for 512 peers well under the 64-hop
	// cap. The exact count is the model's for the same draws.
	walks := c.Count(metrics.KindWalk)
	if walks < lookups || walks > lookups*64 {
		t.Fatalf("routing hops = %d, want within [%d, %d]", walks, lookups, lookups*64)
	}
	mrng := xrand.New(9)
	if _, ok := model.DHT(ref, mrng.Uint64(), bucketK, lookups, mrng); !ok {
		t.Fatal("model: no estimate")
	}
	if got, want := walks, ref.Counter().Count(metrics.KindWalk); got != want {
		t.Fatalf("routing hops = %d, model %d", got, want)
	}
	if got, want := c.Count(metrics.KindReply), uint64(lookups*bucketK); got != want {
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
		est, err := New(xrand.New(uint64(n))).Estimate(net)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if est <= 0 || math.IsInf(est, 0) || math.IsNaN(est) {
			t.Fatalf("n=%d: estimate %g", n, est)
		}
	}
	net := overlay.New(graph.New(0), 10, nil)
	if _, err := New(xrand.New(1)).Estimate(net); err != ErrEmptyOverlay {
		t.Fatalf("empty overlay err = %v", err)
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

// TestDegenerateInputs: a clone all but one peer left, and one emptied,
// give a finite estimate or an error — never a panic or a NaN.
func TestDegenerateInputs(t *testing.T) {
	net := hetNet(300, 43).CloneCOW()
	rng := xrand.New(44)
	e := New(xrand.New(45))
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

// TestWarmEstimateAllocatesNothing: once an estimator has made its
// heaps, an estimate allocates nothing, on a 200k overlay where every
// probe narrows: the prefix table is borrowed, not made.
func TestWarmEstimateAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	net := hetNet(200_000, 3)
	e := New(xrand.New(4))
	if allocs := testing.AllocsPerRun(3, func() {
		if _, err := e.Estimate(net); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a warm estimate made %v allocations", allocs)
	}
}

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation allocates.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// BenchmarkKthClosest times one estimate's sweep (kthClosest: 16
// probes, k = 20) over n alive identifiers and reports ns per
// identifier. Past about k·2^prefixBits identifiers every probe is
// narrowed, so the 1M row reads mostly the one-table-entry path and the
// 100k row mostly the wide one. The 1M row is skipped under -short.
func BenchmarkKthClosest(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("alive=%d", n), func(b *testing.B) {
			if n > 100_000 && testing.Short() {
				b.Skip("1M identifiers under -short")
			}
			g := graph.NewWithNodes(n)
			e := New(xrand.New(1))
			for b.Loop() {
				e.targets = e.targets[:0]
				for range lookups {
					e.targets = append(e.targets, e.rng.Uint64())
				}
				e.kthClosest(g, bucketK)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/id")
		})
	}
}
