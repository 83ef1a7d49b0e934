package samplecollide

import (
	"errors"
	"math"
	"runtime/debug"
	"slices"
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
	cases := []Config{
		{T: 0, L: 10},
		{T: -1, L: 10},
		{T: math.NaN(), L: 10},
		{T: math.Inf(1), L: 10},
		{T: math.Inf(-1), L: 10},
		{T: 10, L: 0},
		{T: 10, L: 10, MaxSamples: -1},
	}
	for _, cfg := range cases {
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
	e := New(Config{T: 10, L: 42}, xrand.New(1))
	if e.Name() != "sample&collide(l=42)" {
		t.Fatalf("Name = %q", e.Name())
	}
	if e.cfg.L != 42 {
		t.Fatal("Config not returned")
	}
}

func TestSamplingUniformityOnHeterogeneousGraph(t *testing.T) {
	// The whole point of the CTRW sampler: despite heterogeneous degrees
	// (1..10), samples must be near-uniform. Chi-squared over 100 nodes,
	// 20000 samples; 99.9% quantile of chi2(99) ≈ 148.2, use slack.
	const n = 100
	net := hetNet(n, 1)
	e := New(Config{T: 10, L: 1}, xrand.New(2))
	initiator, _ := net.RandomPeer(xrand.New(3))
	counts := make([]int, n)
	const draws = 20000
	for i := 0; i < draws; i++ {
		s, err := e.Sample(net, initiator)
		if err != nil {
			t.Fatal(err)
		}
		counts[s]++
	}
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 160 {
		t.Fatalf("sampling not uniform: chi2 = %.1f over %d cells", chi2, n)
	}
}

func TestSamplingBiasWithTinyT(t *testing.T) {
	// With T near zero the walk stops at the first hop, so samples are
	// neighbors of the initiator only — grossly non-uniform. This guards
	// against the test above passing vacuously.
	const n = 100
	net := hetNet(n, 4)
	e := New(Config{T: 1e-9, L: 1}, xrand.New(5))
	initiator, _ := net.RandomPeer(xrand.New(6))
	seen := map[graph.NodeID]bool{}
	for i := 0; i < 2000; i++ {
		s, _ := e.Sample(net, initiator)
		seen[s] = true
	}
	if len(seen) > net.Degree(initiator)+1 {
		t.Fatalf("T→0 sampled %d distinct nodes, expected ≈ degree(initiator)=%d",
			len(seen), net.Degree(initiator))
	}
}

func TestEstimateConcentration(t *testing.T) {
	// With l = 50 on a 2000-node overlay the relative error of a single
	// estimate is ~1/sqrt(50) ≈ 14%; the mean over 10 runs should be well
	// within that of the truth.
	const n = 2000
	net := hetNet(n, 7)
	e := New(Config{T: 10, L: 50}, xrand.New(8))
	sum := 0.0
	const runs = 10
	for i := 0; i < runs; i++ {
		est, err := e.Estimate(net)
		if err != nil {
			t.Fatal(err)
		}
		sum += est
	}
	mean := sum / runs
	if math.Abs(mean-n)/n > 0.15 {
		t.Fatalf("mean estimate %.0f, truth %d", mean, n)
	}
}

func TestSampleCountMatchesBirthdayParadox(t *testing.T) {
	// X ≈ sqrt(2·l·N): with N = 1000 and l = 20, X ≈ 200.
	const n, l = 1000, 20
	net := hetNet(n, 9)
	e := New(Config{T: 10, L: l}, xrand.New(10))
	if _, err := e.Estimate(net); err != nil {
		t.Fatal(err)
	}
	// The number of samples equals the sample-return message count.
	x := float64(net.Counter().Count(metrics.KindSampleReturn))
	want := math.Sqrt(2 * l * n)
	if x < want/2 || x > want*2 {
		t.Fatalf("samples = %.0f, want ≈%.0f", x, want)
	}
}

func TestWalkLengthMatchesTheory(t *testing.T) {
	// Expected hops per sample ≈ T · avgDegree (each hop decrements the
	// timer by Exp(deg), mean 1/deg).
	const n = 3000
	net := hetNet(n, 11)
	avgDeg := graph.AvgDegree(net.Graph())
	e := New(Config{T: 10, L: 5}, xrand.New(12))
	if _, err := e.Estimate(net); err != nil {
		t.Fatal(err)
	}
	walks := float64(net.Counter().Count(metrics.KindWalk))
	samples := float64(net.Counter().Count(metrics.KindSampleReturn))
	hopsPerSample := walks / samples
	want := 10 * avgDeg
	if hopsPerSample < 0.6*want || hopsPerSample > 1.4*want {
		t.Fatalf("hops/sample = %.1f, want ≈%.1f (T·d̄)", hopsPerSample, want)
	}
}

func TestOverheadScalesWithL(t *testing.T) {
	// Paper §IV-E: cost(l=100) ≈ 3.27 × cost(l=10); generally cost ~ sqrt(l).
	const n = 5000
	cost := func(l int) float64 {
		net := hetNet(n, 13)
		e := New(Config{T: 10, L: l}, xrand.New(14))
		if _, err := e.Estimate(net); err != nil {
			t.Fatal(err)
		}
		return float64(net.Counter().Total())
	}
	ratio := cost(100) / cost(10)
	if ratio < 2 || ratio > 5 {
		t.Fatalf("cost(l=100)/cost(l=10) = %.2f, want ≈3.2", ratio)
	}
}

func TestEstimateEmptyOverlay(t *testing.T) {
	g := graph.NewWithNodes(1)
	g.RemoveNode(0)
	net := overlay.New(g, 10, nil)
	e := New(Default(), xrand.New(15))
	if _, err := e.Estimate(net); !errors.Is(err, ErrEmptyOverlay) {
		t.Fatalf("err = %v, want ErrEmptyOverlay", err)
	}
}

func TestEstimateFromDeadInitiator(t *testing.T) {
	net := hetNet(10, 16)
	id, _ := net.RandomPeer(xrand.New(17))
	net.Leave(id)
	e := New(Default(), xrand.New(18))
	if _, err := e.EstimateFrom(net, id); err == nil {
		t.Fatal("dead initiator accepted")
	}
}

func TestIsolatedInitiatorSamplesItself(t *testing.T) {
	g := graph.NewWithNodes(3)
	g.AddEdge(1, 2) // node 0 isolated
	net := overlay.New(g, 10, nil)
	e := New(Config{T: 10, L: 3}, xrand.New(19))
	est, err := e.EstimateFrom(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every sample collides with node 0 itself: X = l+1 = 4, N̂ = 16/6.
	if est > 4 {
		t.Fatalf("isolated initiator estimate = %g, want tiny", est)
	}
}

func TestEstimateSeesOnlyOwnComponent(t *testing.T) {
	// Two disjoint 500-node components; the estimator must report the
	// initiator's component size, not the global size.
	rng := xrand.New(20)
	g := graph.NewWithNodes(1000)
	for c := 0; c < 2; c++ {
		base := graph.NodeID(c * 500)
		for i := graph.NodeID(0); i < 500; i++ {
			for k := 0; k < 4; k++ {
				v := base + graph.NodeID(rng.Intn(500))
				if u := base + i; u != v {
					g.AddEdge(u, v)
				}
			}
		}
	}
	net := overlay.New(g, 10, nil)
	e := New(Config{T: 10, L: 50}, xrand.New(21))
	est, err := e.EstimateFrom(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if est > 800 {
		t.Fatalf("estimate %.0f leaked across components (component size 500)", est)
	}
}

func TestBudgetExhausted(t *testing.T) {
	net := hetNet(1000, 22)
	e := New(Config{T: 10, L: 50, MaxSamples: 3}, xrand.New(23))
	if _, err := e.Estimate(net); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
}

func TestMLECloseToBasic(t *testing.T) {
	const n = 2000
	basic := New(Config{T: 10, L: 100}, xrand.New(24))
	mle := New(Config{T: 10, L: 100, Kind: MLE}, xrand.New(24))
	netA := hetNet(n, 25)
	netB := hetNet(n, 25)
	a, err := basic.Estimate(netA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mle.Estimate(netB)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b)/float64(n) > 0.25 {
		t.Fatalf("basic %.0f and MLE %.0f disagree wildly", a, b)
	}
	if math.Abs(b-n)/n > 0.25 {
		t.Fatalf("MLE estimate %.0f far from truth %d", b, n)
	}
}

func TestMLEDegenerate(t *testing.T) {
	// No collisions recorded: falls back to the distinct count.
	if got := mleEstimate([]int32{0, 1, 2}, 3); got != 3 {
		t.Fatalf("degenerate MLE = %g", got)
	}
}

func TestDeterministicGivenSeeds(t *testing.T) {
	run := func() float64 {
		net := hetNet(500, 26)
		e := New(Config{T: 10, L: 30}, xrand.New(27))
		est, err := e.Estimate(net)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("estimates differ across identical runs: %g vs %g", a, b)
	}
}

// TestScratchReuseMatchesFreshEstimators: one estimator reused for a run
// of estimates on a churning overlay, its seen set and draw record kept
// across them, returns what a fresh estimator handed a by-value copy of
// its generator returns at each step: the same estimate, the same
// messages by kind and the same final generator position. A seen set
// not cleared between estimates would collide on the last estimate's
// nodes; a stale draw record would skew the MLE.
func TestScratchReuseMatchesFreshEstimators(t *testing.T) {
	for _, kind := range []EstimatorKind{Basic, MLE} {
		net := hetNet(3000, 31).CloneCOW()
		churn := xrand.New(32)
		cfg := Config{T: 10, L: 20, Kind: kind}
		reused := New(cfg, xrand.New(33))
		for call := 0; call < 6; call++ {
			rng := *reused.rng
			fresh := New(cfg, &rng)
			a, b := net.View(), net.View()
			got, err := reused.Estimate(a)
			if err != nil {
				t.Fatalf("kind=%d call=%d: %v", kind, call, err)
			}
			want, err := fresh.Estimate(b)
			if err != nil {
				t.Fatalf("kind=%d call=%d: fresh: %v", kind, call, err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("kind=%d call=%d: reused estimator %v, fresh %v", kind, call, got, want)
			}
			if a.Counter().Snapshot() != b.Counter().Snapshot() {
				t.Fatalf("kind=%d call=%d: messages %v, fresh %v", kind, call, a.Counter(), b.Counter())
			}
			if *reused.rng != rng {
				t.Fatalf("kind=%d call=%d: generators diverged", kind, call)
			}
			for i := 0; i < 300; i++ {
				net.LeaveRandom(churn)
			}
			for i := 0; i < 600; i++ {
				net.JoinRandomDegree(churn)
			}
		}
	}
}

// TestWarmEstimateAllocatesNothing: an estimate borrows its seen set,
// its draw record and its walks' clock with the clock's draw history,
// so once one estimate has run, an estimate by a fresh estimator makes
// nothing. Each estimator starts from the same generator state, so no
// estimate outgrows the tables the first one left.
func TestWarmEstimateAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	net := hetNet(3000, 34)
	for _, kind := range []EstimatorKind{Basic, MLE} {
		cfg := Config{T: 10, L: 20, Kind: kind}
		ests := make([]*Estimator, 3)
		for i := range ests {
			ests[i] = New(cfg, xrand.New(35))
		}
		next := 0
		estimate := func() {
			if _, err := ests[next].Estimate(net); err != nil {
				t.Fatal(err)
			}
			next++
		}
		estimate()
		if allocs := testing.AllocsPerRun(1, estimate); allocs != 0 {
			t.Fatalf("kind=%d: a warm estimate by a fresh estimator allocates %.0f times", kind, allocs)
		}
	}
}

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation allocates.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
