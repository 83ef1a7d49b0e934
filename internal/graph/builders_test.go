package graph

import (
	"math"
	"testing"

	"p2psize/internal/stats"
	"p2psize/internal/xrand"
)

func TestHeterogeneousMatchesPaperParameters(t *testing.T) {
	// §IV-A: max 10 neighbors leads to an average of approximately 7.2.
	rng := xrand.New(1)
	g := Heterogeneous(20000, 10, rng)
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if g.NumAlive() != 20000 {
		t.Fatalf("NumAlive = %d", g.NumAlive())
	}
	avg := AvgDegree(g)
	if avg < 6.2 || avg > 8.2 {
		t.Fatalf("average degree = %.2f, paper reports ≈7.2", avg)
	}
	if max := MaxDegree(g); max > 10 {
		t.Fatalf("max degree = %d, cap is 10", max)
	}
	// Every node got at least its minimum of one neighbor; the graph
	// should be overwhelmingly one component.
	if lc := LargestComponent(g); float64(lc) < 0.99*20000 {
		t.Fatalf("largest component %d of 20000", lc)
	}
	minDeg := 11
	g.ForEachAlive(func(id NodeID) {
		if d := g.Degree(id); d < minDeg {
			minDeg = d
		}
	})
	if minDeg < 1 {
		t.Fatalf("isolated node in heterogeneous graph")
	}
}

func TestHeterogeneousDeterministic(t *testing.T) {
	a := Heterogeneous(500, 10, xrand.New(7))
	b := Heterogeneous(500, 10, xrand.New(7))
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed, different edges: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for id := NodeID(0); int(id) < 500; id++ {
		if a.Degree(id) != b.Degree(id) {
			t.Fatalf("node %d degree differs", id)
		}
	}
}

func TestHeterogeneousPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"n=0":      func() { Heterogeneous(0, 10, xrand.New(1)) },
		"maxDeg=0": func() { Heterogeneous(10, 0, xrand.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestHomogeneous(t *testing.T) {
	rng := xrand.New(3)
	g := Homogeneous(2000, 8, rng)
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Nearly every node should reach exactly degree 8.
	atTarget := 0
	g.ForEachAlive(func(id NodeID) {
		d := g.Degree(id)
		if d > 8 {
			t.Fatalf("degree %d exceeds cap", d)
		}
		if d == 8 {
			atTarget++
		}
	})
	if float64(atTarget) < 0.95*2000 {
		t.Fatalf("only %d/2000 nodes at target degree", atTarget)
	}
	if !IsConnected(g) {
		t.Fatal("homogeneous k=8 graph disconnected")
	}
}

func TestHomogeneousPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Homogeneous(5, 5) did not panic")
		}
	}()
	Homogeneous(5, 5, xrand.New(1))
}

func TestBarabasiAlbertShape(t *testing.T) {
	rng := xrand.New(5)
	const n, m = 20000, 3
	g := BarabasiAlbert(n, m, rng)
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Average degree ≈ 2m (paper Fig 7: m=3, average ≈6).
	avg := AvgDegree(g)
	if math.Abs(avg-2*m) > 0.5 {
		t.Fatalf("BA average degree = %.2f, want ≈%d", avg, 2*m)
	}
	// Minimum degree m.
	g.ForEachAlive(func(id NodeID) {
		if g.Degree(id) < m {
			t.Fatalf("node %d has degree %d < m", id, g.Degree(id))
		}
	})
	// Heavy tail: the hub should be far above average (paper: 1177 at
	// n=100k; at 20k expect several hundred).
	if max := MaxDegree(g); max < 100 {
		t.Fatalf("BA max degree = %d, expected a heavy-tailed hub", max)
	}
	if !IsConnected(g) {
		t.Fatal("BA graph disconnected")
	}
}

func TestBarabasiAlbertPowerLawTail(t *testing.T) {
	// The CCDF of a BA graph follows P(D >= d) ~ d^-2. Fit the log-log
	// slope over the mid range and check it is clearly negative and in a
	// plausible band.
	g := BarabasiAlbert(30000, 3, xrand.New(9))
	values, frac := DegreeHistogram(g).CCDF()
	var lx, ly []float64
	for i, v := range values {
		if v >= 3 && v <= 100 && frac[i] > 0 {
			lx = append(lx, math.Log(float64(v)))
			ly = append(ly, math.Log(frac[i]))
		}
	}
	if len(lx) < 10 {
		t.Fatalf("too few tail points: %d", len(lx))
	}
	slope := fitSlope(lx, ly)
	if slope > -1.2 || slope < -3.0 {
		t.Fatalf("CCDF log-log slope = %.2f, want ≈ -2", slope)
	}
}

func fitSlope(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

func TestBarabasiAlbertPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"m=0":   func() { BarabasiAlbert(10, 0, xrand.New(1)) },
		"n<m+1": func() { BarabasiAlbert(3, 3, xrand.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRing(t *testing.T) {
	g := Ring(10)
	if g.NumEdges() != 10 {
		t.Fatalf("ring edges = %d", g.NumEdges())
	}
	g.ForEachAlive(func(id NodeID) {
		if g.Degree(id) != 2 {
			t.Fatalf("ring node %d degree %d", id, g.Degree(id))
		}
	})
	if !IsConnected(g) {
		t.Fatal("ring disconnected")
	}
	if d := ApproxDiameter(g, xrand.New(1)); d != 5 {
		t.Fatalf("ring(10) diameter = %d, want 5", d)
	}
}

func TestClique(t *testing.T) {
	g := Clique(6)
	if g.NumEdges() != 15 {
		t.Fatalf("clique edges = %d", g.NumEdges())
	}
	if c := ClusteringCoefficient(g, 100, xrand.New(1)); math.Abs(c-1) > 1e-9 {
		t.Fatalf("clique clustering = %g", c)
	}
}

func TestWattsStrogatzLattice(t *testing.T) {
	// beta = 0: pure ring lattice, every node has degree exactly 2k,
	// clustering is high, diameter is ~n/(2k).
	g := WattsStrogatz(200, 3, 0, xrand.New(20))
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	g.ForEachAlive(func(id NodeID) {
		if g.Degree(id) != 6 {
			t.Fatalf("lattice node %d degree %d, want 6", id, g.Degree(id))
		}
	})
	if !IsConnected(g) {
		t.Fatal("lattice disconnected")
	}
	cLattice := ClusteringCoefficient(g, 1<<30, xrand.New(21))
	// Ring lattice with k=3: local clustering = 3(k-1)/(2(2k-1)) = 0.6.
	if math.Abs(cLattice-0.6) > 0.01 {
		t.Fatalf("lattice clustering = %.3f, want 0.6", cLattice)
	}
}

func TestWattsStrogatzSmallWorldRegime(t *testing.T) {
	// Small beta: clustering stays near the lattice value while the
	// diameter collapses — the defining small-world property.
	const n, k = 1000, 3
	lattice := WattsStrogatz(n, k, 0, xrand.New(22))
	small := WattsStrogatz(n, k, 0.1, xrand.New(23))
	if err := small.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	dLattice := ApproxDiameter(lattice, xrand.New(24))
	dSmall := ApproxDiameter(small, xrand.New(25))
	if dSmall*4 > dLattice {
		t.Fatalf("diameter %d not far below lattice's %d", dSmall, dLattice)
	}
	cSmall := ClusteringCoefficient(small, 500, xrand.New(26))
	cRandom := ClusteringCoefficient(WattsStrogatz(n, k, 1, xrand.New(27)), 500, xrand.New(28))
	if cSmall < 3*cRandom {
		t.Fatalf("small-world clustering %.3f not well above random's %.3f", cSmall, cRandom)
	}
}

func TestWattsStrogatzDegreeMassPreserved(t *testing.T) {
	// Rewiring moves edges but never loses them (best-effort fallback
	// keeps the lattice edge), so |E| = n·k at any beta.
	for _, beta := range []float64{0, 0.3, 1} {
		g := WattsStrogatz(400, 2, beta, xrand.New(29))
		// A rewired edge can collide with a later lattice edge, losing a
		// handful of edges; require > 99.5% of the nominal n·k.
		if g.NumEdges() < 796 || g.NumEdges() > 800 {
			t.Fatalf("beta=%g edges = %d, want ≈800", beta, g.NumEdges())
		}
	}
}

func TestWattsStrogatzPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"n<3":    func() { WattsStrogatz(2, 1, 0.1, xrand.New(1)) },
		"k=0":    func() { WattsStrogatz(10, 0, 0.1, xrand.New(1)) },
		"2k>=n":  func() { WattsStrogatz(10, 5, 0.1, xrand.New(1)) },
		"beta<0": func() { WattsStrogatz(10, 2, -0.1, xrand.New(1)) },
		"beta>1": func() { WattsStrogatz(10, 2, 1.1, xrand.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEstimatorsOnSmallWorld(t *testing.T) {
	// The generally-applicable claim: Sample&Collide needs no topology
	// assumptions, so it should be accurate on the small-world graph too.
	g := WattsStrogatz(3000, 4, 0.2, xrand.New(30))
	var hist stats.IntHistogram
	g.ForEachAlive(func(id NodeID) { hist.Add(g.Degree(id)) })
	if math.Abs(hist.Mean()-8) > 0.05 {
		t.Fatalf("average degree %.2f, want ≈8", hist.Mean())
	}
}

func TestBarabasiAlbertRunToRunDeterminism(t *testing.T) {
	// Regression: edge insertion once followed map iteration order, so two
	// identically seeded builds produced different adjacency orders (and
	// therefore different neighbor draws downstream).
	a := BarabasiAlbert(2000, 3, xrand.New(21))
	b := BarabasiAlbert(2000, 3, xrand.New(21))
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for id := NodeID(0); int(id) < a.NumIDs(); id++ {
		na, nb := a.Neighbors(id), b.Neighbors(id)
		if len(na) != len(nb) {
			t.Fatalf("degree differs at %d", id)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("adjacency order differs at node %d slot %d", id, i)
			}
		}
	}
}
