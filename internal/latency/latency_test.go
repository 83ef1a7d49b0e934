package latency

import (
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/model"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

func hetNet(n int, seed uint64) *overlay.Network {
	return overlay.New(graph.Heterogeneous(n, 10, xrand.New(seed)), 10, nil)
}

func TestEuclideanProperties(t *testing.T) {
	m := NewEuclidean(100, xrand.New(1))
	for u := graph.NodeID(0); u < 100; u++ {
		for v := graph.NodeID(0); v < 100; v += 7 {
			d := m.Delay(u, v)
			if u != v && d <= 0 {
				t.Fatalf("Delay(%d,%d) = %g", u, v, d)
			}
			if got := m.Delay(v, u); got != d {
				t.Fatalf("asymmetric delay %g vs %g", d, got)
			}
			// Bounded by the base delay + the unit square's diagonal.
			if d > baseDelay+math.Sqrt2+1e-9 {
				t.Fatalf("delay %g beyond the square diagonal", d)
			}
		}
	}
	if m.Delay(3, 3) != baseDelay {
		t.Fatalf("self-delay should equal base, got %g", m.Delay(3, 3))
	}
}

func TestEuclideanValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative n": func() { NewEuclidean(-1, xrand.New(1)) },
		"nil rng":    func() { NewEuclidean(10, nil) },
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

func TestEuclideanGrow(t *testing.T) {
	rng := xrand.New(2)
	m := NewEuclidean(5, rng)
	m.Grow(10, rng)
	if d := m.Delay(2, 9); d <= 0 {
		t.Fatalf("Delay after Grow = %g", d)
	}
}

// lineModel makes delays equal to |u-v| for hand-checkable Dijkstra.
type lineModel struct{}

func (lineModel) Delay(u, v graph.NodeID) float64 {
	d := float64(u - v)
	if d < 0 {
		d = -d
	}
	if d == 0 {
		return 0.5
	}
	return d
}

func TestShortestDelaysHandChecked(t *testing.T) {
	// Path 0-1-2-3 plus shortcut 0-3. With lineModel, going 0→3 direct
	// costs 3; going 0→1→2→3 costs 1+1+1 = 3 as well; add shortcut 0-2
	// (cost 2) so 0→2→3 costs 3 too. All equal: check exact values.
	g := graph.NewWithNodes(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(0, 3)
	net := overlay.New(g, 10, nil)
	d := ShortestDelays(net, lineModel{}, 0)
	want := []float64{0, 1, 2, 3}
	for i, w := range want {
		if math.Abs(d[i]-w) > 1e-12 {
			t.Fatalf("d[%d] = %g, want %g", i, d[i], w)
		}
	}
}

func TestShortestDelaysUnreachable(t *testing.T) {
	g := graph.NewWithNodes(4)
	g.AddEdge(0, 1)
	// 2, 3 disconnected.
	net := overlay.New(g, 10, nil)
	d := ShortestDelays(net, lineModel{}, 0)
	if !math.IsInf(d[2], 1) || !math.IsInf(d[3], 1) {
		t.Fatalf("unreachable distances = %v", d)
	}
	// Dead source: everything unreachable.
	g.RemoveNode(0)
	d = ShortestDelays(net, lineModel{}, 0)
	for i, v := range d {
		if !math.IsInf(v, 1) {
			t.Fatalf("d[%d] = %g from dead source", i, v)
		}
	}
}

func TestShortestDelaysMatchBruteForce(t *testing.T) {
	// On a small random graph, Dijkstra must agree with Floyd-Warshall.
	const n = 40
	net := hetNet(n, 3)
	m := NewEuclidean(n, xrand.New(4))
	g := net.Graph()
	const inf = math.MaxFloat64 / 4
	fw := make([][]float64, n)
	for i := range fw {
		fw[i] = make([]float64, n)
		for j := range fw[i] {
			if i == j {
				fw[i][j] = 0
			} else {
				fw[i][j] = inf
			}
		}
	}
	for u := graph.NodeID(0); int(u) < n; u++ {
		for _, v := range g.Neighbors(u) {
			fw[u][v] = m.Delay(u, v)
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if fw[i][k]+fw[k][j] < fw[i][j] {
					fw[i][j] = fw[i][k] + fw[k][j]
				}
			}
		}
	}
	d := ShortestDelays(net, m, 0)
	for j := 0; j < n; j++ {
		if fw[0][j] >= inf {
			if !math.IsInf(d[j], 1) {
				t.Fatalf("node %d should be unreachable", j)
			}
			continue
		}
		if math.Abs(d[j]-fw[0][j]) > 1e-9 {
			t.Fatalf("d[%d] = %g, Floyd-Warshall %g", j, d[j], fw[0][j])
		}
	}
}

func TestPaperDelayConjecture(t *testing.T) {
	// §V: gossip + immediate ACK should beat both the 50 rounds of
	// Aggregation and the 200 sequential samples of Sample&Collide.
	const n = 5000
	net := hetNet(n, 5)
	m := NewEuclidean(net.Graph().NumIDs(), xrand.New(6))
	c, err := CompareAll(net, m, 200, 50, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !(c.HopsSampling < c.Aggregation) {
		t.Fatalf("conjecture violated: hops %.1f !< agg %.1f", c.HopsSampling, c.Aggregation)
	}
	if !(c.HopsSampling < c.SampleCollide) {
		t.Fatalf("conjecture violated: hops %.1f !< s&c %.1f", c.HopsSampling, c.SampleCollide)
	}
	// Sample&Collide's sequential walks dwarf everything (200·T·d̄ hops
	// in a row).
	if c.SampleCollide < c.Aggregation {
		t.Logf("note: s&c %.1f < agg %.1f (acceptable, both >> hops)", c.SampleCollide, c.Aggregation)
	}
}

func TestAggregationLatencyScalesWithRounds(t *testing.T) {
	net := hetNet(500, 8)
	m := NewEuclidean(net.Graph().NumIDs(), xrand.New(9))
	a10, err := Aggregation(net, m, 10, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	a50, err := Aggregation(net, m, 50, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a50/a10-5) > 1e-9 {
		t.Fatalf("rounds scaling: %g / %g", a50, a10)
	}
}

func TestEmptyOverlayErrors(t *testing.T) {
	g := graph.NewWithNodes(1)
	g.RemoveNode(0)
	net := overlay.New(g, 10, nil)
	m := NewEuclidean(1, xrand.New(10))
	if _, err := SampleCollide(net, m, 10, 5, xrand.New(11)); !errors.Is(err, ErrEmptyOverlay) {
		t.Fatalf("sc err = %v", err)
	}
	if _, err := HopsSampling(net, m, 2, 5, xrand.New(12)); !errors.Is(err, ErrEmptyOverlay) {
		t.Fatalf("hops err = %v", err)
	}
	if _, err := Aggregation(net, m, 50, 0.99); !errors.Is(err, ErrEmptyOverlay) {
		t.Fatalf("agg err = %v", err)
	}
}

// TestSampleCollideRejectsBadTimer: a timer that is not positive and
// finite is an error, not a walk that never ends.
func TestSampleCollideRejectsBadTimer(t *testing.T) {
	net := hetNet(100, 17)
	m := NewEuclidean(net.Graph().NumIDs(), xrand.New(18))
	for _, T := range []float64{0, -3, math.NaN(), math.Inf(1)} {
		if _, err := SampleCollide(net, m, T, 5, xrand.New(19)); err == nil {
			t.Errorf("T = %g accepted", T)
		}
	}
}

// TestTimedWalkMatchesLiteralTimer: the countdown-driven walk returns
// the sample and delay of the model's walk with the literal
// t -= Exp(degree) timer and leaves the generator where it does, at the
// paper's T and at a T short enough to end most walks on their first
// hop.
func TestTimedWalkMatchesLiteralTimer(t *testing.T) {
	net := hetNet(500, 20)
	m := NewEuclidean(net.Graph().NumIDs(), xrand.New(21))
	var timer xrand.Countdown
	for _, T := range []float64{10, 0.05} {
		rng, ref := xrand.New(22), xrand.New(22)
		for i := 0; i < 2000; i++ {
			from := graph.NodeID(i % 500)
			s, d := timedWalk(net, m, from, T, rng, &timer)
			wd := 0.0
			ws, _ := model.Walk(net, from, T, ref, func(cur, next graph.NodeID) graph.NodeID {
				wd += m.Delay(cur, next)
				return next
			})
			if s != ws || d != wd || *rng != *ref {
				t.Fatalf("T=%g walk %d: got (%d, %g), literal timer (%d, %g), same generator state %v", T, i, s, d, ws, wd, *rng == *ref)
			}
		}
	}
}

func TestAggregationNoLinks(t *testing.T) {
	g := graph.NewWithNodes(3)
	net := overlay.New(g, 10, nil)
	m := NewEuclidean(3, xrand.New(13))
	if _, err := Aggregation(net, m, 50, 0.99); err == nil {
		t.Fatal("linkless overlay accepted")
	}
}

func TestSampleCollideLatencyGrowsWithL(t *testing.T) {
	net := hetNet(2000, 14)
	m := NewEuclidean(net.Graph().NumIDs(), xrand.New(15))
	l10, err := SampleCollide(net, m, 10, 10, xrand.New(16))
	if err != nil {
		t.Fatal(err)
	}
	l100, err := SampleCollide(net, m, 10, 100, xrand.New(16))
	if err != nil {
		t.Fatal(err)
	}
	if l100 <= l10 {
		t.Fatalf("latency did not grow with l: %g vs %g", l10, l100)
	}
}

// TestGrowAllocatesOnce: extending the per-node coordinate tables to a million
// ids allocates them once, not along append's 1.25x regrowth chain
// (which cost five times the final size, resident until the next GC).
func TestGrowAllocatesOnce(t *testing.T) {
	const n = 1000000
	rng := xrand.New(1)
	m := NewEuclidean(5, rng)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.Grow(n, rng)
	runtime.ReadMemStats(&after)
	final := uint64(n * (8 + 8))
	budget := final * 11 / 10
	if info, ok := debug.ReadBuildInfo(); ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		budget *= 2 // the race detector keeps append's make([]T, k) temporary from being elided
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("growing to %d ids allocated %d bytes for %d bytes of state", n, got, final)
	}
	if len(m.x) != n || len(m.y) != n {
		t.Fatalf("tables hold %d and %d ids, want %d", len(m.x), len(m.y), n)
	}
}

// Grow extends the coordinate table for peers that joined after
// construction.
func (m *Euclidean) Grow(numIDs int, rng *xrand.Rand) {
	// One allocation per table; the draws below still interleave x, y.
	k := max(0, numIDs-len(m.x))
	m.x, m.y = slices.Grow(m.x, k), slices.Grow(m.y, k)
	for len(m.x) < numIDs {
		m.x = append(m.x, rng.Float64())
		m.y = append(m.y, rng.Float64())
	}
}
