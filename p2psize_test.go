package p2psize

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

func mustNet(t *testing.T, opts NetworkOptions) *Network {
	t.Helper()
	n, err := NewNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func mustEstimator(t testing.TB, name string, cfg EstimatorConfig) Estimator {
	t.Helper()
	e, err := NewEstimatorByName(name, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewNetworkDefaults(t *testing.T) {
	n := mustNet(t, NetworkOptions{Nodes: 5000, Seed: 1})
	if n.Size() != 5000 {
		t.Fatalf("Size = %d", n.Size())
	}
	// Paper: heterogeneous max 10 → average ≈ 7.2.
	if d := n.AvgDegree(); d < 6 || d > 8.5 {
		t.Fatalf("AvgDegree = %.2f", d)
	}
	if n.MaxObservedDegree() > 10 {
		t.Fatalf("MaxObservedDegree = %d", n.MaxObservedDegree())
	}
	if !n.IsConnected() {
		t.Fatal("default network disconnected")
	}
	if n.Messages() != 0 {
		t.Fatal("fresh network has metered messages")
	}
}

func TestNewNetworkValidation(t *testing.T) {
	bad := []NetworkOptions{
		{Nodes: 0},
		{Nodes: 10, MaxDegree: -1},
		{Nodes: 10, Topology: Homogeneous, MaxDegree: 10},
		{Nodes: 2, Topology: ScaleFree, MaxDegree: 3},
		{Nodes: 2, Topology: Ring},
		{Nodes: 10, Topology: Topology(99)},
	}
	for _, opts := range bad {
		if _, err := NewNetwork(opts); err == nil {
			t.Fatalf("options %+v accepted", opts)
		}
	}
}

// TestNewNetworkRejectsNodesBeyondInt32 asks for more nodes than node
// ids can number; the error must name the option and come before the
// build allocates anything.
func TestNewNetworkRejectsNodesBeyondInt32(t *testing.T) {
	nodes := int64(math.MaxInt32) + 1
	_, err := NewNetwork(NetworkOptions{Nodes: int(nodes)})
	if err == nil || !strings.Contains(err.Error(), "NetworkOptions.Nodes") {
		t.Fatalf("Nodes %d: err = %v", nodes, err)
	}
}

func TestTopologyString(t *testing.T) {
	for topo, want := range map[Topology]string{
		Heterogeneous: "heterogeneous",
		Homogeneous:   "homogeneous",
		ScaleFree:     "scale-free",
		Ring:          "ring",
	} {
		if topo.String() != want {
			t.Fatalf("%d.String() = %q", topo, topo.String())
		}
	}
	if !strings.Contains(Topology(42).String(), "42") {
		t.Fatal("unknown topology string")
	}
}

func TestScaleFreeNetwork(t *testing.T) {
	n := mustNet(t, NetworkOptions{Nodes: 5000, Topology: ScaleFree, Seed: 2})
	if d := n.AvgDegree(); math.Abs(d-6) > 1 {
		t.Fatalf("BA m=3 average degree = %.2f, want ≈6", d)
	}
	if n.MaxObservedDegree() < 50 {
		t.Fatalf("no hub: max degree %d", n.MaxObservedDegree())
	}
	degrees, counts := n.DegreeCounts()
	if len(degrees) == 0 || len(degrees) != len(counts) {
		t.Fatal("DegreeCounts broken")
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a := mustNet(t, NetworkOptions{Nodes: 1000, Seed: 7})
	b := mustNet(t, NetworkOptions{Nodes: 1000, Seed: 7})
	if a.AvgDegree() != b.AvgDegree() {
		t.Fatal("same seed produced different networks")
	}
}

func TestAllEstimatorsOnStaticNetwork(t *testing.T) {
	const size = 3000
	cases := []struct {
		est Estimator
		tol float64
	}{
		{mustEstimator(t, "samplecollide", EstimatorConfig{SCL: 100, Seed: 11}), 0.3},
		{mustEstimator(t, "hopssampling", EstimatorConfig{Seed: 12}), 0.45},
		{mustEstimator(t, "aggregation", EstimatorConfig{Seed: 13}), 0.05},
	}
	for _, c := range cases {
		n := mustNet(t, NetworkOptions{Nodes: size, Seed: 4})
		got, err := c.est.Estimate(n)
		if err != nil {
			t.Fatalf("%s: %v", c.est.Name(), err)
		}
		if math.Abs(got-size)/size > c.tol {
			t.Fatalf("%s estimate %.0f, truth %d", c.est.Name(), got, size)
		}
		if n.Messages() == 0 {
			t.Fatalf("%s metered no messages", c.est.Name())
		}
	}
}

func TestEstimatorNamesAndOptions(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  EstimatorConfig
		want string
	}{
		{"samplecollide", EstimatorConfig{SCL: 10}, "l=10"},
		{"hopssampling", EstimatorConfig{MinHops: 3}, "minHops=3"},
		{"aggregation", EstimatorConfig{Rounds: 40}, "rounds=40"},
	} {
		if name := mustEstimator(t, c.name, c.cfg).Name(); !strings.Contains(name, c.want) {
			t.Fatalf("name = %q", name)
		}
	}
}

func TestMLEOption(t *testing.T) {
	n := mustNet(t, NetworkOptions{Nodes: 2000, Seed: 5})
	est := mustEstimator(t, "samplecollide", EstimatorConfig{SCL: 100, SCMLE: true, Seed: 14})
	got, err := est.Estimate(n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2000)/2000 > 0.3 {
		t.Fatalf("MLE estimate %.0f", got)
	}
}

func TestMessagesByKind(t *testing.T) {
	n := mustNet(t, NetworkOptions{Nodes: 500, Seed: 6})
	if _, err := mustEstimator(t, "samplecollide", EstimatorConfig{SCL: 20, Seed: 15}).Estimate(n); err != nil {
		t.Fatal(err)
	}
	byKind := n.MessagesByKind()
	if byKind["walk"] == 0 || byKind["sample-return"] == 0 {
		t.Fatalf("MessagesByKind = %v", byKind)
	}
	n.ResetMessages()
	if n.Messages() != 0 {
		t.Fatal("ResetMessages did not clear")
	}
}

func TestSmoothedEstimator(t *testing.T) {
	n := mustNet(t, NetworkOptions{Nodes: 2000, Seed: 8})
	raw, err := RunRepeated(mustEstimator(t, "samplecollide", EstimatorConfig{SCL: 20, Seed: 16}), n, 20)
	if err != nil {
		t.Fatal(err)
	}
	vals := SmoothLastK(raw, 10)
	// The smoothed tail must be closer to truth than the worst raw run
	// typically is; just check it is plausible.
	last := vals[len(vals)-1]
	if math.Abs(last-2000)/2000 > 0.25 {
		t.Fatalf("smoothed estimate %.0f", last)
	}
	sum := 0.0
	for _, v := range raw[10:] {
		sum += v
	}
	if want := sum / 10; math.Abs(last-want) > 1e-9*want {
		t.Fatalf("last value %g is not the mean %g of the last 10 raw runs", last, want)
	}
	if def := SmoothLastK(raw, 0); !slices.Equal(def, vals) {
		t.Fatal("SmoothLastK default k != 10")
	}
}

func TestRunRepeatedValidation(t *testing.T) {
	n := mustNet(t, NetworkOptions{Nodes: 100, Seed: 9})
	if _, err := RunRepeated(mustEstimator(t, "samplecollide", EstimatorConfig{SCL: 5, Seed: 17}), n, 0); err == nil {
		t.Fatal("runs=0 accepted")
	}
}

// TestRunRepeatedRejectsNil / TestRunParallelRejectsNil: public input
// yields an error, not a nil dereference (inside the worker pool, in
// the factory case).
func TestRunRepeatedRejectsNil(t *testing.T) {
	n := mustNet(t, NetworkOptions{Nodes: 100, Seed: 9})
	if _, err := RunRepeated(nil, n, 1); err == nil || !strings.HasPrefix(err.Error(), "p2psize:") {
		t.Fatalf("nil estimator: err = %v", err)
	}
	if _, err := RunRepeated(mustEstimator(t, "polling", EstimatorConfig{Seed: 1}), nil, 1); err == nil || !strings.HasPrefix(err.Error(), "p2psize:") {
		t.Fatalf("nil network: err = %v", err)
	}
}

func TestRunParallelRejectsNil(t *testing.T) {
	n := mustNet(t, NetworkOptions{Nodes: 100, Seed: 9})
	// mk runs on RunParallel's workers, where t.Fatal must not be called.
	mk := func(run int) Estimator {
		e, err := NewEstimatorByName("polling", EstimatorConfig{Seed: uint64(run)}, nil)
		if err != nil {
			t.Error(err)
		}
		return e
	}
	if _, err := RunParallel(mk, nil, 2, 2); err == nil || !strings.HasPrefix(err.Error(), "p2psize:") {
		t.Fatalf("nil network: err = %v", err)
	}
	if _, err := RunParallel(nil, n, 2, 2); err == nil || !strings.HasPrefix(err.Error(), "p2psize:") {
		t.Fatalf("nil factory: err = %v", err)
	}
	for _, workers := range []int{1, 2} {
		_, err := RunParallel(func(int) Estimator { return nil }, n, 2, workers)
		if err == nil || !strings.HasPrefix(err.Error(), "p2psize:") || !strings.Contains(err.Error(), "factory returned nil") {
			t.Fatalf("workers=%d, factory returning nil: err = %v", workers, err)
		}
	}
	if vals, err := RunParallel(mk, n, 2, 2); err != nil || len(vals) != 2 {
		t.Fatalf("valid call: %v, err %v", vals, err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	n := mustNet(t, NetworkOptions{Nodes: 800, Seed: 10})
	var buf bytes.Buffer
	if err := n.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadNetwork(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != 800 || loaded.AvgDegree() != n.AvgDegree() {
		t.Fatalf("loaded size %d avg %.2f", loaded.Size(), loaded.AvgDegree())
	}
	if _, err := LoadNetwork(strings.NewReader("garbage"), 0); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

func TestRingTopology(t *testing.T) {
	n := mustNet(t, NetworkOptions{Nodes: 100, Topology: Ring, Seed: 11})
	if n.AvgDegree() != 2 {
		t.Fatalf("ring avg degree = %g", n.AvgDegree())
	}
	// Sampling on a ring needs a huge T to mix; with the default T the
	// estimate is biased but the call must still work.
	if _, err := mustEstimator(t, "samplecollide", EstimatorConfig{SCL: 5, Seed: 18}).Estimate(n); err != nil {
		t.Fatal(err)
	}
}

func TestHomogeneousTopology(t *testing.T) {
	n := mustNet(t, NetworkOptions{Nodes: 2000, Topology: Homogeneous, MaxDegree: 8, Seed: 12})
	if d := n.AvgDegree(); math.Abs(d-8) > 0.5 {
		t.Fatalf("homogeneous avg degree = %.2f", d)
	}
}

func TestSmallWorldTopology(t *testing.T) {
	n := mustNet(t, NetworkOptions{Nodes: 3000, Topology: SmallWorld, Seed: 15})
	// Default lattice k=4 → degree ≈8.
	if d := n.AvgDegree(); math.Abs(d-8) > 0.2 {
		t.Fatalf("small-world avg degree = %.2f, want ≈8", d)
	}
	if !n.IsConnected() {
		t.Fatal("small-world disconnected")
	}
	if SmallWorld.String() != "small-world" {
		t.Fatalf("String = %q", SmallWorld.String())
	}
	// Estimators work on it (the generally-applicable claim).
	est := mustEstimator(t, "samplecollide", EstimatorConfig{SCL: 100, Seed: 22})
	got, err := est.Estimate(n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-3000)/3000 > 0.35 {
		t.Fatalf("estimate %.0f on small world", got)
	}
	// Validation paths.
	if _, err := NewNetwork(NetworkOptions{Nodes: 5, Topology: SmallWorld, MaxDegree: 4}); err == nil {
		t.Fatal("tiny small world accepted")
	}
	if _, err := NewNetwork(NetworkOptions{Nodes: 100, Topology: SmallWorld, RewireProb: 2}); err == nil {
		t.Fatal("RewireProb > 1 accepted")
	}
}

func TestRandomTourEstimator(t *testing.T) {
	const size = 500
	n := mustNet(t, NetworkOptions{Nodes: size, Seed: 13})
	est := mustEstimator(t, "randomtour", EstimatorConfig{Tours: 200, Seed: 19})
	if !strings.Contains(est.Name(), "tours=200") {
		t.Fatalf("name = %q", est.Name())
	}
	got, err := est.Estimate(n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-size)/size > 0.3 {
		t.Fatalf("random tour estimate %.0f, truth %d", got, size)
	}
	if n.Messages() == 0 {
		t.Fatal("no messages metered")
	}
}

func TestPollingEstimator(t *testing.T) {
	const size = 4000
	n := mustNet(t, NetworkOptions{Nodes: size, Seed: 14})
	est := mustEstimator(t, "polling", EstimatorConfig{Seed: 20})
	if !strings.Contains(est.Name(), "p=0.01") {
		t.Fatalf("name = %q", est.Name())
	}
	sum := 0.0
	for i := 0; i < 5; i++ {
		got, err := est.Estimate(n)
		if err != nil {
			t.Fatal(err)
		}
		sum += got
	}
	if mean := sum / 5; math.Abs(mean-size)/size > 0.1 {
		t.Fatalf("polling mean estimate %.0f, truth %d", mean, size)
	}
}

func TestLoadNetworkRejectsNegativeMaxDegree(t *testing.T) {
	var buf bytes.Buffer
	if err := mustNet(t, NetworkOptions{Nodes: 50, Seed: 1}).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadNetwork(&buf, -5); err == nil || !strings.Contains(err.Error(), "maxDegree") {
		t.Fatalf("LoadNetwork(maxDegree -5) = %v, want an error naming maxDegree", err)
	}
}

func TestApplyFaultsRejectsNilEstimator(t *testing.T) {
	if _, err := ApplyFaults(nil, FaultOptions{Drop: 0.1}, 1); err == nil || !strings.Contains(err.Error(), "estimator") {
		t.Fatalf("ApplyFaults(nil) = %v, want an error naming the estimator", err)
	}
}

func TestSmallWorldRejectsNaNRewireProb(t *testing.T) {
	_, err := NewNetwork(NetworkOptions{Nodes: 100, Topology: SmallWorld, RewireProb: math.NaN()})
	if err == nil || !strings.Contains(err.Error(), "RewireProb") {
		t.Fatalf("RewireProb NaN: %v, want an error naming RewireProb", err)
	}
}

// TestEWMAOutOfRangeAlphaIsAnError: a NaN or out-of-range alpha fails
// RunMonitor with an error naming it, instead of running under another
// weight than the one asked for; 0 selects the default 0.3.
func TestEWMAOutOfRangeAlphaIsAnError(t *testing.T) {
	tr, err := GenerateTrace(TraceOptions{Nodes: 300, Horizon: 100, Sessions: WeibullSessions, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	run := func(alpha float64) ([]float64, error) {
		net := mustNet(t, NetworkOptions{Nodes: 300, Seed: 2})
		ests := []Estimator{mustEstimator(t, "samplecollide", EstimatorConfig{SCL: 20, Seed: 3})}
		res, err := RunMonitor(net, tr, ests, MonitorOptions{Cadence: 20, Policy: EWMASmoothing, Alpha: alpha, ReplaySeed: 4})
		if err != nil {
			return nil, err
		}
		return res.Estimates(0), nil
	}
	for _, alpha := range []float64{math.NaN(), 7, -0.3} {
		if _, err := run(alpha); err == nil || !strings.Contains(err.Error(), "alpha") {
			t.Errorf("Alpha %g: err = %v, want an error naming alpha", alpha, err)
		}
	}
	got, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := run(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 || !slices.Equal(got, want) {
		t.Fatalf("Alpha 0 smoothed to %v, the default 0.3 to %v", got, want)
	}
}
