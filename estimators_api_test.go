package p2psize

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func TestEstimatorsCatalog(t *testing.T) {
	infos := Estimators()
	if len(infos) < 6 {
		t.Fatalf("catalog lists %d families, want >= 6", len(infos))
	}
	names := map[string]bool{}
	for _, in := range infos {
		names[in.Name] = true
		if in.Snapshot != (in.Name == "idspace") {
			t.Errorf("%s: Snapshot = %v; only idspace is snapshot-based", in.Name, in.Snapshot)
		}
	}
	for _, want := range []string{"samplecollide", "randomtour", "hopssampling", "aggregation", "idspace", "polling"} {
		if !names[want] {
			t.Fatalf("catalog misses %q: %v", want, infos)
		}
	}
	def := DefaultEstimators()
	if len(def) != 4 || def[0] != "samplecollide" || def[3] != "aggregation" {
		t.Fatalf("DefaultEstimators() = %v", def)
	}
}

func TestNewEstimatorByName(t *testing.T) {
	net, err := NewNetwork(NetworkOptions{Nodes: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sc", "hops", "agg", "tour", "poll", "idspace"} {
		e, err := NewEstimatorByName(name, EstimatorConfig{SCL: 50, Seed: 7}, net)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v, err := e.Estimate(net)
		if err != nil {
			t.Fatalf("%s estimate: %v", name, err)
		}
		if v <= 0 {
			t.Fatalf("%s estimate = %g", name, v)
		}
	}
	if _, err := NewEstimatorByName("nope", EstimatorConfig{}, net); err == nil {
		t.Fatal("unknown name accepted")
	}
	// Snapshot-based families need the overlay.
	if _, err := NewEstimatorByName("idspace", EstimatorConfig{}, nil); err == nil {
		t.Fatal("idspace without an overlay accepted")
	}
}

// TestNewEstimatorByNameRejectsBadTimer: a negative, NaN or infinite
// SCTimer is an error naming the field, not a walk that never ends
// (+Inf) or a silent fallback to the default (NaN, −3); 0 still selects
// the paper's T = 10.
func TestNewEstimatorByNameRejectsBadTimer(t *testing.T) {
	net, err := NewNetwork(NetworkOptions{Nodes: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, T := range []float64{-3, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := NewEstimatorByName("sc", EstimatorConfig{SCTimer: T}, net)
		if err == nil || !strings.Contains(err.Error(), "SCTimer") {
			t.Errorf("SCTimer %g: err = %v, want an error naming SCTimer", T, err)
		}
	}
	estimate := func(T float64) float64 {
		e, err := NewEstimatorByName("sc", EstimatorConfig{SCTimer: T, SCL: 20, Seed: 3}, net)
		if err != nil {
			t.Fatalf("SCTimer %g: %v", T, err)
		}
		v, err := e.Estimate(net)
		if err != nil {
			t.Fatalf("SCTimer %g estimate: %v", T, err)
		}
		return v
	}
	if a, b := estimate(0), estimate(10); a != b {
		t.Fatalf("SCTimer 0 estimated %g, SCTimer 10 %g: 0 must mean 10", a, b)
	}
}

// truthByNameEstimator is the custom family registered below.
type truthByNameEstimator struct{}

func (truthByNameEstimator) Name() string { return "truth-custom" }
func (truthByNameEstimator) Estimate(n *Network) (float64, error) {
	return float64(n.Size()), nil
}

func TestRegisterEstimatorEndToEnd(t *testing.T) {
	err := RegisterEstimator(CustomEstimator{
		Name:    "truthcustom",
		Aliases: []string{"tc"},
		Summary: "exact size oracle for tests",
		New:     func(seed uint64) (Estimator, error) { return truthByNameEstimator{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Listed.
	found := false
	for _, in := range Estimators() {
		if in.Name == "truthcustom" {
			found = !in.Snapshot && in.Class == "custom"
		}
	}
	if !found {
		t.Fatal("custom family missing (or mis-flagged) in the catalog")
	}
	// Never snapshot-based, so a live roster may name it.
	if ds, err := clusterRoster([]string{"tc"}); err != nil || len(ds) != 1 || ds[0].Name != "truthcustom" {
		t.Fatalf("clusterRoster(tc) = %v, %v; want the custom family", ds, err)
	}
	// Buildable by alias.
	net, err := NewNetwork(NetworkOptions{Nodes: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEstimatorByName("tc", EstimatorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := e.Estimate(net); err != nil || v != 500 {
		t.Fatalf("custom estimate = %g, %v", v, err)
	}
	// Duplicate registration fails.
	if err := RegisterEstimator(CustomEstimator{Name: "truthcustom",
		New: func(seed uint64) (Estimator, error) { return truthByNameEstimator{}, nil }}); err == nil {
		t.Fatal("duplicate custom registration accepted")
	}
	if err := RegisterEstimator(CustomEstimator{Name: "nofactory"}); err == nil {
		t.Fatal("nil factory accepted")
	}
}

// TestRunMonitorPerEstimatorCadences drives the public per-estimator
// cadence plumbing: a 5x-slower second estimator makes 1/5 of the
// estimations, spends less budget, ages more, and the run stays
// byte-identical at every worker count.
func TestRunMonitorPerEstimatorCadences(t *testing.T) {
	build := func() (*Network, *Trace, []Estimator) {
		net, err := NewNetwork(NetworkOptions{Nodes: 600, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := GenerateTrace(TraceOptions{Nodes: 600, Horizon: 200, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		ests := []Estimator{
			mustEstimator(t, "hopssampling", EstimatorConfig{Seed: 5}),
			mustEstimator(t, "hopssampling", EstimatorConfig{Seed: 6}),
		}
		return net, tr, ests
	}
	runAt := func(workers int) *MonitorResult {
		net, tr, ests := build()
		res, err := RunMonitor(net, tr, ests, MonitorOptions{
			Cadence:    10,
			Cadences:   []float64{0, 50},
			ReplaySeed: 7,
			Workers:    workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := runAt(1)
	fast, slow := res.Tracking(0), res.Tracking(1)
	if fast.Cadence != 10 || slow.Cadence != 50 {
		t.Fatalf("cadences = %g, %g; want 10, 50", fast.Cadence, slow.Cadence)
	}
	if fast.Estimations != 20 || slow.Estimations != 4 {
		t.Fatalf("estimations = %d, %d; want 20, 4", fast.Estimations, slow.Estimations)
	}
	if slow.MsgsPerTimeUnit >= fast.MsgsPerTimeUnit {
		t.Fatalf("slow cadence did not cut the budget: %g vs %g", slow.MsgsPerTimeUnit, fast.MsgsPerTimeUnit)
	}
	if slow.Staleness <= fast.Staleness {
		t.Fatalf("slow cadence did not age the data: %g vs %g", slow.Staleness, fast.Staleness)
	}
	par := runAt(8)
	for k := range res.Names() {
		a, b := res.Estimates(k), par.Estimates(k)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("instance %d diverges at tick %d across worker counts", k, i)
			}
		}
	}
	// Mismatched lengths are rejected.
	net, tr, ests := build()
	if _, err := RunMonitor(net, tr, ests, MonitorOptions{Cadence: 10, Cadences: []float64{1}}); err == nil ||
		!strings.Contains(err.Error(), "Cadences") {
		t.Fatalf("mismatched Cadences err = %v", err)
	}
}

// silencer tries to write the overlay it is handed through the public
// API: every estimate silences a tenth of the peers (ApplyAdversary
// severs their links) and reports the size. It declares nothing;
// declaredSilencer is the same estimator declaring itself observe-only.
type silencer struct{}

func (silencer) Name() string { return "silencer" }
func (silencer) Estimate(n *Network) (float64, error) {
	if _, _, err := n.ApplyAdversary(FaultOptions{SilentFrac: 0.1}, 9); err != nil {
		return 0, err
	}
	return float64(n.Size()), nil
}

type declaredSilencer struct{ silencer }

func (declaredSilencer) MutatesOverlay() bool { return false }

// TestRunMonitorRejectsAnOverlayWriter: an undeclared custom estimator
// that only reads runs like any other, while one that calls
// ApplyAdversary on its read-only Network — declared observe-only or
// not — writes nothing. At every worker count each of its estimates is
// a counted failure of that estimator, the estimators beside it read
// exactly what they read without it, and RunParallel fails naming it;
// the network is left as it was.
func TestRunMonitorRejectsAnOverlayWriter(t *testing.T) {
	build := func() (*Network, *Trace) {
		net, err := NewNetwork(NetworkOptions{Nodes: 600, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := GenerateTrace(TraceOptions{Nodes: 600, Horizon: 100, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		return net, tr
	}
	net, tr := build()
	res, err := RunMonitor(net, tr, []Estimator{truthByNameEstimator{}}, MonitorOptions{Cadence: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups() != 1 || res.Tracking(0).MAE != 0 {
		t.Fatalf("an undeclared reader: %d groups, MAE %g", res.Groups(), res.Tracking(0).MAE)
	}
	readers := func() []Estimator {
		return []Estimator{mustEstimator(t, "hopssampling", EstimatorConfig{Seed: 5}), truthByNameEstimator{}}
	}
	net, tr = build()
	alone, err := RunMonitor(net, tr, readers(), MonitorOptions{Cadence: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		for _, s := range []Estimator{silencer{}, declaredSilencer{}} {
			net, tr := build()
			r := readers()
			ests := []Estimator{r[0], s, r[1]}
			res, err := RunMonitor(net, tr, ests, MonitorOptions{Cadence: 10, Workers: workers})
			if err != nil {
				t.Fatalf("workers %d: RunMonitor err = %v, want the refusal counted as a failure", workers, err)
			}
			if m := res.Tracking(1); m.Estimations != 10 || m.Failures != 10 {
				t.Fatalf("workers %d: the silencer made %d estimations with %d failures, want 10 and 10",
					workers, m.Estimations, m.Failures)
			}
			for k, want := range []int{0, 2} {
				got, base := res.RawEstimates(want), alone.RawEstimates(k)
				if !slices.EqualFunc(got, base, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) ||
					res.Tracking(want).Failures != 0 {
					t.Fatalf("workers %d: %s read %v beside the silencer, %v without it",
						workers, res.Names()[want], got, base)
				}
			}
			_, err = RunParallel(func(int) Estimator { return s }, net, 4, workers)
			if err == nil || !strings.Contains(err.Error(), "of silencer") || !strings.Contains(err.Error(), "ApplyAdversary inside Estimate") {
				t.Fatalf("workers %d: RunParallel err = %v, want the silencer's refused ApplyAdversary", workers, err)
			}
			if net.Size() != 600 || net.LargestComponent() != 600 {
				t.Fatalf("workers %d: the network changed: size %d, largest component %d",
					workers, net.Size(), net.LargestComponent())
			}
		}
	}
}

// TestGenerateTraceParallelWorkers pins the public generation contract:
// every Workers value, 0 (all CPUs) included, gives the same events.
func TestGenerateTraceParallelWorkers(t *testing.T) {
	opts := TraceOptions{Nodes: 5000, Horizon: 500, Sessions: WeibullSessions, Seed: 9}
	var want *Trace
	for _, workers := range []int{0, 1, 8} {
		opts.Workers = workers
		got, err := GenerateTrace(opts)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !slices.Equal(got.tr.Events, want.tr.Events) {
			t.Fatalf("Workers=%d changed the generated trace", workers)
		}
	}
	if len(want.tr.Events) == 0 {
		t.Fatal("the trace has no events")
	}
}
