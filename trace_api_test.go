package p2psize

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestGenerateTraceAndMonitor(t *testing.T) {
	const n = 500
	tr, err := GenerateTrace(TraceOptions{
		Nodes:    n,
		Horizon:  200,
		Sessions: WeibullSessions,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.InitialNodes() != n || tr.Horizon() != 200 {
		t.Fatalf("trace metadata: %d nodes, horizon %g", tr.InitialNodes(), tr.Horizon())
	}
	if err := tr.AddFlashCrowd(60, 100, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddMassFailure(140, 0.3, 3); err != nil {
		t.Fatal(err)
	}

	net, err := NewNetwork(NetworkOptions{Nodes: n, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ests := []Estimator{
		mustEstimator(t, "samplecollide", EstimatorConfig{SCL: 50, Seed: 5}),
		mustEstimator(t, "hopssampling", EstimatorConfig{Seed: 6}),
	}
	res, err := RunMonitor(net, tr, ests, MonitorOptions{
		Cadence:     20,
		Policy:      WindowSmoothing,
		Window:      5,
		RestartJump: 0.5,
		ReplaySeed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times()) != 10 {
		t.Fatalf("samples = %d, want 10", len(res.Times()))
	}
	if got := res.TrueSizes()[2]; got != float64(tr.SizeAt(60)) {
		t.Fatalf("true size at t=60 is %g, trace says %d", got, tr.SizeAt(60))
	}
	for k, name := range res.Names() {
		if name != ests[k].Name() {
			t.Fatalf("instance %d name %q != %q", k, name, ests[k].Name())
		}
		m := res.Tracking(k)
		if math.IsNaN(m.MAPE) || m.MAPE > 100 {
			t.Fatalf("%s MAPE = %g, implausible", name, m.MAPE)
		}
		if m.MsgsPerTimeUnit <= 0 {
			t.Fatalf("%s metered no traffic", name)
		}
	}
	if net.Size() != n {
		t.Fatalf("RunMonitor mutated the network: size %d", net.Size())
	}
	if net.Messages() == 0 {
		t.Fatal("per-instance traffic not merged into the network meter")
	}
	if res.String() == "" {
		t.Fatal("empty tracking table")
	}
}

func TestMonitorWorkerInvariance(t *testing.T) {
	run := func(workers int) *MonitorResult {
		tr, err := GenerateTrace(TraceOptions{Nodes: 300, Horizon: 100, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		net, err := NewNetwork(NetworkOptions{Nodes: 300, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		ests := []Estimator{
			mustEstimator(t, "samplecollide", EstimatorConfig{SCL: 30, Seed: 10}),
			mustEstimator(t, "samplecollide", EstimatorConfig{SCL: 30, Seed: 11}),
			mustEstimator(t, "samplecollide", EstimatorConfig{SCL: 30, Seed: 12}),
		}
		res, err := RunMonitor(net, tr, ests, MonitorOptions{
			Cadence: 10, ReplaySeed: 13, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	for k := range a.Names() {
		ea, eb := a.Estimates(k), b.Estimates(k)
		for i := range ea {
			if math.Float64bits(ea[i]) != math.Float64bits(eb[i]) {
				t.Fatalf("instance %d sample %d differs: %g vs %g", k, i, ea[i], eb[i])
			}
		}
	}
}

// undeclared hides an estimator's MutatesOverlay declaration, so
// RunMonitor counts it a replay group of its own: the reference roster
// the default grouping must reproduce bit for bit.
type undeclared struct{ Estimator }

// TestRunMonitorGroupsByDefault: with no option set, three observe-only
// families on one cadence share a replay group, aggregation (which
// declares it rewires the overlay) counts its own, and every series
// equals the one the same estimator produces undeclared — for a roster of
// default configurations and for one with tuned knobs.
func TestRunMonitorGroupsByDefault(t *testing.T) {
	t.Run("by-name", func(t *testing.T) {
		testGroupsByDefault(t, func() []Estimator {
			var ests []Estimator
			for i, name := range []string{"samplecollide", "hopssampling", "dht", "aggregation"} {
				e, err := NewEstimatorByName(name, EstimatorConfig{Seed: 22 + uint64(i)}, nil)
				if err != nil {
					t.Fatal(err)
				}
				ests = append(ests, e)
			}
			return ests
		})
	})
	t.Run("configured", func(t *testing.T) {
		testGroupsByDefault(t, func() []Estimator {
			return []Estimator{
				mustEstimator(t, "samplecollide", EstimatorConfig{SCL: 30, Seed: 22}),
				mustEstimator(t, "hopssampling", EstimatorConfig{Seed: 23}),
				mustEstimator(t, "polling", EstimatorConfig{Seed: 24}),
				mustEstimator(t, "aggregation", EstimatorConfig{Rounds: 20, Seed: 25}),
			}
		})
	})
}

func testGroupsByDefault(t *testing.T, roster func() []Estimator) {
	const n = 400
	run := func(private bool) *MonitorResult {
		tr, err := GenerateTrace(TraceOptions{Nodes: n, Horizon: 100, Sessions: WeibullSessions, Seed: 20})
		if err != nil {
			t.Fatal(err)
		}
		net, err := NewNetwork(NetworkOptions{Nodes: n, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		ests := roster()
		if private {
			for k, e := range ests {
				ests[k] = undeclared{e}
			}
		}
		res, err := RunMonitor(net, tr, ests, MonitorOptions{Cadence: 20})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want, got := run(true), run(false)
	if want.Groups() != 4 || got.Groups() != 2 {
		t.Fatalf("groups: %d with every estimator undeclared, %d by default; want 4 and 2", want.Groups(), got.Groups())
	}
	for k, name := range want.Names() {
		for _, series := range [][2][]float64{
			{want.RawEstimates(k), got.RawEstimates(k)},
			{want.Estimates(k), got.Estimates(k)},
		} {
			for i := range series[0] {
				if math.Float64bits(series[0][i]) != math.Float64bits(series[1][i]) {
					t.Fatalf("%s sample %d: %g on a private clone, %g in its group", name, i, series[0][i], series[1][i])
				}
			}
		}
		if w, g := want.Tracking(k), got.Tracking(k); w.MsgsPerTimeUnit != g.MsgsPerTimeUnit || w.Failures != g.Failures {
			t.Fatalf("%s: %g msgs/time and %d failures on a private clone, %g and %d in its group",
				name, w.MsgsPerTimeUnit, w.Failures, g.MsgsPerTimeUnit, g.Failures)
		}
	}
}

// TestRunMonitorRejectsNilArguments: a missing network, trace or
// estimator is the caller's input, so it comes back as an error.
func TestRunMonitorRejectsNilArguments(t *testing.T) {
	tr, err := GenerateTrace(TraceOptions{Nodes: 100, Horizon: 50, Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(NetworkOptions{Nodes: 100, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	sc := mustEstimator(t, "samplecollide", EstimatorConfig{SCL: 20, Seed: 32})
	for _, tc := range []struct {
		name string
		net  *Network
		tr   *Trace
		ests []Estimator
	}{
		{"nil network", nil, tr, []Estimator{sc}},
		{"nil trace", net, nil, []Estimator{sc}},
		{"nil estimator", net, tr, []Estimator{sc, nil}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunMonitor(tc.net, tc.tr, tc.ests, MonitorOptions{Cadence: 10})
			if err == nil || !strings.HasPrefix(err.Error(), "p2psize:") {
				t.Fatalf("err = %v, want a p2psize: error", err)
			}
		})
	}
}

func TestTracePublicIORoundTrip(t *testing.T) {
	tr, err := GenerateTrace(TraceOptions{Nodes: 100, Horizon: 50, Sessions: ParetoSessions, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	var jsonBuf, csvBuf bytes.Buffer
	if err := tr.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := ReadTraceJSON(&jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	fromCSV, err := ReadTraceCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	for _, back := range []*Trace{fromJSON, fromCSV} {
		if back.InitialNodes() != tr.InitialNodes() || back.Joins() != tr.Joins() ||
			back.Leaves() != tr.Leaves() || back.Horizon() != tr.Horizon() {
			t.Fatalf("round trip changed the trace: %d/%d/%d/%g vs %d/%d/%d/%g",
				back.InitialNodes(), back.Joins(), back.Leaves(), back.Horizon(),
				tr.InitialNodes(), tr.Joins(), tr.Leaves(), tr.Horizon())
		}
	}
}

func TestGenerateTraceRejectsBadOptions(t *testing.T) {
	if _, err := GenerateTrace(TraceOptions{Horizon: 10}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := GenerateTrace(TraceOptions{Nodes: 10}); err == nil {
		t.Fatal("zero horizon accepted")
	}
	for _, w := range []int{0, 2} {
		if _, err := GenerateTrace(TraceOptions{Nodes: 10, Horizon: 10, Sessions: SessionModel(99), Workers: w}); err == nil {
			t.Fatalf("workers %d: unknown session model accepted", w)
		}
	}
}

// TestGenerateTraceRejectsNonFinite: a non-finite or runaway parameter
// is an error that names it, from either generator, where it used to
// hang (an infinite or huge rate), panic (an infinite mean) or return
// an empty trace (a NaN mean or horizon).
func TestGenerateTraceRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		opts TraceOptions
		want string
	}{
		{"NaN horizon", TraceOptions{Horizon: nan}, "Horizon"},
		{"infinite horizon", TraceOptions{Horizon: inf}, "Horizon"},
		{"infinite rate", TraceOptions{ArrivalRate: inf}, "ArrivalRate"},
		{"NaN rate", TraceOptions{ArrivalRate: nan}, "ArrivalRate"},
		{"huge rate", TraceOptions{ArrivalRate: 1e300}, "id space"},
		{"infinite mean", TraceOptions{MeanSession: inf}, "Mean"},
		{"NaN mean", TraceOptions{MeanSession: nan}, "Mean"},
		{"subnormal mean", TraceOptions{MeanSession: 5e-324}, "parameter"},
		{"tiny mean", TraceOptions{MeanSession: 1e-300}, "id space"},
		{"NaN shape", TraceOptions{Sessions: WeibullSessions, Shape: nan}, "Shape"},
		{"vanishing shape", TraceOptions{Sessions: WeibullSessions, Shape: 1e-300}, "parameter"},
		{"NaN amplitude", TraceOptions{DiurnalAmplitude: nan}, "DiurnalAmplitude"},
		{"infinite period", TraceOptions{DiurnalPeriod: inf}, "DiurnalPeriod"},
	} {
		for _, workers := range []int{0, 2} {
			opts := tc.opts
			opts.Nodes, opts.Seed, opts.Workers = 100, 1, workers
			if opts.Horizon == 0 {
				opts.Horizon = 100
			}
			tr, err := GenerateTrace(opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, workers %d: trace %v, err %v; want an error naming %q", tc.name, workers, tr, err, tc.want)
			}
		}
	}
}

// TestTraceComposeRejectsBadArguments: every compositor names the
// argument it refuses — NaN instants and fractions, a non-finite stay,
// counts the id space cannot hold — and leaves the trace as it was.
func TestTraceComposeRejectsBadArguments(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name    string
		compose func(*Trace) error
		want    string
	}{
		{"failure at NaN", func(tr *Trace) error { return tr.AddMassFailure(nan, 0.5, 1) }, "at=NaN"},
		{"failure fraction NaN", func(tr *Trace) error { return tr.AddMassFailure(10, nan, 1) }, "fraction=NaN"},
		{"failure fraction above 1", func(tr *Trace) error { return tr.AddMassFailure(10, 1.5, 1) }, "fraction=1.5"},
		{"split at NaN", func(tr *Trace) error { return tr.AddPartitionHeal(nan, 50, 0.5, 1) }, "splitAt=NaN"},
		{"heal at NaN", func(tr *Trace) error { return tr.AddPartitionHeal(10, nan, 0.5, 1) }, "healAt=NaN"},
		{"heal before split", func(tr *Trace) error { return tr.AddPartitionHeal(50, 10, 0.5, 1) }, "healAt=10"},
		{"partition fraction NaN", func(tr *Trace) error { return tr.AddPartitionHeal(10, 50, nan, 1) }, "fraction=NaN"},
		{"crowd at NaN", func(tr *Trace) error { return tr.AddFlashCrowd(nan, 10, 0, 1) }, "at=NaN"},
		{"crowd at infinity", func(tr *Trace) error { return tr.AddFlashCrowd(inf, 10, 0, 1) }, "at=+Inf"},
		{"crowd stay NaN", func(tr *Trace) error { return tr.AddFlashCrowd(10, 10, nan, 1) }, "meanStay=NaN"},
		{"crowd stay infinite", func(tr *Trace) error { return tr.AddFlashCrowd(10, 10, inf, 1) }, "meanStay=+Inf"},
		{"crowd stay negative", func(tr *Trace) error { return tr.AddFlashCrowd(10, 10, -1, 1) }, "meanStay=-1"},
		{"crowd count negative", func(tr *Trace) error { return tr.AddFlashCrowd(10, -1, 0, 1) }, "count=-1"},
		{"crowd count overflowing", func(tr *Trace) error { return tr.AddFlashCrowd(10, math.MaxInt, 0, 1) }, "count="},
		{"crowd count past the id space", func(tr *Trace) error { return tr.AddFlashCrowd(10, math.MaxInt32, 0, 1) }, "count="},
	} {
		tr, err := GenerateTrace(TraceOptions{Nodes: 100, Horizon: 100, Seed: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		joins, leaves := tr.Joins(), tr.Leaves()
		if err := tc.compose(tr); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want an error naming %q", tc.name, err, tc.want)
		}
		if tr.Joins() != joins || tr.Leaves() != leaves {
			t.Errorf("%s: the rejected composition changed the trace", tc.name)
		}
	}
}
