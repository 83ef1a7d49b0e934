package core

import (
	"errors"
	"math"
	"testing"

	"p2psize/internal/churn"
	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/samplecollide"
	"p2psize/internal/xrand"
)

func hetNet(n int, seed uint64) *overlay.Network {
	return overlay.New(graph.Heterogeneous(n, 10, xrand.New(seed)), 10, nil)
}

// fakeEstimator returns scripted estimates and meters a fixed cost.
type fakeEstimator struct {
	name string
	vals []float64
	errs []error
	i    int
	cost uint64
}

func (f *fakeEstimator) Name() string { return f.name }

func (f *fakeEstimator) Estimate(net *overlay.Network) (float64, error) {
	idx := f.i
	f.i++
	net.SendN(metrics.KindControl, f.cost)
	if f.errs != nil && f.errs[idx%len(f.errs)] != nil {
		return 0, f.errs[idx%len(f.errs)]
	}
	return f.vals[idx%len(f.vals)], nil
}

// runStatic drives one stateful estimator through RunStaticParallel on a
// single worker: the runs execute in index order, so a scripted
// estimator sees them as consecutive calls.
func runStatic(e Estimator, net *overlay.Network, runs, lastK int) (*StaticResult, error) {
	return RunStaticParallel(func(int) Estimator { return e }, net, runs, lastK, 1)
}

// runDynamic is RunDynamicParallel on a single worker with a fixed
// churn seed.
func runDynamic(instances []Estimator, net *overlay.Network, cfg DynamicConfig, seed uint64) (*DynamicResult, error) {
	return RunDynamicParallel(instances, net, cfg, func() *xrand.Rand { return xrand.New(seed) }, 1)
}

func TestRunStaticSmoothingAndOverhead(t *testing.T) {
	net := hetNet(100, 1)
	fe := &fakeEstimator{name: "fake", vals: []float64{80, 120, 100}, cost: 7}
	res, err := runStatic(fe, net, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "fake" || res.TrueSize != 100 {
		t.Fatalf("header: %+v", res)
	}
	wantRaw := []float64{80, 120, 100, 80, 120, 100}
	for i, w := range wantRaw {
		if res.Estimates[i] != w {
			t.Fatalf("Estimates[%d] = %g", i, res.Estimates[i])
		}
	}
	// Window of 3: entry 4 averages {100, 80, 120} = 100.
	if res.Smoothed[0] != 80 || math.Abs(res.Smoothed[1]-100) > 1e-12 || math.Abs(res.Smoothed[4]-100) > 1e-12 {
		t.Fatalf("Smoothed = %v", res.Smoothed)
	}
	for i, o := range res.Overheads {
		if o != 7 {
			t.Fatalf("Overheads[%d] = %d", i, o)
		}
	}
	if res.MeanOverhead() != 7 {
		t.Fatalf("MeanOverhead = %g", res.MeanOverhead())
	}
}

func TestRunStaticQualityPct(t *testing.T) {
	net := hetNet(200, 2)
	fe := &fakeEstimator{name: "fake", vals: []float64{100, 300}}
	res, err := runStatic(fe, net, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	q := res.QualityPct(false)
	if q[0] != 50 || q[1] != 150 {
		t.Fatalf("QualityPct = %v", q)
	}
	qs := res.QualityPct(true)
	if qs[1] != 100 {
		t.Fatalf("smoothed QualityPct = %v", qs)
	}
}

func TestRunStaticPropagatesError(t *testing.T) {
	net := hetNet(10, 3)
	boom := errors.New("boom")
	fe := &fakeEstimator{name: "fake", vals: []float64{1}, errs: []error{nil, boom}}
	if _, err := runStatic(fe, net, 5, 10); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunStaticValidation(t *testing.T) {
	net := hetNet(10, 4)
	if _, err := runStatic(&fakeEstimator{name: "f", vals: []float64{1}}, net, 0, 10); err == nil {
		t.Fatal("runs=0 accepted")
	}
}

func TestRunStaticWithRealEstimator(t *testing.T) {
	const n = 1000
	net := hetNet(n, 5)
	e := samplecollide.New(samplecollide.Config{T: 10, L: 30}, xrand.New(6))
	res, err := runStatic(e, net, 15, LastK)
	if err != nil {
		t.Fatal(err)
	}
	// Smoothed tail should be well within 25% of truth.
	last := res.Smoothed[len(res.Smoothed)-1]
	if math.Abs(last-n)/n > 0.25 {
		t.Fatalf("smoothed estimate %.0f, truth %d", last, n)
	}
	if res.MeanOverhead() <= 0 {
		t.Fatal("no overhead metered")
	}
}

func TestRunDynamicTracksTrueSize(t *testing.T) {
	const n = 500
	net := hetNet(n, 7)
	// Perfect estimator: always reports the exact current size.
	perfect := &perfectEstimator{}
	cfg := DynamicConfig{
		Scenario:      churn.Growing(n, 50, 0.5),
		EstimateEvery: 1,
	}
	res, err := runDynamic([]Estimator{perfect}, net, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 50 || len(res.TrueSizes) != 50 {
		t.Fatalf("points = %d", len(res.Steps))
	}
	for i := range res.Steps {
		if res.Estimates[0][i] != res.TrueSizes[i] {
			t.Fatalf("point %d: est %g != truth %g", i, res.Estimates[0][i], res.TrueSizes[i])
		}
	}
	if te := res.TrackingError(0); te != 0 {
		t.Fatalf("TrackingError = %g", te)
	}
	// Growth actually happened.
	if res.TrueSizes[len(res.TrueSizes)-1] <= res.TrueSizes[0] {
		t.Fatal("scenario did not grow the overlay")
	}
}

type perfectEstimator struct{}

func (perfectEstimator) Name() string { return "perfect" }
func (perfectEstimator) Estimate(net *overlay.Network) (float64, error) {
	return float64(net.Size()), nil
}

func TestRunDynamicEstimateEvery(t *testing.T) {
	net := hetNet(100, 9)
	cfg := DynamicConfig{Scenario: churn.Static(40), EstimateEvery: 10}
	res, err := runDynamic([]Estimator{perfectEstimator{}}, net, cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Steps))
	}
	if res.Steps[0] != 10 || res.Steps[3] != 40 {
		t.Fatalf("Steps = %v", res.Steps)
	}
}

func TestRunDynamicSmoothing(t *testing.T) {
	net := hetNet(100, 11)
	fe := &fakeEstimator{name: "alt", vals: []float64{50, 150}}
	cfg := DynamicConfig{Scenario: churn.Static(6), EstimateEvery: 1, SmoothLastK: 2}
	res, err := runDynamic([]Estimator{fe}, net, cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	// After the first point (50), every window of 2 averages {50,150}=100.
	if res.Estimates[0][0] != 50 {
		t.Fatalf("first = %g", res.Estimates[0][0])
	}
	for i := 1; i < 6; i++ {
		if res.Estimates[0][i] != 100 {
			t.Fatalf("smoothed[%d] = %g", i, res.Estimates[0][i])
		}
	}
}

func TestRunDynamicFailuresBecomeNaN(t *testing.T) {
	net := hetNet(100, 13)
	boom := errors.New("fragmented")
	fe := &fakeEstimator{name: "flaky", vals: []float64{100}, errs: []error{nil, boom}}
	cfg := DynamicConfig{Scenario: churn.Static(4), EstimateEvery: 1}
	res, err := runDynamic([]Estimator{fe}, net, cfg, 14)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures[0] != 2 {
		t.Fatalf("Failures = %d", res.Failures[0])
	}
	if !math.IsNaN(res.Estimates[0][1]) || !math.IsNaN(res.Estimates[0][3]) {
		t.Fatalf("Estimates = %v", res.Estimates[0])
	}
	// TrackingError skips NaN points.
	if te := res.TrackingError(0); te != 0 {
		t.Fatalf("TrackingError = %g", te)
	}
}

func TestRunDynamicNoEstimators(t *testing.T) {
	net := hetNet(10, 15)
	if _, err := runDynamic(nil, net, DynamicConfig{Scenario: churn.Static(1)}, 16); err == nil {
		t.Fatal("empty instance list accepted")
	}
}

func TestTrackingErrorAllFailed(t *testing.T) {
	r := &DynamicResult{
		TrueSizes: []float64{100},
		Estimates: [][]float64{{math.NaN()}},
	}
	if te := r.TrackingError(0); !math.IsNaN(te) {
		t.Fatalf("TrackingError = %g, want NaN", te)
	}
}

func TestTrackingErrorOutOfRangePanics(t *testing.T) {
	r := &DynamicResult{}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range TrackingError did not panic")
		}
	}()
	r.TrackingError(0)
}
