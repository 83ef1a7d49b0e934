package core

import (
	"errors"
	"math"
	"testing"

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
func runStatic(e Estimator, net *overlay.Network, runs int) (*StaticResult, error) {
	return RunStaticParallel(func(int) Estimator { return e }, net, runs, 1)
}

func TestRunStaticSmoothingAndOverhead(t *testing.T) {
	net := hetNet(100, 1)
	fe := &fakeEstimator{name: "fake", vals: []float64{80, 120, 100}, cost: 7}
	res, err := runStatic(fe, net, 12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "fake" || res.TrueSize != 100 {
		t.Fatalf("header: %+v", res)
	}
	for i, e := range res.Estimates {
		if w := fe.vals[i%3]; e != w {
			t.Fatalf("Estimates[%d] = %g, want %g", i, e, w)
		}
	}
	// The paper's window of LastK = 10: entry 9 averages all ten runs so
	// far (980/10), entry 10 drops run 0's 80 (1020/10).
	if res.Smoothed[0] != 80 || math.Abs(res.Smoothed[9]-98) > 1e-12 || math.Abs(res.Smoothed[10]-102) > 1e-12 {
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
	res, err := runStatic(fe, net, 2)
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
	if _, err := runStatic(fe, net, 5); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunStaticValidation(t *testing.T) {
	net := hetNet(10, 4)
	if _, err := runStatic(&fakeEstimator{name: "f", vals: []float64{1}}, net, 0); err == nil {
		t.Fatal("runs=0 accepted")
	}
}

func TestRunStaticWithRealEstimator(t *testing.T) {
	const n = 1000
	net := hetNet(n, 5)
	e := samplecollide.New(samplecollide.Config{T: 10, L: 30}, xrand.New(6))
	res, err := runStatic(e, net, 15)
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
