package core_test

// The Estimator contract under churn. The loop that samples estimators
// on a churning overlay is internal/monitor's (RunScenario, which has
// its own differential test there); these cases pin what the contract
// means to it — Estimate sees the overlay's current state, an error is a
// counted gap in the curve and never ends the run — and sit in an
// external test package because monitor imports core.

import (
	"errors"
	"math"
	"testing"

	"p2psize/internal/churn"
	"p2psize/internal/core"
	"p2psize/internal/graph"
	"p2psize/internal/monitor"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// scripted cycles through vals, failing wherever errs holds an error.
type scripted struct {
	vals  []float64
	errs  []error
	calls int
}

func (s *scripted) Name() string { return "scripted" }
func (s *scripted) Estimate(*overlay.Network) (float64, error) {
	i := s.calls
	s.calls++
	if s.errs != nil && s.errs[i%len(s.errs)] != nil {
		return 0, s.errs[i%len(s.errs)]
	}
	return s.vals[i%len(s.vals)], nil
}

// perfect always reports the exact current size.
type perfect struct{}

func (perfect) Name() string { return "perfect" }
func (perfect) Estimate(net *overlay.Network) (float64, error) {
	return float64(net.Size()), nil
}

// runDynamic is monitor.RunScenario on a single worker with a fixed
// churn seed, on a fresh n-node overlay.
func runDynamic(instances []core.Estimator, n int, sc churn.Scenario, cfg monitor.Config, seed uint64) (*monitor.Result, error) {
	sched := make([]monitor.Instance, len(instances))
	for k, e := range instances {
		sched[k] = monitor.Instance{Estimator: e}
	}
	net := overlay.New(graph.Heterogeneous(n, 10, xrand.New(seed)), 10, nil)
	return monitor.RunScenario(sched, net, sc, cfg, func() *xrand.Rand { return xrand.New(seed + 1) }, 1)
}

func TestRunDynamicTracksTrueSize(t *testing.T) {
	const n = 500
	res, err := runDynamic([]core.Estimator{perfect{}}, n, churn.Growing(n, 50, 0.5), monitor.Config{Cadence: 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) != 50 || len(res.TrueSizes) != 50 {
		t.Fatalf("points = %d", len(res.Times))
	}
	for i := range res.Times {
		if res.Raw[0][i] != res.TrueSizes[i] {
			t.Fatalf("point %d: est %g != truth %g", i, res.Raw[0][i], res.TrueSizes[i])
		}
	}
	if te := res.MAPE(0); te != 0 {
		t.Fatalf("MAPE = %g", te)
	}
	// Growth actually happened.
	if res.TrueSizes[len(res.TrueSizes)-1] <= res.TrueSizes[0] {
		t.Fatal("scenario did not grow the overlay")
	}
}

func TestRunDynamicEstimateEvery(t *testing.T) {
	res, err := runDynamic([]core.Estimator{perfect{}}, 100, churn.Scenario{Name: "static", TotalSteps: 40}, monitor.Config{Cadence: 10}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Times))
	}
	if res.Times[0] != 10 || res.Times[3] != 40 {
		t.Fatalf("Times = %v", res.Times)
	}
}

func TestRunDynamicSmoothing(t *testing.T) {
	alt := &scripted{vals: []float64{50, 150}}
	res, err := runDynamic([]core.Estimator{alt}, 100, churn.Scenario{Name: "static", TotalSteps: 6}, monitor.Config{
		Cadence: 1,
		Policy:  monitor.Policy{Smoothing: monitor.Window, Window: 2},
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	// After the first point (50), every window of 2 averages {50,150}=100.
	if res.Smoothed[0][0] != 50 {
		t.Fatalf("first = %g", res.Smoothed[0][0])
	}
	for i := 1; i < 6; i++ {
		if res.Smoothed[0][i] != 100 {
			t.Fatalf("smoothed[%d] = %g", i, res.Smoothed[0][i])
		}
	}
}

func TestRunDynamicFailuresBecomeNaN(t *testing.T) {
	flaky := &scripted{vals: []float64{100}, errs: []error{nil, errors.New("fragmented")}}
	res, err := runDynamic([]core.Estimator{flaky}, 100, churn.Scenario{Name: "static", TotalSteps: 4}, monitor.Config{Cadence: 1}, 13)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures[0] != 2 {
		t.Fatalf("Failures = %d", res.Failures[0])
	}
	if !math.IsNaN(res.Raw[0][1]) || !math.IsNaN(res.Raw[0][3]) {
		t.Fatalf("Raw = %v", res.Raw[0])
	}
	// The served value is held across the gaps, so the error stays 0.
	if te := res.MAPE(0); te != 0 {
		t.Fatalf("MAPE = %g", te)
	}
}

func TestRunDynamicNoEstimators(t *testing.T) {
	if _, err := runDynamic(nil, 10, churn.Scenario{Name: "static", TotalSteps: 1}, monitor.Config{Cadence: 1}, 15); err == nil {
		t.Fatal("empty instance list accepted")
	}
}
