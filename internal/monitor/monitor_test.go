package monitor

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"p2psize/internal/core"
	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/trace"
	"p2psize/internal/xrand"
)

func testTrace(t *testing.T, initial int) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.Config{
		Name:    "monitor-test",
		Initial: initial,
		Horizon: 100,
		Session: trace.SessionDist{Kind: trace.Weibull, Mean: 100, Shape: 0.7},
	}, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func testNet(n int, seed uint64) *overlay.Network {
	return overlay.New(graph.Heterogeneous(n, 10, xrand.New(seed)), 10, nil)
}

// truthEstimator reports the exact size (zero cost, never fails) —
// useful for asserting the plumbing without estimator noise.
type truthEstimator struct{}

func (truthEstimator) Name() string { return "truth" }
func (truthEstimator) Estimate(net *overlay.Network) (float64, error) {
	return float64(net.Size()), nil
}

// flakyEstimator fails on every other call.
type flakyEstimator struct{ calls int }

func (e *flakyEstimator) Name() string { return "flaky" }
func (e *flakyEstimator) Estimate(net *overlay.Network) (float64, error) {
	e.calls++
	if e.calls%2 == 0 {
		return 0, errors.New("flaky")
	}
	return float64(net.Size()), nil
}

// meteredTruth is truth plus one control message per estimate.
type meteredTruth struct{}

func (meteredTruth) Name() string { return "metered-truth" }
func (meteredTruth) Estimate(net *overlay.Network) (float64, error) {
	net.Send(metrics.KindControl)
	return float64(net.Size()), nil
}

// run monitors one estimator on the run's cadence and policy against a
// fresh 400-node overlay and the shared test trace.
func run(t *testing.T, e core.Estimator, cfg Config) *Result {
	t.Helper()
	const n = 400
	net := testNet(n, 22)
	res, err := RunScheduled([]Instance{{Estimator: e}}, net, testTrace(t, n), cfg, func() *xrand.Rand { return xrand.New(23) }, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTruthTracksExactly(t *testing.T) {
	res := run(t, truthEstimator{}, Config{Cadence: 10})
	if len(res.Times) != 10 {
		t.Fatalf("expected 10 samples, got %d", len(res.Times))
	}
	if mae := res.MAE(0); mae != 0 {
		t.Fatalf("truth estimator MAE = %g, want 0", mae)
	}
	if mape := res.MAPE(0); mape != 0 {
		t.Fatalf("truth estimator MAPE = %g, want 0", mape)
	}
	if st := res.MeanStaleness(0); st != 0 {
		t.Fatalf("unsmoothed truth staleness = %g, want 0", st)
	}
}

func TestWindowSmoothingLagsAndAges(t *testing.T) {
	res := run(t, truthEstimator{}, Config{Cadence: 10, Policy: Policy{Smoothing: Window, Window: 4}})
	// A full 4-entry window at cadence 10 holds data aged 0,10,20,30 →
	// mean 15; early samples have smaller windows.
	last := res.Staleness[0][len(res.Staleness[0])-1]
	if last != 15 {
		t.Fatalf("full-window staleness = %g, want 15", last)
	}
	if res.Staleness[0][0] != 0 {
		t.Fatalf("first-sample staleness = %g, want 0", res.Staleness[0][0])
	}
}

func TestEWMAStaleness(t *testing.T) {
	res := run(t, truthEstimator{}, Config{Cadence: 10, Policy: Policy{Smoothing: EWMA, Alpha: 0.5}})
	// Steady-state EWMA age with alpha 0.5 and dt 10 converges to
	// dt·(1-a)/a = 10; check it is between fresh and window-like.
	last := res.Staleness[0][len(res.Staleness[0])-1]
	if last <= 0 || last > 11 {
		t.Fatalf("EWMA staleness = %g, want in (0, 11]", last)
	}
}

func TestFailuresHoldLastValueAndAge(t *testing.T) {
	res := run(t, &flakyEstimator{}, Config{Cadence: 10})
	if res.Failures[0] != 5 {
		t.Fatalf("failures = %d, want 5", res.Failures[0])
	}
	// Sample 2 fails: the served value must be sample 1's, aged one
	// cadence.
	if math.IsNaN(res.Smoothed[0][1]) {
		t.Fatal("failed sample did not hold the previous value")
	}
	if res.Smoothed[0][1] != res.Smoothed[0][0] {
		t.Fatalf("held value %g != previous %g", res.Smoothed[0][1], res.Smoothed[0][0])
	}
	if res.Staleness[0][1] != 10 {
		t.Fatalf("staleness across a failure = %g, want 10", res.Staleness[0][1])
	}
	if st := res.MeanStaleness(0); st != 5 {
		t.Fatalf("mean staleness = %g, want 5", st)
	}
}

func TestRestartOnShock(t *testing.T) {
	const n = 400
	net := testNet(n, 24)
	tr := testTrace(t, n)
	if err := tr.AddMassFailure(50, 0.6, xrand.New(25)); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cadence: 10, Policy: Policy{Smoothing: Window, Window: 8, RestartJump: 0.3}}
	res, err := RunScheduled([]Instance{{Estimator: truthEstimator{}}}, net, tr, cfg,
		func() *xrand.Rand { return xrand.New(26) }, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts[0] == 0 {
		t.Fatal("a -60% shock did not trigger a restart")
	}
	// After the restart the window starts over from the post-shock
	// truth, so the first sample seeing the shock tracks exactly.
	i := 4 // t=50: the mass failure at t=50 is applied before sampling
	if res.Smoothed[0][i] != res.TrueSizes[i] {
		t.Fatalf("post-shock sample serves %g, truth is %g (no restart?)",
			res.Smoothed[0][i], res.TrueSizes[i])
	}
}

func TestMessagesMeteredPerInstance(t *testing.T) {
	const n = 400
	net := testNet(n, 27)
	res, err := RunScheduled([]Instance{{Estimator: meteredTruth{}}, {Estimator: meteredTruth{}}}, net, testTrace(t, n),
		Config{Cadence: 10}, func() *xrand.Rand { return xrand.New(28) }, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := range res.Messages {
		if res.Messages[k] != 10 {
			t.Fatalf("instance %d metered %d messages, want 10", k, res.Messages[k])
		}
		if res.MsgsPerTime(k) != 0.1 {
			t.Fatalf("instance %d msgs/time = %g, want 0.1", k, res.MsgsPerTime(k))
		}
	}
	if net.Counter().Total() != 20 {
		t.Fatalf("merged counter = %d, want 20", net.Counter().Total())
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	net := testNet(100, 29)
	tr := testTrace(t, 100)
	rng := func() *xrand.Rand { return xrand.New(1) }
	truth := []Instance{{Estimator: truthEstimator{}}}
	if _, err := RunScheduled(nil, net, tr, Config{Cadence: 1}, rng, 1); err == nil {
		t.Fatal("no estimators accepted")
	}
	if _, err := RunScheduled(truth, net, tr, Config{}, rng, 1); err == nil {
		t.Fatal("zero cadence accepted")
	}
	if _, err := RunScheduled(truth, net, tr, Config{Cadence: 1e9}, rng, 1); err == nil {
		t.Fatal("cadence past the horizon accepted")
	}
}

// --- Per-instance cadence/policy (RunScheduled) --------------------------

// TestMixedCadencesSchedule checks the union grid and the off-schedule
// hold behavior: a 2x-slower instance estimates at every other tick,
// holds its served value in between, ages visibly, and spends half the
// messages.
func TestMixedCadencesSchedule(t *testing.T) {
	const n = 400
	net := testNet(n, 43)
	res, err := RunScheduled([]Instance{
		{Estimator: meteredTruth{}, Cadence: 10},
		{Estimator: meteredTruth{}, Cadence: 20},
	}, net, testTrace(t, n), Config{Cadence: 10}, func() *xrand.Rand { return xrand.New(44) }, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) != 10 {
		t.Fatalf("union grid has %d ticks, want 10 (the fast schedule)", len(res.Times))
	}
	if res.Scheduled[0] != 10 || res.Scheduled[1] != 5 {
		t.Fatalf("scheduled counts = %v, want [10 5]", res.Scheduled)
	}
	if res.Messages[0] != 10 || res.Messages[1] != 5 {
		t.Fatalf("messages = %v: the slow cadence must spend half the budget", res.Messages)
	}
	for i := range res.Times {
		even := (i+1)%2 == 0 // t = 20, 40, ... are the slow instance's ticks
		if even && math.IsNaN(res.Raw[1][i]) {
			t.Fatalf("slow instance missing its scheduled estimate at t=%g", res.Times[i])
		}
		if !even && !math.IsNaN(res.Raw[1][i]) {
			t.Fatalf("slow instance estimated off-schedule at t=%g", res.Times[i])
		}
		if i >= 1 && !even {
			// Between samples the served value is held from the previous
			// scheduled tick and is one cadence stale.
			if res.Smoothed[1][i] != res.Smoothed[1][i-1] {
				t.Fatalf("slow instance did not hold its value at t=%g", res.Times[i])
			}
			if res.Staleness[1][i] != 10 {
				t.Fatalf("held value staleness = %g at t=%g, want 10", res.Staleness[1][i], res.Times[i])
			}
		}
	}
	if fast, slow := res.MeanStaleness(0), res.MeanStaleness(1); slow <= fast {
		t.Fatalf("staleness fast %g vs slow %g: halving the cadence must age the data", fast, slow)
	}
	if fast, slow := res.MsgsPerTime(0), res.MsgsPerTime(1); slow >= fast {
		t.Fatalf("msgs/time fast %g vs slow %g: halving the cadence must cut the budget", fast, slow)
	}
}

// TestCadenceTradesBudgetForStaleness is the ROADMAP item end to end:
// slowing one estimator's cadence must cut its message budget and grow
// its staleness while the co-monitored fast instance is unaffected.
func TestCadenceTradesBudgetForStaleness(t *testing.T) {
	const n = 400
	runAt := func(slowCadence float64) *Result {
		res, err := RunScheduled([]Instance{
			{Estimator: meteredTruth{}},
			{Estimator: meteredTruth{}, Cadence: slowCadence},
		}, testNet(n, 55), testTrace(t, n), Config{Cadence: 5},
			func() *xrand.Rand { return xrand.New(56) }, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := runAt(5)
	slowed := runAt(50)
	if slowed.Messages[1] >= base.Messages[1] {
		t.Fatalf("slowing the cadence 10x kept the budget: %d vs %d", slowed.Messages[1], base.Messages[1])
	}
	if slowed.MeanStaleness(1) <= base.MeanStaleness(1) {
		t.Fatalf("slowing the cadence 10x kept staleness: %g vs %g", slowed.MeanStaleness(1), base.MeanStaleness(1))
	}
	if slowed.Messages[0] != base.Messages[0] {
		t.Fatalf("fast instance budget changed with the slow instance's cadence: %d vs %d",
			slowed.Messages[0], base.Messages[0])
	}
}

func TestScheduledRejectsBadInstances(t *testing.T) {
	net := testNet(100, 57)
	tr := testTrace(t, 100)
	rng := func() *xrand.Rand { return xrand.New(1) }
	if _, err := RunScheduled([]Instance{{}}, net, tr, Config{Cadence: 1}, rng, 1); err == nil {
		t.Fatal("nil estimator accepted")
	}
	if _, err := RunScheduled([]Instance{{Estimator: truthEstimator{}, Cadence: -1}}, net, tr,
		Config{Cadence: 1}, rng, 1); err == nil {
		t.Fatal("negative cadence accepted")
	}
	for _, c := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := RunScheduled([]Instance{{Estimator: truthEstimator{}, Cadence: c}}, net, tr,
			Config{Cadence: 1}, rng, 1); err == nil {
			t.Fatalf("non-finite cadence %g accepted", c)
		}
		if _, err := RunScheduled([]Instance{{Estimator: truthEstimator{}}}, net, tr,
			Config{Cadence: c}, rng, 1); err == nil {
			t.Fatalf("non-finite base cadence %g accepted", c)
		}
	}
	if _, err := RunScheduled([]Instance{{Estimator: truthEstimator{}, Cadence: 1e9}}, net, tr,
		Config{Cadence: 1}, rng, 1); err == nil {
		t.Fatal("cadence past the horizon accepted")
	}
	// An out-of-range smoothing is an error, not a silent None.
	for _, sm := range []Smoothing{-1, EWMA + 1} {
		if _, err := RunScheduled([]Instance{{Estimator: truthEstimator{}}}, net, tr,
			Config{Cadence: 1, Policy: Policy{Smoothing: sm}}, rng, 1); err == nil || !strings.Contains(err.Error(), "unknown smoothing") {
			t.Fatalf("smoothing %d: err = %v, want an unknown-smoothing error", int(sm), err)
		}
	}
	// A smoothing value outside its range is an error, not a silent
	// default; zero still selects the default.
	for _, c := range []struct {
		pol  Policy
		want string // "" = accepted
	}{
		{Policy{Smoothing: EWMA, Alpha: 7}, "alpha 7 must be in (0, 1]"},
		{Policy{Smoothing: EWMA, Alpha: -0.5}, "alpha -0.5 must be in (0, 1]"},
		{Policy{Smoothing: EWMA, Alpha: math.NaN()}, "alpha NaN must be in (0, 1]"},
		{Policy{Smoothing: EWMA, Alpha: math.Inf(1)}, "alpha +Inf must be in (0, 1]"},
		{Policy{Smoothing: Window, Window: -3}, "window -3 is negative"},
		{Policy{Smoothing: Window, RestartJump: -0.5}, "restart jump -0.5 must be >= 0"},
		{Policy{Smoothing: EWMA, RestartJump: math.NaN()}, "restart jump NaN must be >= 0"},
		{Policy{Smoothing: EWMA, Alpha: 1}, ""},
		{Policy{Smoothing: EWMA}, ""},
		{Policy{Smoothing: Window, RestartJump: 0.5}, ""},
	} {
		res, err := RunScheduled([]Instance{{Estimator: truthEstimator{}}}, net, tr, Config{Cadence: 1, Policy: c.pol}, rng, 1)
		switch {
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Fatalf("%+v: err = %v, want %q", c.pol, err, c.want)
		case c.want == "" && err != nil:
			t.Fatalf("%+v rejected: %v", c.pol, err)
		case c.want == "" && res.Policy != c.pol.normalized():
			t.Fatalf("%+v ran as %+v", c.pol, res.Policy)
		}
	}
	// A run where every instance carries its own cadence needs no base.
	if _, err := RunScheduled([]Instance{{Estimator: truthEstimator{}, Cadence: 10}}, net, tr,
		Config{}, rng, 1); err != nil {
		t.Fatalf("all-override run rejected: %v", err)
	}
}

// TestTinyCadenceErrorsInsteadOfPanicking pins the overflow guard: a
// positive-but-pathological cadence must return an error, not panic in
// makeslice (int(1e300) lands on minInt).
func TestTinyCadenceErrorsInsteadOfPanicking(t *testing.T) {
	net := testNet(100, 58)
	tr := testTrace(t, 100)
	rng := func() *xrand.Rand { return xrand.New(1) }
	for _, c := range []float64{1e-300, 1e-12} {
		if _, err := RunScheduled([]Instance{{Estimator: truthEstimator{}}}, net, tr, Config{Cadence: c}, rng, 1); err == nil {
			t.Fatalf("cadence %g accepted", c)
		}
	}
}

// TestOversizedGridErrorsBeforeAllocating: a run whose schedules sum
// past maxGrid — one tiny cadence, or instances each within the bound
// that together exceed it — is an error, returned before any schedule
// or series is made (the 1e8-tick spec once ran for minutes toward an
// out-of-memory kill).
func TestOversizedGridErrorsBeforeAllocating(t *testing.T) {
	net := testNet(100, 58)
	tr := testTrace(t, 100) // horizon 100
	rng := func() *xrand.Rand { return xrand.New(1) }
	third := tr.Horizon / (maxGrid/3 + 10) // three of these sum past the bound
	for _, c := range []struct {
		name      string
		instances []Instance
	}{
		{"one tiny cadence", []Instance{{Estimator: truthEstimator{}, Cadence: 1e-6}}},
		{"three within the bound", []Instance{
			{Estimator: truthEstimator{}, Cadence: third},
			{Estimator: truthEstimator{}, Cadence: third},
			{Estimator: truthEstimator{}, Cadence: third},
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := RunScheduled(c.instances, net, tr, Config{}, rng, 1)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "sample") {
			t.Fatalf("%s: err = %v, want the grid bound's error", c.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: allocated %d bytes before failing", c.name, grew)
		}
	}
}

// referenceWindow is the pre-ring-buffer smoother semantics, kept as a
// plain slice for equivalence checking: append, evict from the front.
type referenceWindow struct {
	w     int
	vals  []float64
	times []float64
}

func (r *referenceWindow) add(est, t float64) {
	if len(r.vals) == r.w {
		r.vals = r.vals[1:]
		r.times = r.times[1:]
	}
	r.vals = append(r.vals, est)
	r.times = append(r.times, t)
}

func (r *referenceWindow) current(t float64) (float64, float64) {
	if len(r.vals) == 0 {
		return math.NaN(), t
	}
	sum, ageSum := 0.0, 0.0
	for i, v := range r.vals {
		sum += v
		ageSum += t - r.times[i]
	}
	n := float64(len(r.vals))
	return sum / n, ageSum / n
}

// TestWindowRingMatchesSliceSemantics drives the ring-buffer smoother
// and the old slice-backed reference through the same long stream —
// including mid-stream resets — and requires bit-identical served
// values and staleness at every step. This is what licenses swapping
// the implementation without touching any experiment checksum.
func TestWindowRingMatchesSliceSemantics(t *testing.T) {
	for _, w := range []int{1, 3, 10, 32} {
		sm := newSmoother(Policy{Smoothing: Window, Window: w})
		ref := &referenceWindow{w: w}
		rng := xrand.New(uint64(w))
		for i := 0; i < 5000; i++ {
			tm := float64(i)
			if i > 0 && i%997 == 0 {
				sm.reset()
				ref.vals, ref.times = nil, nil
			}
			est := 1000 + 500*rng.Float64()
			sm.add(est, tm)
			ref.add(est, tm)
			gotV, gotS := sm.current(tm + 0.5)
			wantV, wantS := ref.current(tm + 0.5)
			if math.Float64bits(gotV) != math.Float64bits(wantV) ||
				math.Float64bits(gotS) != math.Float64bits(wantS) {
				t.Fatalf("w=%d step %d: ring (%v, %v) != slice (%v, %v)",
					w, i, gotV, gotS, wantV, wantS)
			}
		}
	}
}

// TestWindowSmootherFixedFootprint is the regression test for the
// unbounded-append eviction: over a schedule long enough to evict tens
// of thousands of times, the ring's backing arrays must stay exactly
// Window long and add must not allocate at all once warm.
func TestWindowSmootherFixedFootprint(t *testing.T) {
	const w = 10
	sm := newSmoother(Policy{Smoothing: Window, Window: w})
	for i := 0; i < 100000; i++ {
		sm.add(float64(i), float64(i))
	}
	if len(sm.vals) != w || cap(sm.vals) != w || len(sm.times) != w || cap(sm.times) != w {
		t.Fatalf("backing arrays grew: len/cap vals %d/%d, times %d/%d (want %d)",
			len(sm.vals), cap(sm.vals), len(sm.times), cap(sm.times), w)
	}
	i := 100000
	allocs := testing.AllocsPerRun(1000, func() {
		sm.add(float64(i), float64(i))
		i++
	})
	if allocs != 0 {
		t.Fatalf("add allocates %.1f objects per call on a warm window", allocs)
	}
}
