package monitor

// Shared-replay tests: a run replays its timeline once, whatever its
// instances declare. This file holds the helpers the monitor tests
// compare results with, the Groups count (it chooses nothing, and stays
// only until the benchmark re-pins it), and what one replay saves over
// solo runs, which replay once per instance: allocation footprints at
// 20k and 1M nodes, and a 10M smoke.

import (
	"math"
	"os"
	"runtime"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/overlay"
	"p2psize/internal/registry"
	"p2psize/internal/trace"
	"p2psize/internal/xrand"
)

// roTruth is truthEstimator plus the observe-only declaration — counted
// in its cadence class's group, unlike the undeclared truthEstimator,
// which counts as a mutator.
type roTruth struct{ name string }

func (e roTruth) Name() string { return e.name }
func (e roTruth) Estimate(net *overlay.Network) (float64, error) {
	return float64(net.Size()), nil
}
func (roTruth) MutatesOverlay() bool { return false }

// runReplay runs instances against a fresh 400-node overlay and the
// shared test trace, returning the result and the base overlay's merged
// message total.
func runReplay(t *testing.T, instances []Instance, workers int) (*Result, uint64) {
	t.Helper()
	const n = 400
	net := testNet(n, 22)
	res, err := RunScheduled(instances, net, testTrace(t, n), Config{Cadence: 20},
		func() *xrand.Rand { return xrand.New(23) }, workers)
	if err != nil {
		t.Fatal(err)
	}
	return res, net.Counter().Total()
}

func sameSeries(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// NaN marks off-schedule/failed ticks; bit-equality must treat
		// matching NaNs as equal.
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// assertSameResult asserts every deterministic field of two monitor
// results is bitwise identical.
func assertSameResult(t *testing.T, want, got *Result) {
	t.Helper()
	if !sameSeries(want.Times, got.Times) || !sameSeries(want.TrueSizes, got.TrueSizes) {
		t.Fatalf("time grid or true sizes %v %v, want %v %v", got.Times, got.TrueSizes, want.Times, want.TrueSizes)
	}
	for k := range want.Names {
		assertSameInstance(t, want, k, got, k)
	}
}

// assertSameInstance asserts instance gk of got is bitwise identical to
// instance wk of want at every time of got's grid, which must be a
// subset of want's (a solo run on a slower cadence samples fewer), and
// in its counts and message total.
func assertSameInstance(t *testing.T, want *Result, wk int, got *Result, gk int) {
	t.Helper()
	name := want.Names[wk]
	if got.Names[gk] != name {
		t.Fatalf("instance %d is %q, want %q", gk, got.Names[gk], name)
	}
	j := 0
	for i, at := range want.Times {
		if j == len(got.Times) || got.Times[j] != at {
			continue
		}
		w := []float64{want.TrueSizes[i], want.Raw[wk][i], want.Smoothed[wk][i], want.Staleness[wk][i]}
		g := []float64{got.TrueSizes[j], got.Raw[gk][j], got.Smoothed[gk][j], got.Staleness[gk][j]}
		if !sameSeries(w, g) {
			t.Errorf("%s at t=%g: true size, raw, smoothed, staleness %v, want %v", name, at, g, w)
			return
		}
		j++
	}
	if j != len(got.Times) {
		t.Errorf("%s: only %d of its %d times are on the reference grid", name, j, len(got.Times))
	}
	if want.Scheduled[wk] != got.Scheduled[gk] || want.Failures[wk] != got.Failures[gk] ||
		want.Restarts[wk] != got.Restarts[gk] || want.Messages[wk] != got.Messages[gk] {
		t.Errorf("%s: scheduled/failures/restarts/messages %d/%d/%d/%d, want %d/%d/%d/%d", name,
			got.Scheduled[gk], got.Failures[gk], got.Restarts[gk], got.Messages[gk],
			want.Scheduled[wk], want.Failures[wk], want.Restarts[wk], want.Messages[wk])
	}
}

// TestSharedReplayGroupAccounting pins the count Groups reports:
// equal-cadence read-only instances count once, distinct cadences
// apart, and mutating or capability-less estimators once each.
func TestSharedReplayGroupAccounting(t *testing.T) {
	res, _ := runReplay(t, []Instance{
		{Estimator: roTruth{"ro-a"}},                 // cadence 20 (config)
		{Estimator: roTruth{"ro-b"}},                 // ro-a's class
		{Estimator: roTruth{"ro-slow"}, Cadence: 40}, // a class of its own
		{Estimator: truthEstimator{}},                // no capability: counted by itself
		{Estimator: roTruth{"ro-c"}},                 // ro-a's class
		{Estimator: &mutatingTruth{}},                // declared mutating: counted by itself
	}, 1)
	// {ro-a, ro-b, ro-c}, {ro-slow}, {truth}, {mutating} = 4.
	if res.Groups != 4 {
		t.Fatalf("groups = %d, want 4", res.Groups)
	}
}

// mutatingTruth declares the mutating capability (the cyclon-backed
// families' shape) without writing anything.
type mutatingTruth struct{}

func (*mutatingTruth) Name() string { return "mutating-truth" }
func (*mutatingTruth) Estimate(net *overlay.Network) (float64, error) {
	return float64(net.Size()), nil
}
func (*mutatingTruth) MutatesOverlay() bool { return true }

// monitorAllocDelta measures the process TotalAlloc growth of one
// monitoring run. net and tr are built by the caller, outside the
// measurement; workers=1 keeps the allocation sequence deterministic.
func monitorAllocDelta(t *testing.T, net *overlay.Network, tr *trace.Trace, instances []Instance) uint64 {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunScheduled(instances, net, tr, Config{Cadence: 20},
		func() *xrand.Rand { return xrand.New(61) }, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// soloAllocDelta is the expensive arm of the footprint tests: every
// instance in a run of its own, so a replay and a trunk per instance.
func soloAllocDelta(t *testing.T, net *overlay.Network, tr *trace.Trace, instances []Instance) uint64 {
	t.Helper()
	var sum uint64
	for k := range instances {
		sum += monitorAllocDelta(t, net, tr, instances[k:k+1])
	}
	return sum
}

// TestMonitorFootprintSharedGroups asserts the memory claim directly:
// six read-only instances in one run allocate a small fraction of what
// they do in six solo runs — one replay's churn instead of six. A
// declared mutator estimates on a view like any instance: beside a
// read-only instance it allocates within 10 % of a second read-only
// one. Zero-cost truth estimators keep estimator allocations out of the
// measurement.
func TestMonitorFootprintSharedGroups(t *testing.T) {
	const n = 20000
	net := testNet(n, 60)
	tr, err := trace.Generate(trace.Config{
		Name:    "footprint",
		Initial: n,
		Horizon: 100,
		Session: trace.SessionDist{Kind: trace.Weibull, Mean: 100, Shape: 0.7},
	}, xrand.New(62))
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []Instance {
		ins := make([]Instance, 6)
		for k := range ins {
			ins[k] = Instance{Estimator: roTruth{"ro"}}
		}
		return ins
	}
	soloAlloc := soloAllocDelta(t, net, tr, mk())
	shAlloc := monitorAllocDelta(t, net, tr, mk())
	if shAlloc*10 >= soloAlloc*7 {
		t.Fatalf("shared replay allocated %d bytes vs %d in solo runs; want < 70%%", shAlloc, soloAlloc)
	}
	twoRO := monitorAllocDelta(t, net, tr, []Instance{{Estimator: roTruth{"ro"}}, {Estimator: roTruth{"ro"}}})
	withMut := monitorAllocDelta(t, net, tr, []Instance{{Estimator: roTruth{"ro"}}, {Estimator: &mutatingTruth{}}})
	if withMut*10 > twoRO*11 {
		t.Fatalf("a declared mutator beside a read-only instance allocated %d bytes vs %d for two read-only; want within 10%%",
			withMut, twoRO)
	}
}

// TestSharedCloneFootprint1M is the paper-scale version of the
// footprint claim: at one million nodes, replay memory must scale with
// runs, not instances. Named outside the targeted -race patterns on
// purpose — a million-node replay under the race detector buys nothing
// the 20k test does not already prove.
func TestSharedCloneFootprint1M(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-node footprint test skipped in -short mode")
	}
	const n = 1000000
	net := testNet(n, 63)
	tr, err := trace.Generate(trace.Config{
		Name:    "footprint-1m",
		Initial: n,
		Horizon: 50,
		// Long mean sessions: enough churn to force COW page copies,
		// little enough that trace generation is not the test's cost.
		Session: trace.SessionDist{Kind: trace.Weibull, Mean: 500, Shape: 0.7},
	}, xrand.New(64))
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []Instance {
		ins := make([]Instance, 4)
		for k := range ins {
			ins[k] = Instance{Estimator: roTruth{"ro"}}
		}
		return ins
	}
	soloAlloc := soloAllocDelta(t, net, tr, mk())
	shAlloc := monitorAllocDelta(t, net, tr, mk())
	// Four instances, one replay: the shared run must land well under
	// half the bill of four solo runs (the residue is the one replay
	// itself plus per-instance series bookkeeping).
	if shAlloc*2 >= soloAlloc {
		t.Fatalf("1M shared replay allocated %d bytes vs %d in solo runs; want < 50%%", shAlloc, soloAlloc)
	}
}

// TestSharedReplay10M is the 10M-node shared-replay smoke, gated behind
// P2PSIZE_10M=1 (CI's bench job sets it; the default test tier does
// not build 10M-node overlays). Two cheap read-only families share one
// clone and one replay of a 10M-initial trace.
func TestSharedReplay10M(t *testing.T) {
	if os.Getenv("P2PSIZE_10M") == "" {
		t.Skip("set P2PSIZE_10M=1 to run the 10M shared-replay smoke")
	}
	const n = 10000000
	tr, err := trace.Generate(trace.Config{
		Name:    "10m-smoke",
		Initial: n,
		Horizon: 30,
		Session: trace.SessionDist{Kind: trace.Weibull, Mean: 300, Shape: 0.7},
	}, xrand.New(77))
	if err != nil {
		t.Fatal(err)
	}
	net := overlay.New(graph.Heterogeneous(n, 10, xrand.New(78)), 10, nil)
	var ins []Instance
	for _, name := range []string{"dht", "samplecollide"} {
		d, ok := registry.Get(name)
		if !ok {
			t.Fatalf("registry family %q missing", name)
		}
		e, err := d.Build(nil, xrand.New(79+d.StreamOffset), registry.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, Instance{Estimator: e})
	}
	res, err := RunScheduled(ins, net, tr, Config{Cadence: 10},
		func() *xrand.Rand { return xrand.New(80) }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups != 1 {
		t.Fatalf("10M smoke used %d replay groups, want 1 shared group", res.Groups)
	}
	if len(res.Times) != 3 {
		t.Fatalf("10M smoke sampled %d ticks, want 3", len(res.Times))
	}
	for k := range ins {
		got := false
		for _, v := range res.Raw[k] {
			if !math.IsNaN(v) && v > 0 {
				got = true
			}
		}
		if !got {
			t.Fatalf("%s produced no usable estimate at 10M", res.Names[k])
		}
	}
}
