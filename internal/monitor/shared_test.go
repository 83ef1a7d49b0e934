package monitor

// Shared-replay tests: folding read-only cadence classes onto views of
// the trunk must be a pure layout change — series, metrics and message
// attribution byte-identical to the same instances each on a COW clone
// of its own (the alone layout below), across worker counts and seeds —
// while actually sharing (group accounting and allocation-footprint
// assertions against solo runs, which replay once per instance).

import (
	"math"
	"os"
	"runtime"
	"testing"

	"p2psize/internal/core"
	"p2psize/internal/graph"
	"p2psize/internal/overlay"
	"p2psize/internal/registry"
	"p2psize/internal/samplecollide"
	"p2psize/internal/trace"
	"p2psize/internal/xrand"
)

// roTruth is truthEstimator plus the observe-only capability marker —
// eligible for shared-replay grouping, unlike the unmarked (and
// therefore conservatively mutating) truthEstimator.
type roTruth struct{ name string }

func (e roTruth) Name() string { return e.name }
func (e roTruth) Estimate(net *overlay.Network) (float64, error) {
	return float64(net.Size()), nil
}
func (roTruth) MutatesOverlay() bool { return false }

// private is the test-only second layout: it declares its estimator
// mutating, so replayGroups gives it a group of its own and the tick a
// COW clone of the trunk to estimate on, in the same run, on the same
// grid. No estimator below writes its clone.
type private struct{ core.Estimator }

func (private) MutatesOverlay() bool { return true }

// alone puts every instance on a clone of its own.
func alone(instances []Instance) []Instance {
	for k := range instances {
		instances[k].Estimator = private{instances[k].Estimator}
	}
	return instances
}

// monitorRoster builds one fresh instance of every monitoring-capable
// registry family (both sharing classes: the observe-only walkers and
// the cyclon-backed gossip families), each on the default cadence so
// the whole read-only class folds into one group.
func monitorRoster(t *testing.T, seed uint64) []Instance {
	t.Helper()
	var ins []Instance
	for _, d := range registry.All() {
		if !d.SupportsMonitoring {
			continue
		}
		e, err := d.Build(nil, xrand.New(seed+d.StreamOffset), registry.Options{})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		ins = append(ins, Instance{Estimator: e})
	}
	if len(ins) < 4 {
		t.Fatalf("roster too small to exercise grouping: %d families", len(ins))
	}
	return ins
}

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
		t.Fatal("time grid or true-size trajectory diverged between replay layouts")
	}
	for k := range want.Names {
		if want.Names[k] != got.Names[k] {
			t.Fatalf("instance %d name %q != %q", k, got.Names[k], want.Names[k])
		}
		if !sameSeries(want.Raw[k], got.Raw[k]) {
			t.Errorf("%s: raw series diverged", want.Names[k])
		}
		if !sameSeries(want.Smoothed[k], got.Smoothed[k]) {
			t.Errorf("%s: smoothed series diverged", want.Names[k])
		}
		if !sameSeries(want.Staleness[k], got.Staleness[k]) {
			t.Errorf("%s: staleness series diverged", want.Names[k])
		}
		if want.Scheduled[k] != got.Scheduled[k] || want.Failures[k] != got.Failures[k] ||
			want.Restarts[k] != got.Restarts[k] {
			t.Errorf("%s: scheduled/failures/restarts %d/%d/%d != %d/%d/%d", want.Names[k],
				got.Scheduled[k], got.Failures[k], got.Restarts[k],
				want.Scheduled[k], want.Failures[k], want.Restarts[k])
		}
		if want.Messages[k] != got.Messages[k] {
			t.Errorf("%s: message attribution %d != %d", want.Names[k], got.Messages[k], want.Messages[k])
		}
	}
}

// TestSharedReplayBitEqualAllFamilies is the equivalence proof over the
// real catalog: every monitoring-capable family runs grouped, alone and
// in solo runs, and every per-instance series, metric and message count
// must be bitwise identical — shared replay is a memory layout, never
// an output change.
func TestSharedReplayBitEqualAllFamilies(t *testing.T) {
	perRes, perMsgs := runReplay(t, alone(monitorRoster(t, 400)), 4)
	shRes, shMsgs := runReplay(t, monitorRoster(t, 400), 4)
	assertSameResult(t, perRes, shRes)
	if perMsgs != shMsgs {
		t.Fatalf("merged base-counter totals diverged: %d != %d", shMsgs, perMsgs)
	}
	solo, soloMsgs := soloRuns(t, func() []Instance { return monitorRoster(t, 400) },
		func(ins []Instance) (*Result, uint64) { return runReplay(t, ins, 1) })
	assertSameResult(t, solo, shRes)
	if soloMsgs != shMsgs {
		t.Fatalf("merged totals %d vs %d over solo runs", shMsgs, soloMsgs)
	}
	if perRes.Groups != len(perRes.Names) {
		t.Fatalf("the alone reference used %d groups for %d instances", perRes.Groups, len(perRes.Names))
	}
	// All read-only families fold into ONE group (uniform cadence);
	// each mutating family stays alone.
	mutating := 0
	for _, in := range monitorRoster(t, 400) {
		if core.MutatesOverlay(in.Estimator) {
			mutating++
		}
	}
	if want := mutating + 1; shRes.Groups != want {
		t.Fatalf("grouped run used %d groups, want %d (%d mutating + 1 read-only class)",
			shRes.Groups, want, mutating)
	}
}

// TestSharedReplayGroupAccounting pins the grouping rules: equal-cadence
// read-only instances share, distinct cadences split, and mutating or
// capability-less estimators stay in singleton groups.
func TestSharedReplayGroupAccounting(t *testing.T) {
	instances := func() []Instance {
		return []Instance{
			{Estimator: roTruth{"ro-a"}},                 // cadence 20 (config)
			{Estimator: roTruth{"ro-b"}},                 // shares ro-a's group
			{Estimator: roTruth{"ro-slow"}, Cadence: 40}, // own cadence, own group
			{Estimator: truthEstimator{}},                // no capability: conservative singleton
			{Estimator: roTruth{"ro-c"}},                 // joins the first group
			{Estimator: &mutatingTruth{}},                // declared mutating: singleton
		}
	}
	perRes, _ := runReplay(t, alone(instances()), 1)
	shRes, _ := runReplay(t, instances(), 1)
	if perRes.Groups != 6 {
		t.Fatalf("alone groups = %d, want 6", perRes.Groups)
	}
	// {ro-a, ro-b, ro-c}, {ro-slow}, {truth}, {mutating} = 4 groups.
	if shRes.Groups != 4 {
		t.Fatalf("shared groups = %d, want 4", shRes.Groups)
	}
	assertSameResult(t, perRes, shRes)
}

// mutatingTruth declares the mutating capability explicitly (the
// cyclon-backed families' shape) without actually rewiring anything, so
// grouping decisions stay observable on a cheap estimator.
type mutatingTruth struct{}

func (*mutatingTruth) Name() string { return "mutating-truth" }
func (*mutatingTruth) Estimate(net *overlay.Network) (float64, error) {
	return float64(net.Size()), nil
}
func (*mutatingTruth) MutatesOverlay() bool { return true }

// TestSharedReplayWorkerInvariance re-proves the monitor's worker
// contract over mixed groups: groups land on the pool in any order, output
// never moves.
func TestSharedReplayWorkerInvariance(t *testing.T) {
	mk := func() []Instance {
		return []Instance{
			{Estimator: roTruth{"ro-a"}},
			{Estimator: roTruth{"ro-b"}, Cadence: 40},
			{Estimator: roTruth{"ro-c"}},
			{Estimator: &mutatingTruth{}},
		}
	}
	base, baseMsgs := runReplay(t, mk(), 1)
	for _, workers := range []int{2, 8} {
		res, msgs := runReplay(t, mk(), workers)
		assertSameResult(t, base, res)
		if msgs != baseMsgs {
			t.Fatalf("workers=%d merged totals diverged: %d != %d", workers, msgs, baseMsgs)
		}
	}
}

// TestSharedReplayStatisticalEnvelope runs a real (noisy) estimator over
// 30 seeds in both layouts. Bit-equality per seed is the hard guarantee;
// the aggregated error envelope (mean/stddev of MAPE) is additionally
// compared, which is what a statistics-level reviewer would check if
// the layouts were merely "equivalent" rather than identical.
func TestSharedReplayStatisticalEnvelope(t *testing.T) {
	const runs = 30
	envelope := func(layout func([]Instance) []Instance) (mean, std float64) {
		mapes := make([]float64, 0, runs)
		for seed := uint64(1); seed <= runs; seed++ {
			net := testNet(300, seed)
			tr, err := trace.Generate(trace.Config{
				Name:    "envelope",
				Initial: 300,
				Horizon: 100,
				Session: trace.SessionDist{Kind: trace.Weibull, Mean: 150, Shape: 0.7},
			}, xrand.New(seed+100))
			if err != nil {
				t.Fatal(err)
			}
			// Three same-cadence Sample&Collide instances: grouped they
			// ride one clone, alone three.
			ins := make([]Instance, 3)
			for k := range ins {
				ins[k] = Instance{Estimator: samplecollide.New(
					samplecollide.Config{T: 5, L: 30}, xrand.New(seed+200+uint64(k)))}
			}
			res, err := RunScheduled(layout(ins), net, tr, Config{Cadence: 25},
				func() *xrand.Rand { return xrand.New(seed + 300) }, 2)
			if err != nil {
				t.Fatal(err)
			}
			for k := range ins {
				if m := res.MAPE(k); !math.IsNaN(m) {
					mapes = append(mapes, m)
				}
			}
		}
		if len(mapes) == 0 {
			t.Fatal("no usable estimates in the envelope sweep")
		}
		for _, m := range mapes {
			mean += m
		}
		mean /= float64(len(mapes))
		for _, m := range mapes {
			std += (m - mean) * (m - mean)
		}
		return mean, math.Sqrt(std / float64(len(mapes)))
	}
	perMean, perStd := envelope(alone)
	shMean, shStd := envelope(func(ins []Instance) []Instance { return ins })
	// The layouts are bit-equal run for run, so the envelopes must agree
	// exactly — any drift means the grouping leaked into the estimates.
	if math.Float64bits(perMean) != math.Float64bits(shMean) ||
		math.Float64bits(perStd) != math.Float64bits(shStd) {
		t.Fatalf("error envelopes diverged: alone %.6g±%.6g, shared %.6g±%.6g",
			perMean, perStd, shMean, shStd)
	}
}

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
// declared mutator that never writes costs its tick clones' page
// pointers and nothing more: beside a read-only instance it allocates
// within 10 % of a second read-only one. Zero-cost truth estimators
// keep estimator allocations out of the measurement.
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
		t.Fatalf("a declared, non-writing mutator beside a read-only instance allocated %d bytes vs %d for two read-only; want within 10%%",
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
