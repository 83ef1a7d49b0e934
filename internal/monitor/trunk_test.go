package monitor

// Trunk tests: one timeline per run, and every instance — declared
// mutators too — on its own view of the trunk. The references share no
// layout with the run they check: solo runs (each instance in a monitor
// call of its own, on the same inputs), and a sequential private replay
// that shares no code with sample at all. CI runs them under -race
// -count=10.

import (
	"fmt"
	"math"
	"testing"

	"p2psize/internal/aggregation"
	"p2psize/internal/churn"
	"p2psize/internal/core"
	"p2psize/internal/hopssampling"
	"p2psize/internal/overlay"
	"p2psize/internal/samplecollide"
	"p2psize/internal/trace"
	"p2psize/internal/xrand"
)

// trunkRoster mixes observe-only families, a truth probe and two
// declared mutators, which only read like every estimator (a cheap one
// and Aggregation).
func trunkRoster() []Instance {
	return []Instance{
		{Estimator: samplecollide.New(samplecollide.Config{T: 5, L: 20}, xrand.New(91))},
		{Estimator: &mutatingTruth{}},
		{Estimator: roTruth{"ro"}},
		{Estimator: aggregation.NewEstimator(aggregation.Config{RoundsPerEpoch: 8, Workers: 1}, xrand.New(92))},
		{Estimator: hopssampling.New(hopssampling.Default(), xrand.New(93))},
	}
}

// soloRuns runs instance k of every fresh roster mk() in a monitor call
// of its own (run), and splices the solo results into one Result in
// instance order, with the base overlays' merged message total. Every
// solo run must report the same grid and true sizes.
func soloRuns(t *testing.T, mk func() []Instance, run func([]Instance) (*Result, uint64)) (*Result, uint64) {
	t.Helper()
	n := len(mk())
	out := &Result{
		Names: make([]string, n), Raw: make([][]float64, n), Smoothed: make([][]float64, n),
		Staleness: make([][]float64, n), Scheduled: make([]int, n), Failures: make([]int, n),
		Restarts: make([]int, n), Messages: make([]uint64, n),
	}
	var total uint64
	for k := range n {
		res, msgs := run(mk()[k : k+1])
		if k == 0 {
			out.Times, out.TrueSizes = res.Times, res.TrueSizes
		} else if !sameSeries(res.Times, out.Times) || !sameSeries(res.TrueSizes, out.TrueSizes) {
			t.Fatalf("solo run %d (%s) saw another trajectory", k, res.Names[0])
		}
		out.Names[k], out.Raw[k], out.Smoothed[k], out.Staleness[k] = res.Names[0], res.Raw[0], res.Smoothed[0], res.Staleness[0]
		out.Scheduled[k], out.Failures[k], out.Restarts[k], out.Messages[k] = res.Scheduled[0], res.Failures[0], res.Restarts[0], res.Messages[0]
		total += msgs
	}
	return out, total
}

// replaySequential is the reference with no code in common with
// sample: one instance alone on a private overlay that a trace.Player
// mutates in place, estimating on that overlay itself after every
// advance, its traffic read as the counter delta around the call.
func replaySequential(t *testing.T, e core.Estimator, net *overlay.Network, tr *trace.Trace, cadence float64, rng *xrand.Rand) (raw []float64, msgs uint64) {
	t.Helper()
	player, err := trace.NewPlayer(tr, net)
	if err != nil {
		t.Fatal(err)
	}
	times, err := schedule(cadence, tr.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range times {
		player.AdvanceTo(net, at, rng)
		before := net.Counter().Total()
		v, err := e.Estimate(net)
		msgs += net.Counter().Total() - before
		if err != nil {
			raw = append(raw, math.NaN())
			continue
		}
		raw = append(raw, v)
	}
	return raw, msgs
}

// assertTrunkRun holds a mixed run to the solo runs bit for bit, the
// group count to the roster and the merged traffic to the solo total.
func assertTrunkRun(t *testing.T, solo *Result, soloMsgs uint64, got *Result, gotMsgs uint64) {
	t.Helper()
	assertSameResult(t, solo, got)
	if gotMsgs != soloMsgs {
		t.Fatalf("merged base counter %d != %d over the solo runs", gotMsgs, soloMsgs)
	}
	if got.Groups != 3 {
		t.Fatalf("%d groups, want 3", got.Groups)
	}
}

// TestTrunkMatchesSoloRuns: a roster that mixes read-only members and
// declared mutators reproduces, at every worker count,
// what each instance produces in a RunScheduled call of its own — and
// each solo run reproduces the sequential private replay.
func TestTrunkMatchesSoloRuns(t *testing.T) {
	const n, cadence = 3000, 20
	tr := testTrace(t, n)
	run := func(workers int) func([]Instance) (*Result, uint64) {
		return func(ins []Instance) (*Result, uint64) {
			net := testNet(n, 22)
			res, err := RunScheduled(ins, net, tr, Config{Cadence: cadence},
				func() *xrand.Rand { return xrand.New(23) }, workers)
			if err != nil {
				t.Fatal(err)
			}
			return res, net.Counter().Total()
		}
	}
	solo, soloMsgs := soloRuns(t, trunkRoster, run(1))
	for k, in := range trunkRoster() {
		raw, msgs := replaySequential(t, in.Estimator, testNet(n, 22), tr, cadence, xrand.New(23))
		if !sameSeries(raw, solo.Raw[k]) || msgs != solo.Messages[k] {
			t.Fatalf("%s alone reads %v (%d messages), its private replay %v (%d)",
				solo.Names[k], solo.Raw[k], solo.Messages[k], raw, msgs)
		}
		if solo.Failures[k] != 0 {
			t.Fatalf("%s failed %d times alone", solo.Names[k], solo.Failures[k])
		}
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, gotMsgs := run(workers)(trunkRoster())
			assertTrunkRun(t, solo, soloMsgs, got, gotMsgs)
		})
	}
}

// TestTrunkScenarioMatchesSoloRuns is the same proof on the step clock:
// RunScenario's one churn.Runner against solo RunScenario calls and the
// single-instance sequential loop.
func TestTrunkScenarioMatchesSoloRuns(t *testing.T) {
	const n, every = 3000, 7
	sc := churn.Catastrophic(n, 63)
	run := func(workers int) func([]Instance) (*Result, uint64) {
		return func(ins []Instance) (*Result, uint64) {
			net := testNet(n, 6)
			res, err := RunScenario(ins, net, sc, Config{Cadence: every},
				func() *xrand.Rand { return xrand.New(55) }, workers)
			if err != nil {
				t.Fatal(err)
			}
			return res, net.Counter().Total()
		}
	}
	solo, soloMsgs := soloRuns(t, trunkRoster, run(1))
	for k, in := range trunkRoster() {
		seq := scenarioSequential([]core.Estimator{in.Estimator}, testNet(n, 6), sc, every, xrand.New(55))
		if !sameSeries(seq.Raw[0], solo.Raw[k]) || seq.Messages[0] != solo.Messages[k] {
			t.Fatalf("%s alone reads %v (%d messages), its sequential run %v (%d)",
				solo.Names[k], solo.Raw[k], solo.Messages[k], seq.Raw[0], seq.Messages[0])
		}
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, gotMsgs := run(workers)(trunkRoster())
			assertTrunkRun(t, solo, soloMsgs, got, gotMsgs)
		})
	}
}
