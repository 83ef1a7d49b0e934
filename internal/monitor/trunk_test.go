package monitor

// Trunk tests: a run replays its timeline once, on one trunk, and the
// instances due at a tick estimate side by side, each on its own view
// of it. One roster — every monitoring-capable registry family, a
// member that fails on a schedule, a fault-decorated member and a
// member on its own cadence — is held bit for bit, at
// workers 1, 2 and 8, on the trace clock (TestTrunkMatchesSoloRuns) and
// on the step clock (TestRunScenarioMatchesSequential,
// TestTrunkScenarioMatchesSoloRuns), to sequential, where the instances
// estimate in turn on one overlay the timeline mutates in place — no
// trunk, no views, no pool — and each instance's solo run, in a monitor
// call of its own, to it. CI runs them under -race -count=10.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"p2psize/internal/churn"
	"p2psize/internal/core"
	"p2psize/internal/fault"
	"p2psize/internal/hopssampling"
	"p2psize/internal/model"
	"p2psize/internal/overlay"
	"p2psize/internal/registry"
	"p2psize/internal/samplecollide"
	"p2psize/internal/trace"
	"p2psize/internal/xrand"
)

// failEvery fails every n-th call without consulting the wrapped
// estimator.
type failEvery struct {
	core.Estimator
	n, calls int
}

func (e *failEvery) Estimate(net *overlay.Network) (float64, error) {
	if e.calls++; e.calls%e.n == 0 {
		return 0, errors.New("scheduled failure")
	}
	return e.Estimator.Estimate(net)
}

// monitorRoster builds one fresh instance of every monitoring-capable
// registry family, each on the run's cadence.
func monitorRoster(t *testing.T, seed uint64) []Instance {
	t.Helper()
	var ins []Instance
	for _, d := range registry.All() {
		if d.Snapshot {
			continue
		}
		e, err := d.Build(nil, xrand.New(seed+d.StreamOffset), registry.Options{})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		ins = append(ins, Instance{Estimator: e})
	}
	if len(ins) < 5 {
		t.Fatalf("only %d monitoring families in the registry", len(ins))
	}
	return ins
}

// trunkRoster is monitorRoster plus three members that carry a claim
// of their own, for a run on cadence: one that fails every third
// estimate, a Hops Sampling under a lossy, duplicating, NAT-limited
// injector, and a Sample&Collide on 1.5 times the cadence, so the union
// grid holds times the others are not due at.
func trunkRoster(t *testing.T, cadence float64) []Instance {
	inj := fault.NewInjector(fault.Spec{Drop: 0.2, Dup: 0.1, NATFrac: 0.1}, xrand.New(73))
	return append(monitorRoster(t, 500),
		Instance{Estimator: &failEvery{Estimator: samplecollide.New(samplecollide.Config{T: 5, L: 10}, xrand.New(102)), n: 3}},
		Instance{Estimator: fault.Decorate(hopssampling.New(hopssampling.Default(), xrand.New(72)), inj)},
		Instance{Estimator: samplecollide.New(samplecollide.Config{T: 5, L: 20}, xrand.New(71)), Cadence: 1.5 * cadence},
	)
}

// sequential is the reference a run is held to: at each time of the
// union grid, timeline advances net itself, and the instances due then
// estimate on it in turn, in instance order, each one's traffic read as
// the counter delta around its call. It shares no code with sample but
// the schedule arithmetic and the smoother. It returns net's counter
// total beside the result.
func sequential(t *testing.T, instances []Instance, cfg Config, horizon float64, net *overlay.Network, timeline Timeline) (*Result, uint64) {
	t.Helper()
	n := len(instances)
	res := &Result{
		Names: make([]string, n), Raw: make([][]float64, n), Smoothed: make([][]float64, n),
		Staleness: make([][]float64, n), Scheduled: make([]int, n), Failures: make([]int, n),
		Restarts: make([]int, n), Messages: make([]uint64, n),
	}
	scheds := make([][]float64, n)
	sms := make([]*smoother, n)
	for k, in := range instances {
		c := cfg.Cadence
		if in.Cadence != 0 {
			c = in.Cadence
		}
		var err error
		if scheds[k], err = schedule(c, horizon); err != nil {
			t.Fatal(err)
		}
		sms[k] = newSmoother(cfg.Policy)
		res.Names[k] = in.Estimator.Name()
	}
	res.Times = unionGrid(scheds)
	for _, at := range res.Times {
		if err := timeline.AdvanceTo(net, at); err != nil {
			t.Fatal(err)
		}
		res.TrueSizes = append(res.TrueSizes, float64(net.Size()))
		for k, in := range instances {
			raw := math.NaN()
			if slices.Contains(scheds[k], at) {
				res.Scheduled[k]++
				before := net.Counter().Total()
				v, err := in.Estimator.Estimate(net)
				res.Messages[k] += net.Counter().Total() - before
				if err != nil {
					res.Failures[k]++
				} else {
					raw = v
					sms[k].add(v, at)
				}
			}
			served, stale := sms[k].current(at)
			res.Raw[k] = append(res.Raw[k], raw)
			res.Smoothed[k] = append(res.Smoothed[k], served)
			res.Staleness[k] = append(res.Staleness[k], stale)
		}
	}
	for k, sm := range sms {
		res.Restarts[k] = sm.restarts
	}
	return res, net.Counter().Total()
}

// clock is one of the two ways a run advances: how the monitor runs a
// roster on it, and the timeline the reference advances its own overlay
// with. Every run starts from testNet(trunkN, 22).
type clock struct {
	cfg      Config
	horizon  float64
	run      func(ins []Instance, net *overlay.Network, workers int) (*Result, error)
	timeline func(net *overlay.Network) Timeline
}

const trunkN = 400

var trunkWindow = Policy{Smoothing: Window, Window: 3}

// traceClock replays a generated trace, sampled every 20 time units.
func traceClock(t *testing.T) clock {
	tr := testTrace(t, trunkN)
	cfg := Config{Cadence: 20, Policy: trunkWindow}
	return clock{cfg, tr.Horizon,
		func(ins []Instance, net *overlay.Network, workers int) (*Result, error) {
			return RunScheduled(ins, net, tr, cfg, func() *xrand.Rand { return xrand.New(23) }, workers)
		},
		func(net *overlay.Network) Timeline {
			p, err := trace.NewPlayer(tr, net)
			if err != nil {
				t.Fatal(err)
			}
			return tracePlayer{p, xrand.New(23)}
		}}
}

// stepClock runs a catastrophic churn scenario, sampled every `every`
// steps.
func stepClock(every float64) clock {
	sc := churn.Catastrophic(trunkN, 28)
	cfg := Config{Cadence: every, Policy: trunkWindow}
	return clock{cfg, float64(sc.TotalSteps),
		func(ins []Instance, net *overlay.Network, workers int) (*Result, error) {
			return RunScenario(ins, net, sc, cfg, func() *xrand.Rand { return xrand.New(55) }, workers)
		},
		func(*overlay.Network) Timeline { return churn.NewRunner(sc, xrand.New(55)) }}
}

// reference runs the roster through sequential and checks that its
// scheduled failures fire.
func (ck clock) reference(t *testing.T) (*Result, uint64) {
	t.Helper()
	net := testNet(trunkN, 22)
	ref, msgs := sequential(t, trunkRoster(t, ck.cfg.Cadence), ck.cfg, ck.horizon, net, ck.timeline(net))
	if ref.Failures[len(ref.Names)-3] == 0 {
		t.Fatal("the scheduled failures never fired")
	}
	return ref, msgs
}

// assertJoint runs the whole roster at workers and holds it to the
// reference bit for bit — every series and count, and the merged base
// counter — and checks that it leaves its input overlay as it was.
func (ck clock) assertJoint(t *testing.T, ref *Result, refMsgs uint64, workers int) {
	t.Helper()
	input := model.FromGraph(testNet(trunkN, 22).Graph())
	net := testNet(trunkN, 22)
	got, err := ck.run(trunkRoster(t, ck.cfg.Cadence), net, workers)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, ref, got)
	if msgs := net.Counter().Total(); msgs != refMsgs {
		t.Fatalf("merged base counter %d, the reference's %d", msgs, refMsgs)
	}
	if err := input.Diff(net.Graph()); err != nil {
		t.Fatalf("the input overlay changed: %v", err)
	}
}

// assertSolo runs each instance of the roster alone at workers and holds
// it to the reference at the times of its own schedule.
func (ck clock) assertSolo(t *testing.T, ref *Result, workers int) {
	t.Helper()
	for k := range ref.Names {
		solo, err := ck.run(trunkRoster(t, ck.cfg.Cadence)[k:k+1], testNet(trunkN, 22), workers)
		if err != nil {
			t.Fatal(err)
		}
		assertSameInstance(t, ref, k, solo, 0)
	}
}

// TestTrunkMatchesSoloRuns: on the trace clock, the roster reproduces
// the sequential reference at workers 1, 2 and 8, and each instance's
// solo run reproduces it at the times of its own schedule.
func TestTrunkMatchesSoloRuns(t *testing.T) {
	ck := traceClock(t)
	ref, refMsgs := ck.reference(t)
	ck.assertSolo(t, ref, 1)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ck.assertJoint(t, ref, refMsgs, workers)
		})
	}
}

// TestRunScenarioMatchesSequential: on the step clock, every 1 and 7
// steps, the roster reproduces the sequential reference at workers 1, 2
// and 8.
func TestRunScenarioMatchesSequential(t *testing.T) {
	for _, every := range []float64{1, 7} {
		ck := stepClock(every)
		ref, refMsgs := ck.reference(t)
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("every=%g/workers=%d", every, workers), func(t *testing.T) {
				ck.assertJoint(t, ref, refMsgs, workers)
			})
		}
	}
}

// TestTrunkScenarioMatchesSoloRuns: on the step clock, every 1 and 7
// steps, each instance's solo run at workers 1, 2 and 8 reproduces the
// sequential reference at the times of its own schedule.
func TestTrunkScenarioMatchesSoloRuns(t *testing.T) {
	clocks := []clock{stepClock(1), stepClock(7)}
	refs := make([]*Result, len(clocks))
	for c, ck := range clocks {
		refs[c], _ = ck.reference(t)
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for c, ck := range clocks {
				ck.assertSolo(t, refs[c], workers)
			}
		})
	}
}
