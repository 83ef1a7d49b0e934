package churn

import (
	"math"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

func newNet(n int, seed uint64) *overlay.Network {
	return overlay.New(graph.Heterogeneous(n, 10, xrand.New(seed)), 10, nil)
}

func runAll(s Scenario, net *overlay.Network, seed uint64) {
	r := NewRunner(s, xrand.New(seed))
	for step := 0; step < s.TotalSteps; step++ {
		r.Step(net, step)
	}
}

// joinsAndDrops counts the peers a runner added to and removed from a
// fresh overlay of n0 peers: every join allocates a new id, and every
// id not alive has left.
func joinsAndDrops(net *overlay.Network, n0 int) (joins, drops int) {
	ids := net.Graph().NumIDs()
	return ids - n0, ids - net.Size()
}

func TestStaticScenario(t *testing.T) {
	net := newNet(200, 1)
	runAll(Scenario{Name: "static", TotalSteps: 100}, net, 2)
	if net.Size() != 200 {
		t.Fatalf("static scenario changed size to %d", net.Size())
	}
}

func TestGrowingReachesTarget(t *testing.T) {
	const n0, steps = 1000, 100
	net := newNet(n0, 3)
	runAll(Growing(n0, steps, 0.5), net, 4)
	want := int(1.5 * n0)
	if math.Abs(float64(net.Size()-want)) > 0.02*float64(want) {
		t.Fatalf("grew to %d, want ≈%d", net.Size(), want)
	}
	if _, drops := joinsAndDrops(net, n0); drops != 0 {
		t.Fatalf("growing scenario dropped %d peers", drops)
	}
	if err := net.Graph().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShrinkingReachesTarget(t *testing.T) {
	const n0, steps = 1000, 100
	net := newNet(n0, 5)
	runAll(Shrinking(n0, steps, 0.5), net, 6)
	want := n0 / 2
	if math.Abs(float64(net.Size()-want)) > 0.02*float64(want) {
		t.Fatalf("shrank to %d, want ≈%d", net.Size(), want)
	}
	if joins, _ := joinsAndDrops(net, n0); joins != 0 {
		t.Fatalf("shrinking scenario joined %d peers", joins)
	}
}

func TestCatastrophicShocks(t *testing.T) {
	const n0, steps = 1000, 100
	net := newNet(n0, 7)
	s := Catastrophic(n0, steps)
	r := NewRunner(s, xrand.New(8))
	sizes := make([]int, steps)
	for step := 0; step < steps; step++ {
		r.Step(net, step)
		sizes[step] = net.Size()
	}
	// After the first shock (step 30): ≈750. After the second (step 60):
	// ≈562. After the recovery (step 80): ≈812.
	if got := sizes[35]; math.Abs(float64(got)-750) > 20 {
		t.Fatalf("after first shock size = %d, want ≈750", got)
	}
	if got := sizes[65]; math.Abs(float64(got)-562) > 20 {
		t.Fatalf("after second shock size = %d, want ≈562", got)
	}
	if got := sizes[85]; math.Abs(float64(got)-812) > 25 {
		t.Fatalf("after recovery size = %d, want ≈812", got)
	}
}

func TestAggregationCatastrophicSchedule(t *testing.T) {
	s := AggregationCatastrophic(100000, 10000)
	if len(s.Events) != 3 {
		t.Fatalf("events = %v", s.Events)
	}
	if s.Events[0].Step != 100 || s.Events[1].Step != 500 || s.Events[2].Step != 700 {
		t.Fatalf("steps = %d,%d,%d", s.Events[0].Step, s.Events[1].Step, s.Events[2].Step)
	}
	if s.Events[2].AddCount != 25000 {
		t.Fatalf("AddCount = %d", s.Events[2].AddCount)
	}
}

func TestEventsSortedAndApplied(t *testing.T) {
	net := newNet(100, 9)
	s := Scenario{
		Name:       "outoforder",
		TotalSteps: 10,
		Events: []Event{
			{Step: 5, AddCount: 10},
			{Step: 1, AddCount: 5},
		},
	}
	r := NewRunner(s, xrand.New(10))
	r.Step(net, 0)
	if net.Size() != 100 {
		t.Fatalf("size after step 0 = %d", net.Size())
	}
	r.Step(net, 1)
	if net.Size() != 105 {
		t.Fatalf("size after step 1 = %d", net.Size())
	}
	for step := 2; step <= 5; step++ {
		r.Step(net, step)
	}
	if net.Size() != 115 {
		t.Fatalf("size after step 5 = %d", net.Size())
	}
}

func TestMissedEventsCatchUp(t *testing.T) {
	// If the caller skips steps, pending events still fire.
	net := newNet(100, 11)
	s := Scenario{TotalSteps: 100, Events: []Event{{Step: 3, AddCount: 7}}}
	r := NewRunner(s, xrand.New(12))
	r.Step(net, 50)
	if net.Size() != 107 {
		t.Fatalf("size = %d, want 107", net.Size())
	}
}

func TestFractionalRatesAccumulate(t *testing.T) {
	net := newNet(100, 13)
	s := Scenario{TotalSteps: 40, ArrivalsPerStep: 0.25}
	r := NewRunner(s, xrand.New(14))
	for step := 0; step < 40; step++ {
		r.Step(net, step)
	}
	if net.Size() != 110 {
		t.Fatalf("size = %d, want 110 (0.25 × 40 arrivals)", net.Size())
	}
}

func TestShrinkNeverBelowOne(t *testing.T) {
	net := newNet(10, 15)
	s := Scenario{TotalSteps: 5, DeparturesPerStep: 100}
	r := NewRunner(s, xrand.New(16))
	for step := 0; step < 5; step++ {
		r.Step(net, step)
	}
	if net.Size() < 1 {
		t.Fatalf("size = %d, runner must keep at least one peer", net.Size())
	}
}

func TestFractionalRatesNonDividing(t *testing.T) {
	// Rates that don't divide the step count must carry their remainder
	// in the accumulator, not round per step: 0.3 × 7 = 2.1 → exactly 2
	// joins, with 0.1 left pending.
	net := newNet(100, 21)
	s := Scenario{TotalSteps: 7, ArrivalsPerStep: 0.3}
	r := NewRunner(s, xrand.New(22))
	for step := 0; step < 7; step++ {
		r.Step(net, step)
	}
	if net.Size() != 102 {
		t.Fatalf("size = %d, want 102 (floor of 0.3 × 7 arrivals)", net.Size())
	}
	// Both accumulators at once, neither dividing the horizon: 11 steps
	// of +0.7/−0.4 → 7 joins, 4 drops.
	net2 := newNet(100, 23)
	s2 := Scenario{TotalSteps: 11, ArrivalsPerStep: 0.7, DeparturesPerStep: 0.4}
	r2 := NewRunner(s2, xrand.New(24))
	for step := 0; step < 11; step++ {
		r2.Step(net2, step)
	}
	if joins, drops := joinsAndDrops(net2, 100); joins != 7 || drops != 4 {
		t.Fatalf("joins/drops = %d/%d, want 7/4", joins, drops)
	}
	if net2.Size() != 103 {
		t.Fatalf("size = %d, want 103", net2.Size())
	}
}

func TestShockAtStepZero(t *testing.T) {
	// An event scheduled at step 0 fires before that step's continuous
	// churn, on the untouched initial overlay.
	net := newNet(100, 25)
	s := Scenario{TotalSteps: 10, Events: []Event{{Step: 0, RemoveFraction: 0.25}}}
	NewRunner(s, xrand.New(26)).Step(net, 0)
	if net.Size() != 75 {
		t.Fatalf("size after step-0 shock = %d, want 75", net.Size())
	}
}

func TestRemoveToEmptyFloorsAtOne(t *testing.T) {
	// A RemoveFraction of 1.0 (and any follow-up churn) must leave at
	// least one peer: the overlay floor is part of the runner contract.
	net := newNet(50, 27)
	s := Scenario{
		TotalSteps:        5,
		DeparturesPerStep: 10,
		Events:            []Event{{Step: 0, RemoveFraction: 1.0}},
	}
	r := NewRunner(s, xrand.New(28))
	for step := 0; step < 5; step++ {
		r.Step(net, step)
	}
	if net.Size() != 1 {
		t.Fatalf("size = %d, want exactly 1 after remove-to-empty", net.Size())
	}
	if _, drops := joinsAndDrops(net, 50); drops != 49 {
		t.Fatalf("drops = %d, want 49", drops)
	}
}

func TestStepAddsShockPeers(t *testing.T) {
	net := newNet(100, 19)
	s := Scenario{TotalSteps: 1, Events: []Event{{Step: 0, AddCount: 3}}}
	NewRunner(s, xrand.New(20)).Step(net, 0)
	if joins, drops := joinsAndDrops(net, 100); joins != 3 || drops != 0 || net.Size() != 103 {
		t.Fatalf("joins/drops = %d/%d, size %d; want 3/0, 103", joins, drops, net.Size())
	}
}

// TestRunnerReservesItsJoins: the ids a runner reserves before its first
// step are exactly the ids it adds over TotalSteps — counted without a
// draw, for whole and fractional arrival rates, shocks that add peers,
// and a shock past the horizon, which never fires — and Step reserves
// them itself when its caller did not.
func TestRunnerReservesItsJoins(t *testing.T) {
	scenarios := []Scenario{
		Growing(1000, 50, 0.5),
		Growing(1000, 70, 0.5), // 7.142857… arrivals a step
		Catastrophic(1000, 50),
		AggregationCatastrophic(1000, 400),
		{Name: "mixed", TotalSteps: 90, ArrivalsPerStep: 0.3, DeparturesPerStep: 1.7, Events: []Event{
			{Step: 0, AddCount: 25}, {Step: 40, RemoveFraction: 0.2, AddCount: 11}, {Step: 90, AddCount: 1000},
		}},
	}
	for _, s := range scenarios {
		for _, explicit := range []bool{true, false} {
			net := newNet(1000, 5)
			g := net.Graph()
			before := g.NumIDs()
			r := NewRunner(s, xrand.New(6))
			if explicit {
				r.Reserve(net)
			} else {
				r.AdvanceTo(net, 1) // the first step
			}
			ceil := g.IDCeiling()
			r.AdvanceTo(net, float64(s.TotalSteps))
			if added := g.NumIDs() - before; ceil-before != added {
				t.Fatalf("%s (explicit %v): reserved %d ids, added %d", s.Name, explicit, ceil-before, added)
			}
		}
	}
}
