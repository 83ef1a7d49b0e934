// Package churn drives the dynamic scenarios of §IV-D: gradually growing
// (+50%) and shrinking (−50%) networks, and catastrophic failures (−25%
// shocks), applied to an overlay as a function of simulated time.
//
// A Scenario is a declarative description (per-step arrival/departure
// rates plus discrete shock events); a Runner applies it step by step,
// carrying fractional-rate accumulators so that e.g. 0.05 arrivals/step
// yields one join every 20 steps deterministically in expectation.
package churn

import (
	"sort"

	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// Event is a discrete shock at a given step.
type Event struct {
	// Step at which the event fires (0-based; fires before that step's
	// continuous churn).
	Step int
	// RemoveFraction of the *current* live peers to remove, in [0, 1].
	RemoveFraction float64
	// AddCount peers to add.
	AddCount int
}

// Scenario describes a churn workload over a fixed horizon.
type Scenario struct {
	// Name for reports, e.g. "catastrophic".
	Name string
	// TotalSteps is the experiment horizon in steps (estimations, time
	// units, or rounds — whatever the caller's clock is).
	TotalSteps int
	// ArrivalsPerStep is the expected number of joins per step.
	ArrivalsPerStep float64
	// DeparturesPerStep is the expected number of leaves per step.
	DeparturesPerStep float64
	// Events are discrete shocks, applied in Step order.
	Events []Event
}

// Growing returns the paper's growing scenario: the overlay gains
// fraction×n0 peers spread uniformly over totalSteps (the figures use
// +50%: fraction = 0.5).
func Growing(n0, totalSteps int, fraction float64) Scenario {
	return Scenario{
		Name:            "growing",
		TotalSteps:      totalSteps,
		ArrivalsPerStep: fraction * float64(n0) / float64(totalSteps),
	}
}

// Shrinking returns the paper's shrinking scenario: the overlay loses
// fraction×n0 peers spread uniformly over totalSteps (figures use −50%).
func Shrinking(n0, totalSteps int, fraction float64) Scenario {
	return Scenario{
		Name:              "shrinking",
		TotalSteps:        totalSteps,
		DeparturesPerStep: fraction * float64(n0) / float64(totalSteps),
	}
}

// Catastrophic returns a generic catastrophic-failure scenario: −25%
// shocks at 30% and 60% of the horizon, and a +25%-of-n0 recovery wave at
// 80%, echoing the shape of the paper's Figures 9/12/15.
func Catastrophic(n0, totalSteps int) Scenario {
	return Scenario{
		Name:       "catastrophic",
		TotalSteps: totalSteps,
		Events: []Event{
			{Step: totalSteps * 3 / 10, RemoveFraction: 0.25},
			{Step: totalSteps * 6 / 10, RemoveFraction: 0.25},
			{Step: totalSteps * 8 / 10, AddCount: n0 / 4},
		},
	}
}

// AggregationCatastrophic reproduces Fig 15's exact schedule on a
// round-based clock: "100,000 nodes at beginning, −25% of nodes at 100
// and 500, +25000 nodes at 700" over a 10000-round horizon. All
// parameters scale linearly with n0/100000 and steps/10000.
func AggregationCatastrophic(n0, totalSteps int) Scenario {
	return Scenario{
		Name:       "catastrophic-fig15",
		TotalSteps: totalSteps,
		Events: []Event{
			{Step: totalSteps / 100, RemoveFraction: 0.25},
			{Step: totalSteps / 20, RemoveFraction: 0.25},
			{Step: totalSteps * 7 / 100, AddCount: n0 / 4},
		},
	}
}

// Runner applies a Scenario to an overlay, one step at a time.
type Runner struct {
	S Scenario

	rng       *xrand.Rand
	nextStep  int // AdvanceTo's cursor
	arriveAcc float64
	departAcc float64
	nextEvent int
	events    []Event
	reserved  bool // Reserve has run
}

// NewRunner prepares a runner; events are sorted by step.
func NewRunner(s Scenario, rng *xrand.Rand) *Runner {
	events := make([]Event, len(s.Events))
	copy(events, s.Events)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Step < events[j].Step })
	return &Runner{S: s, rng: rng, events: events}
}

// Step applies the churn due at the given step to the network:
// first any discrete events scheduled at that step, then the continuous
// arrival/departure rates.
func (r *Runner) Step(net *overlay.Network, step int) {
	if !r.reserved {
		r.Reserve(net)
	}
	for r.nextEvent < len(r.events) && r.events[r.nextEvent].Step <= step {
		ev := r.events[r.nextEvent]
		r.nextEvent++
		if ev.RemoveFraction > 0 {
			r.removeN(net, int(ev.RemoveFraction*float64(net.Size())))
		}
		for i := 0; i < ev.AddCount; i++ {
			net.JoinRandomDegree(r.rng)
		}
	}
	r.arriveAcc += r.S.ArrivalsPerStep
	for r.arriveAcc >= 1 {
		r.arriveAcc--
		net.JoinRandomDegree(r.rng)
	}
	r.departAcc += r.S.DeparturesPerStep
	drops := 0
	for r.departAcc >= 1 {
		r.departAcc--
		drops++
	}
	r.removeN(net, drops)
}

// Reserve records on net's graph the ids the runner will add over the
// scenario's TotalSteps (graph.ReserveIDs), so that tables indexed by
// id are made once. Step calls it before the runner's first step; a
// caller that sizes such tables before then calls it first. It draws
// nothing.
func (r *Runner) Reserve(net *overlay.Network) {
	r.reserved = true
	g := net.Graph()
	g.ReserveIDs(g.NumIDs() + r.S.joins())
}

// joins returns the number of peers the scenario adds over TotalSteps:
// the AddCount of every shock that fires on one of its steps, and the
// arrivals its accumulator yields, counted with Step's own arithmetic.
func (s Scenario) joins() int {
	n := 0
	for _, ev := range s.Events {
		if ev.Step < s.TotalSteps {
			n += max(ev.AddCount, 0)
		}
	}
	acc := 0.0
	for range s.TotalSteps {
		acc += s.ArrivalsPerStep
		for acc >= 1 {
			acc--
			n++
		}
	}
	return n
}

// AdvanceTo applies Step for every whole step below t that it has not
// applied yet — a sampling loop's view of the runner (monitor.Timeline),
// where an estimation at time t sees steps 0..t-1 done. It never fails.
func (r *Runner) AdvanceTo(net *overlay.Network, t float64) error {
	for ; float64(r.nextStep) < t; r.nextStep++ {
		r.Step(net, r.nextStep)
	}
	return nil
}

func (r *Runner) removeN(net *overlay.Network, n int) {
	for i := 0; i < n && net.Size() > 1; i++ {
		id, ok := net.Graph().RandomAlive(r.rng)
		if !ok {
			return
		}
		net.Leave(id)
	}
}
