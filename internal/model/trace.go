package model

import (
	"cmp"
	"math"
	"slices"

	"p2psize/internal/graph"
	"p2psize/internal/xrand"
)

// Event is a churn event: Session joins, or leaves, at T.
type Event struct {
	T       float64
	Session int
	Leave   bool
}

// Trace is a churn trace: Initial sessions alive at time 0, then Events
// sorted by time, session, and join before leave.
type Trace struct {
	Initial int
	Horizon float64
	Events  []Event
}

// Workload is trace.Config as plain values. Kind is 0 exponential, 1
// Weibull, 2 log-normal or 3 Pareto sessions of the given mean; Rate 0
// is the stationary rate Initial/Mean, Period 0 is Horizon/2.
type Workload struct {
	Initial, Kind                                 int
	Horizon, Rate, Mean, Shape, Amplitude, Period float64
}

// draw draws one session length of the given family and mean.
func draw(kind int, mean, shape float64, rng *xrand.Rand) float64 {
	switch kind {
	case 1:
		return rng.Weibull(shape, mean/math.Gamma(1+1/shape))
	case 2:
		return rng.LogNormal(math.Log(mean)-shape*shape/2, shape)
	case 3:
		return rng.Pareto(mean*(shape-1)/shape, shape)
	default:
		return rng.Exp(1 / mean)
	}
}

// Generate is trace.GenerateParallel: Poisson arrivals up to the
// horizon on stream 0 of seed, thinned under a diurnal rate; session
// s's length on stream s of seed+1 (an initial session starts at 0);
// events past the horizon dropped; one sort.
//
//detlint:allow testonly used by the trace tests
func Generate(w Workload, seed uint64) *Trace {
	rate, period := w.Rate, w.Period
	if rate == 0 {
		rate = float64(w.Initial) / w.Mean
	}
	if period == 0 {
		period = w.Horizon / 2
	}
	var arrivals []float64
	if rate > 0 {
		rng := xrand.NewStream(seed, 0)
		peak := rate * (1 + w.Amplitude)
		for t := rng.Exp(peak); t < w.Horizon; t += rng.Exp(peak) {
			if w.Amplitude > 0 && rng.Float64() >= rate*(1+w.Amplitude*math.Sin(2*math.Pi*t/period))/peak {
				continue
			}
			arrivals = append(arrivals, t)
		}
	}
	tr := &Trace{Initial: w.Initial, Horizon: w.Horizon}
	for s := range w.Initial + len(arrivals) {
		d, start := draw(w.Kind, w.Mean, w.Shape, xrand.NewStream(seed+1, uint64(s))), 0.0
		if s >= w.Initial {
			start = arrivals[s-w.Initial]
			tr.Events = append(tr.Events, Event{T: start, Session: s})
		}
		tr.depart(start+d, s)
	}
	tr.sort()
	return tr
}

// depart adds session s's departure at `at` unless that is past the
// horizon.
func (t *Trace) depart(at float64, s int) {
	if at < t.Horizon {
		t.Events = append(t.Events, Event{T: at, Session: s, Leave: true})
	}
}

// sort orders the events by time, session, and join before leave.
func (t *Trace) sort() {
	slices.SortFunc(t.Events, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.T, b.T), cmp.Compare(a.Session, b.Session), cmp.Compare(leave(a), leave(b)))
	})
}

func leave(ev Event) int {
	if ev.Leave {
		return 1
	}
	return 0
}

// sessions is the number of sessions the trace numbers.
func (t *Trace) sessions() int {
	n := t.Initial
	for _, ev := range t.Events {
		n = max(n, ev.Session+1)
	}
	return n
}

// FlashCrowd adds count sessions that join at `at`, each staying a
// drawn length (Kind as in Workload).
//
//detlint:allow testonly used by the trace tests
func (t *Trace) FlashCrowd(at float64, count, kind int, mean, shape float64, rng *xrand.Rand) {
	first := t.sessions()
	for i := range count {
		t.Events = append(t.Events, Event{T: at, Session: first + i})
		t.depart(at+draw(kind, mean, shape, rng), first+i)
	}
	t.sort()
}

// victims draws int(fraction × alive) of the sessions alive at `at`
// (SampleK over them in session order), or nil for none.
func (t *Trace) victims(at, fraction float64, rng *xrand.Rand) []bool {
	up := make([]bool, t.sessions())
	for s := range t.Initial {
		up[s] = true
	}
	for _, ev := range t.Events {
		if ev.T <= at {
			up[ev.Session] = !ev.Leave
		}
	}
	var alive []int
	for s, ok := range up {
		if ok {
			alive = append(alive, s)
		}
	}
	k := int(fraction * float64(len(alive)))
	if k == 0 {
		return nil
	}
	victim := make([]bool, len(up))
	for _, i := range rng.SampleK(len(alive), k) {
		victim[alive[i]] = true
	}
	return victim
}

// cut removes the departures after `at` of the victims and returns
// their times.
func (t *Trace) cut(victim []bool, at float64) map[int]float64 {
	leaveOf := map[int]float64{}
	t.Events = slices.DeleteFunc(t.Events, func(ev Event) bool {
		if ev.Leave && ev.T > at && victim[ev.Session] {
			leaveOf[ev.Session] = ev.T
			return true
		}
		return false
	})
	return leaveOf
}

// MassFailure makes a drawn fraction of the sessions alive at `at`
// leave at `at`.
//
//detlint:allow testonly used by the trace tests
func (t *Trace) MassFailure(at, fraction float64, rng *xrand.Rand) {
	victim := t.victims(at, fraction, rng)
	if victim == nil {
		return
	}
	t.cut(victim, at)
	for s, v := range victim {
		if v {
			t.Events = append(t.Events, Event{T: at, Session: s, Leave: true})
		}
	}
	t.sort()
}

// PartitionHeal cuts a drawn fraction of the sessions alive at splitAt
// off at splitAt; each that had not left by healAt comes back at healAt
// as a new session, which leaves when the old one would have.
//
//detlint:allow testonly used by the trace tests
func (t *Trace) PartitionHeal(splitAt, healAt, fraction float64, rng *xrand.Rand) {
	victim := t.victims(splitAt, fraction, rng)
	if victim == nil {
		return
	}
	leaveOf := t.cut(victim, splitAt)
	next := len(victim)
	for s, v := range victim {
		if !v {
			continue
		}
		t.Events = append(t.Events, Event{T: splitAt, Session: s, Leave: true})
		end, scheduled := leaveOf[s]
		if scheduled && end <= healAt {
			continue
		}
		t.Events = append(t.Events, Event{T: healAt, Session: next})
		if scheduled {
			t.Events = append(t.Events, Event{T: end, Session: next, Leave: true})
		}
		next++
	}
	t.sort()
}

// Player replays a trace one event at a time on a model graph.
type Player struct {
	Events []Event
	Next   int
	// Nodes maps a session to its node (graph.None before its join and
	// after its leave); initial session s is the graph's s-th alive node.
	Nodes []graph.NodeID
}

// NewPlayer binds t's initial sessions to g's alive list.
//
//detlint:allow testonly used by the trace tests
func NewPlayer(t *Trace, g *Graph) *Player {
	p := &Player{Events: t.Events, Nodes: make([]graph.NodeID, t.sessions())}
	for s := range p.Nodes {
		p.Nodes[s] = graph.None
		if s < t.Initial {
			p.Nodes[s] = g.Alive[s]
		}
	}
	return p
}

// AdvanceTo applies every event at or before t: a join is Graph.Join
// under the degree cap maxDeg; a leave removes the session's node
// unless it is gone or the last one alive.
//
//detlint:allow testonly used by the trace tests
func (p *Player) AdvanceTo(g *Graph, maxDeg int, t float64, rng *xrand.Rand) (joins, leaves int) {
	for ; p.Next < len(p.Events) && p.Events[p.Next].T <= t; p.Next++ {
		ev := p.Events[p.Next]
		if !ev.Leave {
			p.Nodes[ev.Session] = g.Join(maxDeg, rng)
			joins++
			continue
		}
		if _, alive := g.pos[p.Nodes[ev.Session]]; alive && len(g.Alive) > 1 {
			g.RemoveNode(p.Nodes[ev.Session])
			p.Nodes[ev.Session] = graph.None
			leaves++
		}
	}
	return joins, leaves
}
