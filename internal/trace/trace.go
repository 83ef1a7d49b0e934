// Package trace models churn as a first-class, timestamped join/leave
// event stream instead of the per-step rates of package churn. The
// paper's dynamic scenarios (§IV-D) are stylized ramps and shocks; real
// deployments exhibit heavy-tailed session lengths and diurnal load
// (measured for IPFS and earlier systems), which a rate-based scenario
// cannot express. A Trace captures the full session structure — who
// arrives when and how long they stay — so the same workload can be
// generated synthetically (Poisson arrivals × Weibull/lognormal/
// exponential/Pareto sessions, diurnal modulation, flash crowds, mass
// failures), loaded from an empirical measurement, or replayed onto an
// overlay.
//
// Determinism contract: a Trace is plain data; generation and all
// compositors draw exclusively from the caller's *xrand.Rand, so equal
// seeds give byte-identical traces, and replays of one trace onto equal
// overlays with equally seeded generators give byte-identical overlays.
package trace

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Op is the type of a trace event.
type Op uint8

const (
	// Join is a session arrival.
	Join Op = iota
	// Leave is a session departure.
	Leave
)

// String returns "join" or "leave".
func (o Op) String() string {
	switch o {
	case Join:
		return "join"
	case Leave:
		return "leave"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Event is one timestamped membership change, 16 bytes. Session
// identifies which peer the event concerns: a session joins at most
// once, leaves at most once, and leaves only after it joined. Sessions
// 0..Initial-1 are present from time 0 and have no Join event.
type Event struct {
	// T is the simulated time of the event, in [0, Horizon].
	T float64
	// Session is the session (peer lifetime) the event belongs to. Ids
	// live in the overlay's int32 id space; every place that makes one
	// narrows it through sessionID, and the readers renumber a file's
	// own ids (peer hashes, say) before they narrow them.
	Session int32
	// Op is Join or Leave.
	Op Op
}

// sessionID narrows a new session id to the overlay's int32 id space.
// Ids run below Initial + Joins, a count Validate bounds by MaxInt32, so
// the largest id is MaxInt32-1; a trace that outgrows the space is an
// error, never a wrapped id.
func sessionID(s int) (int32, error) {
	if s < 0 || s >= math.MaxInt32 {
		return 0, fmt.Errorf("session %d outside the overlay's id space [0, %d)", s, math.MaxInt32)
	}
	return int32(s), nil
}

// Trace is a churn workload over a fixed horizon of simulated time.
type Trace struct {
	// Name labels the workload in reports.
	Name string
	// Initial is the number of sessions present at time 0.
	Initial int
	// Horizon is the duration of the trace in simulated time units.
	Horizon float64
	// Events holds the membership changes, sorted by (T, Session, Op).
	Events []Event
}

// Normalize sorts the events into the canonical (T, Session, Op) order
// (eventCmp — the same comparator the parallel generator's bucket sort
// uses). Generators and readers call it before returning; callers that
// build Events by hand should too. Compositors keep the order with
// mergeTail instead.
func (t *Trace) Normalize() { slices.SortFunc(t.Events, eventCmp) }

// mergeTail restores the canonical order after a compositor appended a
// sorted run Events[from:] to a prefix that already had it: the run is
// copied out and merged in from the back, in place — no sort of the
// millions of events before it, no second slice of them.
func (t *Trace) mergeTail(from int) {
	tail := slices.Clone(t.Events[from:])
	i, j := from-1, len(tail)-1
	for k := len(t.Events) - 1; j >= 0; k-- {
		if i >= 0 && eventCmp(tail[j], t.Events[i]) < 0 {
			t.Events[k] = t.Events[i]
			i--
		} else {
			t.Events[k] = tail[j]
			j--
		}
	}
}

// Validate checks the structural invariants: positive horizon, events
// sorted and inside the horizon, every session joining before leaving
// (initial sessions never join), each at most once, and session ids
// dense enough to index a table: below Initial + Joins. Every generator
// and compositor numbers sessions that way, and the readers renumber
// the arbitrary ids of a trace file by rank.
func (t *Trace) Validate() error {
	if t.Initial < 0 {
		return errors.New("trace: negative Initial")
	}
	// NaN compares false against everything, so an explicit finiteness
	// check is required: a "#horizon NaN" header (a seed-corpus case of
	// FuzzReadTraceCSV) would otherwise slip through every range test
	// below and corrupt downstream arithmetic (replay cursors, the
	// monitor's sample schedules).
	if math.IsNaN(t.Horizon) || math.IsInf(t.Horizon, 0) {
		return fmt.Errorf("trace: Horizon %g is not finite", t.Horizon)
	}
	if t.Horizon <= 0 {
		return errors.New("trace: Horizon must be positive")
	}
	// One flat byte per session. Ids are bounded by Initial + Joins and
	// that by the overlay's int32 id space; the table stops at the
	// largest id an event names, so no header or id can size it.
	joins, top := t.span()
	if t.Initial > math.MaxInt32-joins {
		return fmt.Errorf("trace: Initial %d exceeds the overlay's id space", t.Initial)
	}
	if sessions := t.Initial + joins; top >= sessions {
		return fmt.Errorf("trace: session %d out of range: Initial + Joins is %d (number sessions densely)",
			top, sessions)
	}
	const joined, left = 1, 2
	state := make([]uint8, top+1)
	var prev Event
	for i, ev := range t.Events {
		if math.IsNaN(ev.T) || math.IsInf(ev.T, 0) {
			return fmt.Errorf("trace: event %d time %g is not finite", i, ev.T)
		}
		if ev.T < 0 || ev.T > t.Horizon {
			return fmt.Errorf("trace: event %d at t=%g outside [0, %g]", i, ev.T, t.Horizon)
		}
		if i > 0 && (ev.T < prev.T || (ev.T == prev.T && ev.Session < prev.Session)) {
			return fmt.Errorf("trace: events not sorted at index %d (call Normalize)", i)
		}
		prev = ev
		if ev.Session < 0 {
			return fmt.Errorf("trace: event %d has negative session", i)
		}
		switch ev.Op {
		case Join:
			if int(ev.Session) < t.Initial {
				return fmt.Errorf("trace: initial session %d joins at t=%g", ev.Session, ev.T)
			}
			if state[ev.Session]&joined != 0 {
				return fmt.Errorf("trace: session %d joins twice", ev.Session)
			}
			state[ev.Session] |= joined
		case Leave:
			if int(ev.Session) >= t.Initial && state[ev.Session]&joined == 0 {
				return fmt.Errorf("trace: session %d leaves before joining", ev.Session)
			}
			if state[ev.Session]&left != 0 {
				return fmt.Errorf("trace: session %d leaves twice", ev.Session)
			}
			state[ev.Session] |= left
		default:
			return fmt.Errorf("trace: event %d has unknown op %d", i, ev.Op)
		}
	}
	return nil
}

// span returns the number of Join events and the largest session id any
// event names (-1 without events).
func (t *Trace) span() (joins, top int) {
	top = -1
	for _, ev := range t.Events {
		if ev.Op == Join {
			joins++
		}
		top = max(top, int(ev.Session))
	}
	return joins, top
}

// Sessions returns the total number of distinct sessions referenced by
// the trace (initial population plus arrivals).
func (t *Trace) Sessions() int {
	_, top := t.span()
	return max(t.Initial, top+1)
}

// Joins returns the number of Join events.
func (t *Trace) Joins() int {
	joins, _ := t.span()
	return joins
}

// Leaves returns the number of Leave events.
func (t *Trace) Leaves() int {
	n := 0
	for _, ev := range t.Events {
		if ev.Op == Leave {
			n++
		}
	}
	return n
}

// SizeAt returns the population after all events with T <= at have been
// applied to the initial population.
func (t *Trace) SizeAt(at float64) int {
	n := t.Initial
	for _, ev := range t.Events {
		if ev.T > at {
			break
		}
		if ev.Op == Join {
			n++
		} else {
			n--
		}
	}
	return n
}

// aliveAt returns the sorted session ids alive just after time at and
// the number of sessions the trace references (Sessions), from one pass
// over the events.
func (t *Trace) aliveAt(at float64) (alive []int, sessions int) {
	state := make([]bool, t.Initial)
	for s := range state {
		state[s] = true
	}
	n, top := t.Initial, -1
	for _, ev := range t.Events {
		s := int(ev.Session)
		top = max(top, s)
		if ev.T > at {
			continue
		}
		if s >= len(state) {
			state = slices.Grow(state, s+1-len(state))[:s+1]
		}
		state[s] = ev.Op == Join
		if ev.Op == Join {
			n++
		} else {
			n--
		}
	}
	alive = make([]int, 0, max(0, n))
	for s, ok := range state {
		if ok {
			alive = append(alive, s)
		}
	}
	return alive, max(t.Initial, top+1)
}
