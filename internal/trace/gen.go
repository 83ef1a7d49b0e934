package trace

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"p2psize/internal/xrand"
)

// SessionKind selects the session-length distribution family.
type SessionKind int

const (
	// Exponential sessions are the memoryless baseline.
	Exponential SessionKind = iota
	// Weibull sessions with shape < 1 are the heavy-tailed fit measured
	// for deployed peer-to-peer systems (many very short sessions, a few
	// very long ones).
	Weibull
	// LogNormal sessions are the other common empirical fit.
	LogNormal
	// Pareto sessions have the heaviest (power-law) tail; Shape is the
	// tail index alpha and must exceed 1 for the mean to exist.
	Pareto
)

// String returns the distribution family name.
func (k SessionKind) String() string {
	switch k {
	case Exponential:
		return "exponential"
	case Weibull:
		return "weibull"
	case LogNormal:
		return "lognormal"
	case Pareto:
		return "pareto"
	default:
		return fmt.Sprintf("sessionkind(%d)", int(k))
	}
}

// SessionDist is a mean-parameterized session-length distribution: Mean
// fixes the expected session duration; Shape is the family's tail
// parameter (Weibull shape k, LogNormal sigma, Pareto alpha; ignored by
// Exponential). Parameterizing by the mean keeps workloads comparable
// across families — equal Mean means equal steady-state churn volume.
type SessionDist struct {
	Kind  SessionKind
	Mean  float64
	Shape float64
}

func (d SessionDist) validate() error {
	if !(d.Mean > 0) || math.IsInf(d.Mean, 1) || math.IsNaN(d.Shape) || math.IsInf(d.Shape, 0) {
		return fmt.Errorf("trace: SessionDist.Mean %g and Shape %g must be finite, Mean positive", d.Mean, d.Shape)
	}
	switch d.Kind {
	case Exponential:
	case Weibull, LogNormal:
		if d.Shape <= 0 {
			return fmt.Errorf("trace: %s sessions need Shape > 0", d.Kind)
		}
	case Pareto:
		if d.Shape <= 1 {
			return errors.New("trace: pareto sessions need Shape (tail index) > 1 for a finite mean")
		}
	default:
		return fmt.Errorf("trace: unknown session kind %d", int(d.Kind))
	}
	// Finite Mean and Shape can still round the family's own parameter
	// to 0 or ∞ (a subnormal mean, a vanishing Weibull shape), which the
	// samplers reject with a panic.
	if p := d.param(); math.IsNaN(p) || math.IsInf(p, 0) || (d.Kind != LogNormal && p <= 0) {
		return fmt.Errorf("trace: %s has no usable parameter (%g)", d, p)
	}
	return nil
}

// param derives the family's own parameter from Mean and Shape: the
// Exponential rate, the Weibull scale, the LogNormal mu or the Pareto
// minimum.
func (d SessionDist) param() float64 {
	switch d.Kind {
	case Weibull:
		return d.Mean / math.Gamma(1+1/d.Shape)
	case LogNormal:
		return math.Log(d.Mean) - d.Shape*d.Shape/2
	case Pareto:
		return d.Mean * (d.Shape - 1) / d.Shape
	default: // Exponential
		return 1 / d.Mean
	}
}

// Draw samples one session length.
func (d SessionDist) Draw(rng *xrand.Rand) float64 {
	p := d.param()
	switch d.Kind {
	case Weibull:
		return rng.Weibull(d.Shape, p)
	case LogNormal:
		return rng.LogNormal(p, d.Shape)
	case Pareto:
		return rng.Pareto(p, d.Shape)
	default: // Exponential
		return rng.Exp(p)
	}
}

// String renders the distribution for names and notes, e.g.
// "weibull(mean=1000, shape=0.5)".
func (d SessionDist) String() string {
	if d.Kind == Exponential {
		return fmt.Sprintf("exponential(mean=%g)", d.Mean)
	}
	return fmt.Sprintf("%s(mean=%g, shape=%g)", d.Kind, d.Mean, d.Shape)
}

// Config describes a synthetic churn workload: a population of Initial
// sessions at time 0, Poisson arrivals at ArrivalRate (optionally
// diurnally modulated), and session lengths drawn from Session.
type Config struct {
	// Name labels the generated trace.
	Name string
	// Initial is the population at time 0. Each initial session gets a
	// residual lifetime drawn from Session — the renewal-theory
	// approximation of a system already in steady state.
	Initial int
	// Horizon is the trace duration in simulated time units.
	Horizon float64
	// ArrivalRate is the expected number of joins per time unit. Zero
	// selects the stationary rate Initial/Session.Mean, which keeps the
	// expected population flat at Initial.
	ArrivalRate float64
	// Session is the session-length distribution.
	Session SessionDist
	// DiurnalAmplitude in [0, 1) modulates the arrival rate as
	// rate·(1 + A·sin(2πt/DiurnalPeriod)) — the day/night load swing of
	// real deployments. Zero disables modulation.
	DiurnalAmplitude float64
	// DiurnalPeriod is the modulation period; zero means Horizon/2
	// (two "days" per trace).
	DiurnalPeriod float64
}

func (c Config) validate() error {
	if c.Initial < 0 {
		return errors.New("trace: Config.Initial must be >= 0")
	}
	// Each range test is written to fail on NaN too.
	if !(c.Horizon > 0) || math.IsInf(c.Horizon, 1) {
		return fmt.Errorf("trace: Config.Horizon %g must be positive and finite", c.Horizon)
	}
	if !(c.ArrivalRate >= 0) || math.IsInf(c.ArrivalRate, 1) {
		return fmt.Errorf("trace: Config.ArrivalRate %g must be finite and >= 0", c.ArrivalRate)
	}
	if !(c.DiurnalAmplitude >= 0 && c.DiurnalAmplitude < 1) {
		return fmt.Errorf("trace: Config.DiurnalAmplitude %g must be in [0, 1)", c.DiurnalAmplitude)
	}
	if !(c.DiurnalPeriod >= 0) || math.IsInf(c.DiurnalPeriod, 1) {
		return fmt.Errorf("trace: Config.DiurnalPeriod %g must be finite and >= 0", c.DiurnalPeriod)
	}
	if err := c.Session.validate(); err != nil {
		return err
	}
	// Each session takes an id of the overlay's int32 space: refuse a
	// workload whose expected count overflows it before the chain runs.
	if n := float64(c.Initial) + c.arrivalRate()*c.Horizon; !(n <= math.MaxInt32) {
		return fmt.Errorf("trace: Initial + rate·Horizon = %.4g sessions exceed the overlay's id space (%d)", n, math.MaxInt32)
	}
	return nil
}

// arrivalRate is the configured arrival rate, or the stationary rate
// Initial/Session.Mean when none is set.
func (c Config) arrivalRate() float64 {
	if c.ArrivalRate != 0 {
		return c.ArrivalRate
	}
	return float64(c.Initial) / c.Session.Mean
}

// start returns the empty trace a generator fills, the arrival rate and
// the diurnal period (Horizon/2 when unset).
func (c Config) start() (tr *Trace, rate, period float64) {
	tr = &Trace{Name: c.Name, Initial: c.Initial, Horizon: c.Horizon}
	if tr.Name == "" {
		tr.Name = c.Session.Kind.String()
	}
	if period = c.DiurnalPeriod; period == 0 {
		period = c.Horizon / 2
	}
	return tr, c.arrivalRate(), period
}

// Generate builds a trace from the config, drawing all randomness from
// rng: equal (Config, seed) pairs give byte-identical traces.
//
// Arrivals follow a Poisson process. With diurnal modulation the process
// is inhomogeneous and is sampled by thinning: candidate arrivals are
// generated at the peak rate and accepted with probability
// rate(t)/peak — exact, and still a single deterministic draw sequence.
func Generate(cfg Config, rng *xrand.Rand) (*Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tr, rate, period := cfg.start()
	// Initial population: residual lifetimes. validate bounds Initial by
	// the id space.
	for s := range int32(cfg.Initial) {
		if d := cfg.Session.Draw(rng); d < cfg.Horizon {
			tr.Events = append(tr.Events, Event{T: d, Session: s, Op: Leave})
		}
	}
	next := cfg.Initial
	if rate > 0 {
		peak := rate * (1 + cfg.DiurnalAmplitude)
		for t := rng.Exp(peak); t < cfg.Horizon; t += rng.Exp(peak) {
			if cfg.DiurnalAmplitude > 0 {
				cur := rate * (1 + cfg.DiurnalAmplitude*math.Sin(2*math.Pi*t/period))
				if rng.Float64() >= cur/peak {
					continue
				}
			}
			// validate bounds the expected count; the realised one may
			// overshoot it.
			id, err := sessionID(next)
			if err != nil {
				return nil, fmt.Errorf("trace: arrivals: %w", err)
			}
			tr.Events = append(tr.Events, Event{T: t, Session: id, Op: Join})
			if end := t + cfg.Session.Draw(rng); end < cfg.Horizon {
				tr.Events = append(tr.Events, Event{T: end, Session: id, Op: Leave})
			}
			next++
		}
	}
	tr.Normalize()
	return tr, nil
}

// AddFlashCrowd composes a flash crowd onto the trace: count sessions
// join together at time at, with lifetimes drawn from d (flash-crowd
// visitors typically stay briefly — pass a short-mean distribution).
// New sessions are numbered after all existing ones. Like the other
// compositors it expects the events in canonical order (every generator
// and reader leaves them so) and keeps them in it.
func (t *Trace) AddFlashCrowd(at float64, count int, d SessionDist, rng *xrand.Rand) error {
	if !(at >= 0 && at <= t.Horizon) {
		return fmt.Errorf("trace: flash crowd at=%g outside [0, %g]", at, t.Horizon)
	}
	if count < 0 {
		return fmt.Errorf("trace: flash crowd count=%d is negative", count)
	}
	// The crowd takes the ids after every existing session's.
	first := t.Sessions()
	if count > 0 {
		if _, err := sessionID(first + count - 1); err != nil {
			return fmt.Errorf("trace: flash crowd count=%d: %w", count, err)
		}
	}
	if err := d.validate(); err != nil {
		return err
	}
	// The departures first, in draw order, into a run of their own, so
	// the trace grows by exactly the crowd's events.
	deps := make([]Event, 0, count)
	for i := 0; i < count; i++ {
		if end := at + d.Draw(rng); end < t.Horizon {
			deps = append(deps, Event{T: end, Session: int32(first + i), Op: Leave})
		}
	}
	slices.SortFunc(deps, eventCmp)
	from := len(t.Events)
	t.Events = growExact(t.Events, count+len(deps))[:from+count+len(deps)]
	// The joins (one instant, ascending sessions) are in order already:
	// merge them and the sorted departures forward into the room.
	tail, j, l := t.Events[from:], 0, 0
	for k := range tail {
		join := Event{T: at, Session: int32(first + j), Op: Join}
		if j < count && (l == len(deps) || eventCmp(join, deps[l]) < 0) {
			tail[k] = join
			j++
		} else {
			tail[k] = deps[l]
			l++
		}
	}
	t.mergeTail(from)
	return nil
}

// growExact returns events with room for n more, and when that takes a
// new array, one of exactly that size: a composed trace is replayed for
// the rest of a run, so the slack append's growth factor leaves would
// stay allocated all that time.
func growExact(events []Event, n int) []Event {
	if cap(events)-len(events) >= n {
		return events
	}
	return append(make([]Event, 0, len(events)+n), events...)
}

// victims rejects a fraction outside [0, 1] (NaN included) for the named
// compositor, then draws k = fraction·|alive| of the sessions alive just
// after at, uniformly via rng, into a flat table indexed by session
// (sized to every session the trace references).
func (t *Trace) victims(what string, at, fraction float64, rng *xrand.Rand) (victim []bool, k int, err error) {
	if !(fraction >= 0 && fraction <= 1) {
		return nil, 0, fmt.Errorf("trace: %s fraction=%g outside [0, 1]", what, fraction)
	}
	alive, sessions := t.aliveAt(at)
	if k = int(fraction * float64(len(alive))); k == 0 {
		return nil, 0, nil
	}
	victim = make([]bool, sessions)
	for _, idx := range rng.SampleK(len(alive), k) {
		victim[alive[idx]] = true
	}
	return victim, k, nil
}

// AddMassFailure composes a correlated failure onto the trace: the given
// fraction of the sessions alive at time at leave at that instant
// (their original departures, if any, are dropped). Victims are drawn
// uniformly from the alive set via rng.
func (t *Trace) AddMassFailure(at, fraction float64, rng *xrand.Rand) error {
	if !(at >= 0 && at <= t.Horizon) {
		return fmt.Errorf("trace: mass failure at=%g outside [0, %g]", at, t.Horizon)
	}
	victim, k, err := t.victims("mass failure", at, fraction, rng)
	if k == 0 {
		return err
	}
	// Drop the victims' scheduled departures after the failure instant,
	// then fail them at it: one instant, ascending sessions, a sorted run.
	kept := t.Events[:0]
	for _, ev := range t.Events {
		if ev.Op == Leave && ev.T > at && victim[ev.Session] {
			continue
		}
		kept = append(kept, ev)
	}
	t.Events = growExact(kept, k)
	for s, v := range victim {
		if v {
			t.Events = append(t.Events, Event{T: at, Session: int32(s), Op: Leave})
		}
	}
	t.mergeTail(len(kept))
	return nil
}

// AddPartitionHeal composes a network partition, as one side of the cut
// observes it, onto the trace: at splitAt the given fraction of the
// alive sessions vanishes together (the peers behind the partition),
// and at healAt the cohort's survivors — victims whose original
// departure lies beyond healAt, or who never left — rejoin together.
// Sessions join at most once (Validate's rule), so each survivor
// rejoins as a fresh session whose departure keeps the victim's original
// schedule; victims that would have left during the window simply stay
// gone. Victims are drawn uniformly from the alive set via rng.
func (t *Trace) AddPartitionHeal(splitAt, healAt, fraction float64, rng *xrand.Rand) error {
	if !(splitAt >= 0 && splitAt < t.Horizon) {
		return fmt.Errorf("trace: partition window: splitAt=%g outside [0, %g)", splitAt, t.Horizon)
	}
	if !(healAt > splitAt && healAt <= t.Horizon) {
		return fmt.Errorf("trace: partition window: healAt=%g outside (%g, %g]", healAt, splitAt, t.Horizon)
	}
	victim, k, err := t.victims("partition", splitAt, fraction, rng)
	if k == 0 {
		return err
	}
	// The survivors rejoin under fresh ids after every existing
	// session's; there are at most k of them.
	if _, err := sessionID(len(victim) + k - 1); err != nil {
		return fmt.Errorf("trace: partition of %d sessions: %w", k, err)
	}
	// Each victim's scheduled departure, if any, decides its fate: gone
	// for good when it falls inside the window, a survivor otherwise. It
	// lies after the split, so 0 means none is scheduled.
	leaveOf := make([]float64, len(victim))
	kept := t.Events[:0]
	for _, ev := range t.Events {
		if ev.Op == Leave && ev.T > splitAt && victim[ev.Session] {
			leaveOf[ev.Session] = ev.T
			continue
		}
		kept = append(kept, ev)
	}
	t.Events = growExact(kept, 3*k)
	next := int32(len(victim))
	for s, v := range victim {
		if !v {
			continue
		}
		t.Events = append(t.Events, Event{T: splitAt, Session: int32(s), Op: Leave})
		end := leaveOf[s]
		if end != 0 && end <= healAt {
			continue // departed behind the partition; never comes back
		}
		t.Events = append(t.Events, Event{T: healAt, Session: next, Op: Join})
		if end != 0 {
			t.Events = append(t.Events, Event{T: end, Session: next, Op: Leave})
		}
		next++
	}
	slices.SortFunc(t.Events[len(kept):], eventCmp)
	t.mergeTail(len(kept))
	return nil
}
