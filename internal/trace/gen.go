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
	if d.Mean <= 0 {
		return errors.New("trace: SessionDist.Mean must be positive")
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
	return nil
}

// Draw samples one session length.
func (d SessionDist) Draw(rng *xrand.Rand) float64 {
	switch d.Kind {
	case Weibull:
		scale := d.Mean / math.Gamma(1+1/d.Shape)
		return rng.Weibull(d.Shape, scale)
	case LogNormal:
		mu := math.Log(d.Mean) - d.Shape*d.Shape/2
		return rng.LogNormal(mu, d.Shape)
	case Pareto:
		xm := d.Mean * (d.Shape - 1) / d.Shape
		return rng.Pareto(xm, d.Shape)
	default: // Exponential
		return rng.Exp(1 / d.Mean)
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
	if c.Horizon <= 0 {
		return errors.New("trace: Config.Horizon must be positive")
	}
	if c.ArrivalRate < 0 {
		return errors.New("trace: Config.ArrivalRate must be >= 0")
	}
	if c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1 {
		return errors.New("trace: Config.DiurnalAmplitude must be in [0, 1)")
	}
	if c.DiurnalPeriod < 0 {
		return errors.New("trace: Config.DiurnalPeriod must be >= 0")
	}
	return c.Session.validate()
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
	tr := &Trace{Name: cfg.Name, Initial: cfg.Initial, Horizon: cfg.Horizon}
	if tr.Name == "" {
		tr.Name = cfg.Session.Kind.String()
	}
	// Initial population: residual lifetimes.
	for s := 0; s < cfg.Initial; s++ {
		if d := cfg.Session.Draw(rng); d < cfg.Horizon {
			tr.Events = append(tr.Events, Event{T: d, Session: s, Op: Leave})
		}
	}
	rate := cfg.ArrivalRate
	if rate == 0 {
		rate = float64(cfg.Initial) / cfg.Session.Mean
	}
	period := cfg.DiurnalPeriod
	if period == 0 {
		period = cfg.Horizon / 2
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
			tr.Events = append(tr.Events, Event{T: t, Session: next, Op: Join})
			if end := t + cfg.Session.Draw(rng); end < cfg.Horizon {
				tr.Events = append(tr.Events, Event{T: end, Session: next, Op: Leave})
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
	if at < 0 || at > t.Horizon {
		return fmt.Errorf("trace: flash crowd at t=%g outside [0, %g]", at, t.Horizon)
	}
	if count < 0 {
		return errors.New("trace: flash crowd count must be >= 0")
	}
	if err := d.validate(); err != nil {
		return err
	}
	next, from := t.Sessions(), len(t.Events)
	t.Events = slices.Grow(t.Events, 2*count)
	for i := 0; i < count; i++ {
		t.Events = append(t.Events, Event{T: at, Session: next, Op: Join})
		if end := at + d.Draw(rng); end < t.Horizon {
			t.Events = append(t.Events, Event{T: end, Session: next, Op: Leave})
		}
		next++
	}
	t.mergeTail(from)
	return nil
}

// AddMassFailure composes a correlated failure onto the trace: the given
// fraction of the sessions alive at time at leave at that instant
// (their original departures, if any, are dropped). Victims are drawn
// uniformly from the alive set via rng.
func (t *Trace) AddMassFailure(at, fraction float64, rng *xrand.Rand) error {
	if at < 0 || at > t.Horizon {
		return fmt.Errorf("trace: mass failure at t=%g outside [0, %g]", at, t.Horizon)
	}
	if fraction < 0 || fraction > 1 {
		return errors.New("trace: mass failure fraction must be in [0, 1]")
	}
	alive := t.aliveAt(at)
	k := int(fraction * float64(len(alive)))
	if k == 0 {
		return nil
	}
	victims := make(map[int]bool, k)
	for _, idx := range rng.SampleK(len(alive), k) {
		victims[alive[idx]] = true
	}
	// Drop the victims' scheduled departures after the failure instant,
	// then fail them at it.
	kept := t.Events[:0]
	for _, ev := range t.Events {
		if ev.Op == Leave && ev.T > at && victims[ev.Session] {
			continue
		}
		kept = append(kept, ev)
	}
	t.Events = slices.Grow(kept, k)
	for _, s := range alive {
		if victims[s] {
			t.Events = append(t.Events, Event{T: at, Session: s, Op: Leave})
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
	if splitAt < 0 || healAt > t.Horizon || splitAt >= healAt {
		return fmt.Errorf("trace: partition window [%g, %g] outside [0, %g]", splitAt, healAt, t.Horizon)
	}
	if fraction < 0 || fraction > 1 {
		return errors.New("trace: partition fraction must be in [0, 1]")
	}
	alive := t.aliveAt(splitAt)
	k := int(fraction * float64(len(alive)))
	if k == 0 {
		return nil
	}
	victims := make(map[int]bool, k)
	for _, idx := range rng.SampleK(len(alive), k) {
		victims[alive[idx]] = true
	}
	// Each victim's scheduled departure, if any, decides its fate: gone
	// for good when it falls inside the window, a survivor otherwise.
	leaveOf := make(map[int]float64, k)
	kept := t.Events[:0]
	for _, ev := range t.Events {
		if ev.Op == Leave && ev.T > splitAt && victims[ev.Session] {
			leaveOf[ev.Session] = ev.T
			continue
		}
		kept = append(kept, ev)
	}
	t.Events = slices.Grow(kept, 3*k)
	next := t.Sessions()
	for _, s := range alive {
		if !victims[s] {
			continue
		}
		t.Events = append(t.Events, Event{T: splitAt, Session: s, Op: Leave})
		end, scheduled := leaveOf[s]
		if scheduled && end <= healAt {
			continue // departed behind the partition; never comes back
		}
		t.Events = append(t.Events, Event{T: healAt, Session: next, Op: Join})
		if scheduled {
			t.Events = append(t.Events, Event{T: end, Session: next, Op: Leave})
		}
		next++
	}
	t.mergeTail(len(kept))
	return nil
}
