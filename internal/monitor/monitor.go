// Package monitor implements continuous size monitoring: the paper's
// stated use case is *tracking* the size of a live, churning network,
// but its evaluation only probes stylized scenarios. A Monitor runs any
// set of estimators against an overlay evolving under a churn trace,
// applies a smoothing policy to each raw estimate stream (sliding
// window, EWMA, or either with restart-on-shock), and reports the
// true-vs-estimated time series plus tracking metrics: MAE, MAPE,
// staleness (how old the data behind the reported value is) and message
// budget per simulated time unit.
//
// Sampling runs on a discrete event timeline: every estimator instance
// carries its own cadence (and, optionally, its own smoothing policy),
// and the run's time grid is the merged union of all instance
// schedules. Cheap estimators can therefore sample every tick while
// expensive ones (Aggregation: a full epoch per estimate) sample every
// tenth, trading message budget against staleness inside one run —
// between its own samples an instance holds its last smoothed value,
// aging visibly in the staleness series.
//
// A run replays its membership trajectory once, on one trunk: a
// copy-on-write clone of the base overlay that the Timeline alone
// writes, one grid tick at a time. Estimators only read. The instances
// due at a tick estimate concurrently on the deterministic worker
// pool, each on its own view of the trunk (the same paged graph, a
// private message counter and a private fault-policy slot). Results
// are byte-identical at every worker count.
//
// The package owns the only sampling loop in the tree (sample). What
// moves the membership between ticks is a Timeline, and the three entry
// points differ in nothing else: RunScheduled replays a trace.Trace,
// RunScenario steps a churn.Scenario, RunLive follows a live cluster.
package monitor

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"p2psize/internal/churn"
	"p2psize/internal/core"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/trace"
	"p2psize/internal/xrand"
)

// Smoothing selects how raw estimates are folded into the reported
// (smoothed) value.
type Smoothing int

const (
	// None reports each raw estimate as-is (the paper's oneShot).
	None Smoothing = iota
	// Window reports the mean of the last Policy.Window raw estimates
	// (the paper's lastKruns, k = 10 by default).
	Window
	// EWMA reports an exponentially weighted moving average with weight
	// Policy.Alpha on the newest estimate.
	EWMA
)

// String returns the smoothing name.
func (s Smoothing) String() string {
	switch s {
	case None:
		return "none"
	case Window:
		return "window"
	case EWMA:
		return "ewma"
	default:
		return fmt.Sprintf("smoothing(%d)", int(s))
	}
}

// DefaultAlpha is the EWMA weight when none is given: 0.3, this repo's
// choice (the paper smooths only by window).
const DefaultAlpha = 0.3

// Policy is a complete smoothing policy.
type Policy struct {
	// Smoothing selects the base policy.
	Smoothing Smoothing
	// Window is the sliding-window length (Window smoothing only;
	// 0 selects core.LastK = 10, a negative length is an error).
	Window int
	// Alpha is the EWMA weight in (0, 1] (EWMA only; 0 selects
	// DefaultAlpha, any other value outside (0, 1] is an error).
	Alpha float64
	// RestartJump > 0 enables restart-on-shock: when a raw estimate
	// deviates from the current smoothed value by more than this
	// relative fraction, the smoothing state is discarded and restarted
	// from the raw value. Shocks (mass failures, flash crowds) then
	// re-converge in one sample instead of one window. A negative or
	// NaN jump is an error.
	RestartJump float64
}

// validate rejects a value outside its field's range; a zero value is
// not one, it selects the default.
func (p Policy) validate() error {
	switch {
	case p.Smoothing < None || p.Smoothing > EWMA:
		return fmt.Errorf("monitor: unknown smoothing %d", int(p.Smoothing))
	case p.Window < 0:
		return fmt.Errorf("monitor: smoothing window %d is negative (0 selects %d)", p.Window, core.LastK)
	case p.Alpha != 0 && !(p.Alpha > 0 && p.Alpha <= 1):
		return fmt.Errorf("monitor: EWMA alpha %g must be in (0, 1] (0 selects %g)", p.Alpha, DefaultAlpha)
	case !(p.RestartJump >= 0):
		return fmt.Errorf("monitor: restart jump %g must be >= 0 (0 is off)", p.RestartJump)
	}
	return nil
}

// normalized fills the zero values validate leaves with the defaults.
func (p Policy) normalized() Policy {
	if p.Window == 0 {
		p.Window = core.LastK
	}
	if p.Alpha == 0 {
		p.Alpha = DefaultAlpha
	}
	return p
}

// String renders the policy for names and notes.
func (p Policy) String() string {
	p = p.normalized()
	var s string
	switch p.Smoothing {
	case Window:
		s = fmt.Sprintf("window(%d)", p.Window)
	case EWMA:
		s = fmt.Sprintf("ewma(%.2g)", p.Alpha)
	default:
		s = "none"
	}
	if p.RestartJump > 0 {
		s += fmt.Sprintf("+restart(%.2g)", p.RestartJump)
	}
	return s
}

// Config drives a monitoring run.
type Config struct {
	// Cadence is the simulated time between consecutive estimations
	// (> 0) for every instance that does not carry its own. Samples
	// happen at t = Cadence, 2·Cadence, ... up to the trace horizon.
	Cadence float64
	// Policy is the smoothing policy of every instance.
	Policy Policy
}

// Instance pairs an estimator with its own sampling cadence; the zero
// value inherits the run Config's.
type Instance struct {
	// Estimator produces the raw estimates.
	Estimator core.Estimator
	// Cadence is this instance's simulated time between estimations
	// (0 = Config.Cadence). Like the shard count it is part of the
	// output, not a scheduling knob.
	Cadence float64
}

// Result holds the tracking series and metrics of one monitoring run.
type Result struct {
	// Names of the estimator instances.
	Names []string
	// Policy is the smoothing policy every instance ran (Config.Policy).
	Policy Policy
	// Cadences[k] is the cadence instance k actually sampled at.
	Cadences []float64
	// Scheduled[k] is the number of estimations instance k made (its
	// own schedule; Times spans the union of all schedules).
	Scheduled []int
	// Horizon of the run: the trace's, the scenario's TotalSteps, or
	// the one RunLive was given.
	Horizon float64
	// Times is the merged union of every instance's sample schedule.
	Times []float64
	// TrueSizes[i] is the real overlay size at Times[i]: the trunk's,
	// which the timeline alone writes.
	TrueSizes []float64
	// Raw[k][i] is instance k's raw estimate at Times[i]: NaN both on
	// failure and on grid ticks outside its own schedule.
	Raw [][]float64
	// Smoothed[k][i] is the value the monitor would have served at
	// Times[i]: the policy-smoothed estimate, held over from the last
	// success between the instance's own samples and across failures.
	Smoothed [][]float64
	// Staleness[k][i] is the mean age, in simulated time, of the raw
	// estimates behind Smoothed[k][i] (0 = fresh; grows across failures,
	// with wider windows, and between the samples of a slow cadence).
	Staleness [][]float64
	// Failures[k] counts instance k's failed estimations.
	Failures []int
	// Restarts[k] counts instance k's restart-on-shock resets.
	Restarts []int
	// Messages[k] is instance k's total metered protocol traffic.
	Messages []uint64
	// Groups is a count RunScheduled and RunScenario report and nothing
	// reads to choose a path (replayGroups): the read-only cadence
	// classes plus one per instance that declares, or does not deny,
	// core.OverlayMutator. It goes with the benchmark's next re-pin,
	// whose gossip event count is Groups times the trace's events.
	// RunLive leaves it 0.
	Groups int
}

// smoother folds raw estimates into the served value and tracks the
// time-weighted age of the data behind it.
type smoother struct {
	policy Policy
	// Window state: a fixed-size ring over the last Policy.Window
	// estimates, allocated once on first use. vals[(head+i)%W] is the
	// i-th oldest retained estimate.
	vals  []float64
	times []float64
	head  int
	count int
	// EWMA / None state.
	value float64
	age   float64
	last  float64 // time of the last successful update
	valid bool
	// restarts counts shock resets.
	restarts int
}

func newSmoother(p Policy) *smoother {
	return &smoother{policy: p.normalized()}
}

func (s *smoother) reset() {
	s.head, s.count = 0, 0
	s.valid = false
}

// current returns the served value at time t (NaN before any success)
// and the mean age of the data behind it.
func (s *smoother) current(t float64) (value, staleness float64) {
	switch s.policy.Smoothing {
	case Window:
		if s.count == 0 {
			return math.NaN(), t
		}
		// Sum oldest-first — the same order the slice-backed window
		// used — so the float addition order (and therefore every
		// downstream checksum) is unchanged.
		sum, ageSum := 0.0, 0.0
		for i := 0; i < s.count; i++ {
			idx := (s.head + i) % len(s.vals)
			sum += s.vals[idx]
			ageSum += t - s.times[idx]
		}
		n := float64(s.count)
		return sum / n, ageSum / n
	default: // None, EWMA
		if !s.valid {
			return math.NaN(), t
		}
		return s.value, s.age + (t - s.last)
	}
}

// add folds one successful raw estimate observed at time t.
func (s *smoother) add(est, t float64) {
	// Restart-on-shock only makes sense where there is smoothing state
	// to discard; under None every estimate is served as-is, and a
	// "restart" would just count raw noise.
	if j := s.policy.RestartJump; j > 0 && s.policy.Smoothing != None {
		if cur, _ := s.current(t); !math.IsNaN(cur) && cur != 0 &&
			math.Abs(est-cur) > j*math.Abs(cur) {
			s.reset()
			s.restarts++
		}
	}
	switch s.policy.Smoothing {
	case Window:
		if s.vals == nil {
			s.vals = make([]float64, s.policy.Window)
			s.times = make([]float64, s.policy.Window)
		}
		if s.count == len(s.vals) {
			// Full: overwrite the oldest slot and advance the head.
			s.vals[s.head] = est
			s.times[s.head] = t
			s.head = (s.head + 1) % len(s.vals)
		} else {
			idx := (s.head + s.count) % len(s.vals)
			s.vals[idx] = est
			s.times[idx] = t
			s.count++
		}
	case EWMA:
		if !s.valid {
			s.value, s.age = est, 0
		} else {
			a := s.policy.Alpha
			s.value = a*est + (1-a)*s.value
			s.age = (1 - a) * (s.age + (t - s.last))
		}
		s.last, s.valid = t, true
	default: // None
		s.value, s.age, s.last, s.valid = est, 0, t, true
	}
}

// maxGrid bounds a run's sample times, summed over its instances'
// schedules, which bounds the union grid they merge into. Every instance
// records its raw estimate, its served value and its staleness at every
// grid time, so a legal but tiny cadence would otherwise ask for slices
// of gigabytes (an out-of-memory kill, not an error) or a float→int
// conversion out of range (int(1e300) lands on minInt). Any real run is
// orders of magnitude below it: 2^24 times are 128 MB a series.
const maxGrid = 1 << 24

// samples returns how many sample times t = c, 2c, ... fall within the
// horizon, as a float that may exceed any int. The epsilon absorbs float
// division error (0.3/0.1 < 3) so an exact-multiple horizon never loses
// its final sample.
func samples(cadence, horizon float64) (float64, error) {
	// RunLive takes its horizon from the caller, so it is checked here:
	// a NaN or infinite one would reach the conversion in schedule.
	if !(horizon >= 0) || math.IsInf(horizon, 1) {
		return 0, fmt.Errorf("monitor: horizon %g must be finite and >= 0", horizon)
	}
	return math.Floor(horizon/cadence + 1e-9), nil
}

// schedule returns one instance's sample times t = c, 2c, ... up to the
// horizon.
func schedule(cadence, horizon float64) ([]float64, error) {
	f, err := samples(cadence, horizon)
	if err != nil {
		return nil, err
	}
	if f > maxGrid {
		return nil, fmt.Errorf("monitor: cadence %g yields %.3g samples over horizon %g (max %d)",
			cadence, f, horizon, maxGrid)
	}
	out := make([]float64, int(f))
	for i := range out {
		out[i] = cadence * float64(i+1)
	}
	return out, nil
}

// unionGrid merges per-instance schedules into one ascending, exactly
// deduplicated time grid. Equal cadences produce bit-equal times (both
// compute cadence·i), so a shared-cadence run's grid is exactly the
// schedule the single-cadence monitor used.
func unionGrid(schedules [][]float64) []float64 {
	total := 0
	for _, s := range schedules {
		total += len(s)
	}
	grid := make([]float64, 0, total)
	for _, s := range schedules {
		grid = append(grid, s...)
	}
	sort.Float64s(grid)
	dedup := grid[:0]
	for i, t := range grid {
		if i == 0 || t != dedup[len(dedup)-1] {
			dedup = append(dedup, t)
		}
	}
	return dedup
}

// resolveSchedules validates the instances and the run's policy and
// resolves each instance's cadence and sample schedule over the
// horizon. The schedules are made only once their summed length is
// known to fit maxGrid.
func resolveSchedules(instances []Instance, cfg Config, horizon float64) (cadences []float64, schedules [][]float64, err error) {
	if len(instances) == 0 {
		return nil, nil, errors.New("monitor: Run needs at least one estimator")
	}
	if err := cfg.Policy.validate(); err != nil {
		return nil, nil, err
	}
	cadences = make([]float64, len(instances))
	total := 0.0
	for k, in := range instances {
		if in.Estimator == nil {
			return nil, nil, fmt.Errorf("monitor: instance %d has a nil estimator", k)
		}
		c := in.Cadence
		if c == 0 {
			c = cfg.Cadence
		}
		// NaN passes every ordered comparison and Inf makes an empty
		// schedule with a huge division result, so require a finite
		// positive value explicitly (the same class of check
		// trace.Validate applies to event times).
		if !(c > 0) || math.IsInf(c, 1) {
			return nil, nil, fmt.Errorf("monitor: instance %d (%s) cadence %g must be positive and finite",
				k, in.Estimator.Name(), c)
		}
		cadences[k] = c
		f, err := samples(c, horizon)
		if err != nil {
			return nil, nil, err
		}
		if f == 0 {
			return nil, nil, fmt.Errorf("monitor: instance %d (%s) cadence %g longer than the trace horizon %g",
				k, in.Estimator.Name(), c, horizon)
		}
		total += f
	}
	if total > maxGrid {
		return nil, nil, fmt.Errorf("monitor: cadences %v yield %.3g sample times over horizon %g (max %d)",
			cadences, total, horizon, maxGrid)
	}
	schedules = make([][]float64, len(instances))
	for k, c := range cadences {
		if schedules[k], err = schedule(c, horizon); err != nil {
			return nil, nil, err
		}
	}
	return cadences, schedules, nil
}

// Timeline is the single writer of a sampling run: whatever moves the
// overlay's membership between two ticks — a trace replay, a churn
// scenario's steps, a live cluster's liveness probes.
type Timeline interface {
	// AdvanceTo brings net's membership up to simulated time t. It is
	// called once per grid tick, in ascending order, alone on the
	// overlay before any instance samples; an error aborts the run.
	AdvanceTo(net *overlay.Network, t float64) error
}

// member is one instance's state across a sampling run.
type member struct {
	sched []float64 // its own sample times
	next  int       // cursor into sched
	sm    *smoother
	// view is the instance's own view of the trunk; its counter is the
	// instance's traffic.
	view                     *overlay.Network
	raw, smoothed, staleness []float64
	scheduled, failures      int
}

// estimate is one member's answer at one tick. An estimator's error is
// a counted failure of that member, not a failure of the run, so it
// travels as a value past parallel.Map's own error channel.
type estimate struct {
	due   bool // the tick is on the member's own schedule
	value float64
	err   error
}

// estimateAt runs m's estimation on its view at tick t if t is on its
// schedule.
func (m *member) estimateAt(e core.Estimator, t float64) estimate {
	if m.next == len(m.sched) || m.sched[m.next] != t {
		return estimate{}
	}
	m.next++
	v, err := e.Estimate(m.view)
	return estimate{due: true, value: v, err: err}
}

// fold records m's outcome at tick t: its raw estimate (NaN off its
// schedule and on failure), the value it serves and the age behind it.
func (m *member) fold(e estimate, t float64) {
	switch {
	case !e.due:
		m.raw = append(m.raw, math.NaN())
	case e.err != nil:
		m.scheduled++
		m.failures++
		m.raw = append(m.raw, math.NaN())
	default:
		m.scheduled++
		m.sm.add(e.value, t)
		m.raw = append(m.raw, e.value)
	}
	served, stale := m.sm.current(t)
	m.smoothed = append(m.smoothed, served)
	m.staleness = append(m.staleness, stale)
}

// sample is the sampling loop under RunScheduled, RunScenario and
// RunLive. trunk is the one overlay the run's timeline writes (a nil
// timeline keeps its membership static); net is the overlay the caller
// handed in, whose counter receives the run's traffic. Every instance
// records the true size, its served value and its staleness at every
// tick of the union grid, but estimates only at its own scheduled
// times — so mixed cadences stay directly comparable, point for point.
//
// A tick is one fork-join over every instance. The timeline advances
// the trunk alone — it is the only writer, and it replays the trace
// once per run — and then one parallel.Map runs the instances due at
// that tick (member.estimateAt), each on its own view of the trunk.
// Their results are folded into smoothers and series serially in
// instance order, so nothing depends on which finished first.
// Messages[k] is the total of instance k's view counter — the same
// alone or in company, since the timeline itself meters nothing — and
// the counters are merged into net's in instance order. With
// workers == 1 each Estimate runs inline, in instance order.
func sample(instances []Instance, cfg Config, horizon float64, net, trunk *overlay.Network, timeline Timeline, workers int) (*Result, error) {
	cadences, schedules, err := resolveSchedules(instances, cfg, horizon)
	if err != nil {
		return nil, err
	}
	grid := unionGrid(schedules)
	members := make([]member, len(instances))
	for k := range instances {
		members[k] = member{sched: schedules[k], sm: newSmoother(cfg.Policy), view: trunk.View(),
			raw:       make([]float64, 0, len(grid)),
			smoothed:  make([]float64, 0, len(grid)),
			staleness: make([]float64, 0, len(grid))}
	}
	trueSizes := make([]float64, 0, len(grid))
	for _, t := range grid {
		if timeline != nil {
			if err := timeline.AdvanceTo(trunk, t); err != nil {
				return nil, fmt.Errorf("monitor: timeline at t=%g: %w", t, err)
			}
		}
		trueSizes = append(trueSizes, float64(trunk.Size()))
		// Fan out: the trunk is quiescent until the next AdvanceTo, and
		// index k touches only member k's cursor, view and estimator. An
		// estimator's error travels in its estimate, so no index fails.
		ests, _ := parallel.Map(workers, len(members), func(k int) (estimate, error) {
			return members[k].estimateAt(instances[k].Estimator, t), nil
		})
		// Join: fold in instance order.
		for k := range members {
			members[k].fold(ests[k], t)
		}
	}
	res := &Result{
		Names:     make([]string, len(instances)),
		Policy:    cfg.Policy.normalized(),
		Cadences:  cadences,
		Scheduled: make([]int, len(instances)),
		Horizon:   horizon,
		Times:     grid,
		TrueSizes: trueSizes,
		Raw:       make([][]float64, len(instances)),
		Smoothed:  make([][]float64, len(instances)),
		Staleness: make([][]float64, len(instances)),
		Failures:  make([]int, len(instances)),
		Restarts:  make([]int, len(instances)),
		Messages:  make([]uint64, len(instances)),
	}
	for k := range members {
		m := &members[k]
		res.Names[k] = instances[k].Estimator.Name()
		res.Scheduled[k] = m.scheduled
		res.Raw[k] = m.raw
		res.Smoothed[k] = m.smoothed
		res.Staleness[k] = m.staleness
		res.Failures[k] = m.failures
		res.Restarts[k] = m.sm.restarts
		res.Messages[k] = m.view.Counter().Total()
		net.Counter().Merge(m.view.Counter())
	}
	return res, nil
}

// tracePlayer is a trace.Player bound to the generator that wires its
// joins.
type tracePlayer struct {
	player *trace.Player
	rng    *xrand.Rand
}

func (p tracePlayer) AdvanceTo(net *overlay.Network, t float64) error {
	p.player.AdvanceTo(net, t, p.rng)
	return nil
}

// RunScheduled replays the trace once, on a copy-on-write clone of net
// (the trunk; net is the immutable base and is left unmutated, and the
// trunk pays only for the churn it replays), and samples every instance
// on its own cadence (see sample for the tick). The result's time grid
// is the union of all instance schedules. Every instance estimates on
// its own view of the trunk, side by side with the others: estimators
// only read the overlay. The result's Groups is a count only (see
// replayGroups).
//
// newRNG is called once, for the generator that wires the replay's
// joins. Output is byte-identical at every worker count, and to what
// every instance produces in a run of its own.
func RunScheduled(instances []Instance, net *overlay.Network, tr *trace.Trace, cfg Config, newRNG func() *xrand.Rand, workers int) (*Result, error) {
	trunk := net.CloneCOW()
	player, err := trace.NewPlayer(tr, trunk)
	if err != nil {
		return nil, err
	}
	res, err := sample(instances, cfg, tr.Horizon, net, trunk, tracePlayer{player, newRNG()}, workers)
	if err == nil {
		res.Groups = replayGroups(instances, res.Cadences)
	}
	return res, err
}

// RunScenario is RunScheduled on a step clock: the scenario's churn is
// applied step by step by one churn.Runner, built on newRNG() (called
// once), and the horizon is its TotalSteps, so an instance on cadence c
// estimates after steps c, 2c, ... — the "Estimation #" curves of the
// paper's dynamic figures. Estimation failures record NaN and the run
// continues: fragmented, shrunken overlays are precisely the regime the
// dynamic comparison is about.
func RunScenario(instances []Instance, net *overlay.Network, sc churn.Scenario, cfg Config, newRNG func() *xrand.Rand, workers int) (*Result, error) {
	res, err := sample(instances, cfg, float64(sc.TotalSteps), net, net.CloneCOW(), churn.NewRunner(sc, newRNG()), workers)
	if err == nil {
		res.Groups = replayGroups(instances, res.Cadences)
	}
	return res, err
}

// MAE returns instance k's mean absolute tracking error |served − true|
// over the samples where it had a value to serve.
func (r *Result) MAE(k int) float64 {
	sum, n := 0.0, 0
	for i, est := range r.Smoothed[k] {
		if math.IsNaN(est) {
			continue
		}
		sum += math.Abs(est - r.TrueSizes[i])
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// MAPE returns instance k's mean absolute percentage tracking error,
// mean |served/true − 1|·100, over the samples where it had a value.
func (r *Result) MAPE(k int) float64 {
	sum, n := 0.0, 0
	for i, est := range r.Smoothed[k] {
		if math.IsNaN(est) || r.TrueSizes[i] == 0 {
			continue
		}
		sum += math.Abs(est/r.TrueSizes[i]-1) * 100
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// MeanStaleness returns instance k's mean data age across all samples.
func (r *Result) MeanStaleness(k int) float64 {
	if len(r.Staleness[k]) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, a := range r.Staleness[k] {
		sum += a
	}
	return sum / float64(len(r.Staleness[k]))
}

// MsgsPerTime returns instance k's protocol traffic per simulated time
// unit — the budget a deployment would pay to keep the estimate fresh
// at this cadence.
func (r *Result) MsgsPerTime(k int) float64 {
	return float64(r.Messages[k]) / r.Horizon
}
