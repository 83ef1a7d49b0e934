package trace

// The generator and the compositors as they stood before the bucketed
// sort and the flat victim tables replaced them, kept verbatim (renamed,
// and bound to refDraw and refMergeTail) as the references the current
// code must match event for event and draw for draw.

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"p2psize/internal/parallel"
	"p2psize/internal/xrand"
)

// eventLess is the canonical (T, Session, Op) order as a two-way
// comparison: the comparator eventCmp replaced.
func eventLess(a, b Event) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	if a.Session != b.Session {
		return a.Session < b.Session
	}
	return a.Op < b.Op
}

// refEventCmp is eventCmp as two eventLess calls.
func refEventCmp(a, b Event) int {
	switch {
	case eventLess(a, b):
		return -1
	case eventLess(b, a):
		return 1
	}
	return 0
}

// refDraw is SessionDist.Draw before the family parameter moved into
// param.
func refDraw(d SessionDist, rng *xrand.Rand) float64 {
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

// refGenerateParallel is GenerateParallel with per-chunk sorts and a
// pairwise merge tree.
func refGenerateParallel(cfg Config, seed uint64, workers int) (*Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tr := &Trace{Name: cfg.Name, Initial: cfg.Initial, Horizon: cfg.Horizon}
	if tr.Name == "" {
		tr.Name = cfg.Session.Kind.String()
	}
	rate := cfg.ArrivalRate
	if rate == 0 {
		rate = float64(cfg.Initial) / cfg.Session.Mean
	}
	period := cfg.DiurnalPeriod
	if period == 0 {
		period = cfg.Horizon / 2
	}
	var arrivals []float64
	if rate > 0 {
		rng := xrand.NewStream(seed, 0)
		peak := rate * (1 + cfg.DiurnalAmplitude)
		for t := rng.Exp(peak); t < cfg.Horizon; t += rng.Exp(peak) {
			if cfg.DiurnalAmplitude > 0 {
				cur := rate * (1 + cfg.DiurnalAmplitude*math.Sin(2*math.Pi*t/period))
				if rng.Float64() >= cur/peak {
					continue
				}
			}
			arrivals = append(arrivals, t)
		}
	}
	sessions := cfg.Initial + len(arrivals)
	chunks := (sessions + genChunk - 1) / genChunk
	if chunks == 0 {
		tr.Normalize()
		return tr, nil
	}
	sorted, err := parallel.Map(workers, chunks, func(c int) ([]Event, error) {
		lo, hi := c*genChunk, min((c+1)*genChunk, sessions)
		out := make([]Event, 0, 2*(hi-lo))
		for s := lo; s < hi; s++ {
			rng := xrand.NewStream(seed+1, uint64(s))
			d := refDraw(cfg.Session, rng)
			if s < cfg.Initial {
				if d < cfg.Horizon {
					out = append(out, Event{T: d, Session: s, Op: Leave})
				}
				continue
			}
			t := arrivals[s-cfg.Initial]
			out = append(out, Event{T: t, Session: s, Op: Join})
			if end := t + d; end < cfg.Horizon {
				out = append(out, Event{T: end, Session: s, Op: Leave})
			}
		}
		slices.SortFunc(out, refEventCmp)
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for len(sorted) > 1 {
		half := (len(sorted) + 1) / 2
		next := make([][]Event, half)
		_ = parallel.ForEach(workers, half, func(i int) error {
			if 2*i+1 == len(sorted) {
				next[i] = sorted[2*i]
				return nil
			}
			next[i] = refMergeEvents(sorted[2*i], sorted[2*i+1])
			return nil
		})
		sorted = next
	}
	tr.Events = sorted[0]
	return tr, nil
}

// refMergeEvents merges two canonically sorted event runs.
func refMergeEvents(a, b []Event) []Event {
	out := make([]Event, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if eventLess(b[j], a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// refMergeTail is mergeTail when it sorted the tail itself.
func refMergeTail(t *Trace, from int) {
	tail := slices.Clone(t.Events[from:])
	slices.SortFunc(tail, refEventCmp)
	i, j := from-1, len(tail)-1
	for k := len(t.Events) - 1; j >= 0; k-- {
		if i >= 0 && eventLess(tail[j], t.Events[i]) {
			t.Events[k] = t.Events[i]
			i--
		} else {
			t.Events[k] = tail[j]
			j--
		}
	}
}

// refAliveAt is aliveAt before it counted the sessions in the same pass.
func refAliveAt(t *Trace, at float64) []int {
	alive := make([]bool, t.Sessions())
	for s := 0; s < t.Initial; s++ {
		alive[s] = true
	}
	for _, ev := range t.Events {
		if ev.T > at {
			break
		}
		alive[ev.Session] = ev.Op == Join
	}
	out := make([]int, 0, max(0, t.SizeAt(at)))
	for s, ok := range alive {
		if ok {
			out = append(out, s)
		}
	}
	return out
}

func refAddFlashCrowd(t *Trace, at float64, count int, d SessionDist, rng *xrand.Rand) error {
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
		if end := at + refDraw(d, rng); end < t.Horizon {
			t.Events = append(t.Events, Event{T: end, Session: next, Op: Leave})
		}
		next++
	}
	refMergeTail(t, from)
	return nil
}

func refAddMassFailure(t *Trace, at, fraction float64, rng *xrand.Rand) error {
	if at < 0 || at > t.Horizon {
		return fmt.Errorf("trace: mass failure at t=%g outside [0, %g]", at, t.Horizon)
	}
	if fraction < 0 || fraction > 1 {
		return errors.New("trace: mass failure fraction must be in [0, 1]")
	}
	alive := refAliveAt(t, at)
	k := int(fraction * float64(len(alive)))
	if k == 0 {
		return nil
	}
	victims := make(map[int]bool, k)
	for _, idx := range rng.SampleK(len(alive), k) {
		victims[alive[idx]] = true
	}
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
	refMergeTail(t, len(kept))
	return nil
}

func refAddPartitionHeal(t *Trace, splitAt, healAt, fraction float64, rng *xrand.Rand) error {
	if splitAt < 0 || healAt > t.Horizon || splitAt >= healAt {
		return fmt.Errorf("trace: partition window [%g, %g] outside [0, %g]", splitAt, healAt, t.Horizon)
	}
	if fraction < 0 || fraction > 1 {
		return errors.New("trace: partition fraction must be in [0, 1]")
	}
	alive := refAliveAt(t, splitAt)
	k := int(fraction * float64(len(alive)))
	if k == 0 {
		return nil
	}
	victims := make(map[int]bool, k)
	for _, idx := range rng.SampleK(len(alive), k) {
		victims[alive[idx]] = true
	}
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
			continue
		}
		t.Events = append(t.Events, Event{T: healAt, Session: next, Op: Join})
		if scheduled {
			t.Events = append(t.Events, Event{T: end, Session: next, Op: Leave})
		}
		next++
	}
	refMergeTail(t, len(kept))
	return nil
}
