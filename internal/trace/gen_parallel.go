package trace

// Parallel trace generation. Generate draws every session length from
// one sequential rng, which caps a 1M-node, multi-turnover trace (~10M
// events) at single-core speed. GenerateParallel removes the bottleneck
// by restructuring the randomness: the arrival *schedule* stays a
// sequential Poisson chain (one Exp draw per candidate — cheap), but
// every session's lifetime comes from its own (seed, session) stream,
// so the expensive part — drawing lifetimes and materializing events —
// fans out over fixed-size session chunks on the worker pool. Each
// chunk sorts its events locally and the chunks are merged
// deterministically by (time, session, op), the same canonical order
// Normalize produces.
//
// Determinism contract: chunk boundaries are a pure function of the
// session count, per-session streams are a pure function of (seed,
// session id), and the merge order is fixed — so equal (Config, seed)
// give byte-identical traces at every workers setting. The draw scheme
// differs from Generate's single-stream sequence, so the two generators
// produce different (equally distributed) traces for the same seed;
// callers pick one and stay with it.

import (
	"math"
	"slices"

	"p2psize/internal/parallel"
	"p2psize/internal/xrand"
)

// genChunk is the fixed session-chunk size of the parallel generator —
// part of nothing: since the merged output is fully sorted, the chunk
// size only shapes scheduling granularity. It is a constant anyway so
// the per-chunk sort/merge pattern never depends on the machine.
const genChunk = 8192

// eventLess is the canonical (T, Session, Op) order; Normalize sorts by
// it and the parallel generator's merge depends on sharing exactly it.
func eventLess(a, b Event) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	if a.Session != b.Session {
		return a.Session < b.Session
	}
	return a.Op < b.Op
}

// eventCmp is eventLess three-way. Events that compare equal are the
// same event, so an unstable sort by it has one possible result.
func eventCmp(a, b Event) int {
	switch {
	case eventLess(a, b):
		return -1
	case eventLess(b, a):
		return 1
	}
	return 0
}

// GenerateParallel builds a trace of the same workload model as
// Generate with the session work fanned out across workers (0 = all
// CPUs). Output is byte-identical at every workers setting; see the
// package comment above for how that squares with parallelism.
func GenerateParallel(cfg Config, seed uint64, workers int) (*Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tr := &Trace{Name: cfg.Name, Initial: cfg.Initial, Horizon: cfg.Horizon}
	if tr.Name == "" {
		tr.Name = cfg.Session.Kind.String()
	}
	// Phase 1, sequential: the Poisson arrival chain (inhomogeneous
	// arrivals by thinning, like Generate). One Exp draw plus at most
	// one Float64 per candidate — microseconds per million arrivals.
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
	// Phase 2, parallel: session lifetimes and events, chunked by
	// session id. Sessions 0..Initial-1 are the steady-state residuals
	// (a Leave if the residual lifetime ends inside the horizon);
	// session Initial+i joins at arrivals[i].
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
			d := cfg.Session.Draw(rng)
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
		slices.SortFunc(out, eventCmp)
		return out, nil
	})
	if err != nil {
		return nil, err // unreachable: chunk fns never fail
	}
	// Phase 3: merge the sorted runs pairwise, rounds of disjoint pairs
	// running on the pool, until one canonical run remains. The pairing
	// is fixed by run count alone, so the merge tree — and the output —
	// never depends on workers.
	for len(sorted) > 1 {
		half := (len(sorted) + 1) / 2
		next := make([][]Event, half)
		_ = parallel.ForEach(workers, half, func(i int) error {
			if 2*i+1 == len(sorted) {
				next[i] = sorted[2*i]
				return nil
			}
			next[i] = mergeEvents(sorted[2*i], sorted[2*i+1])
			return nil
		})
		sorted = next
	}
	tr.Events = sorted[0]
	return tr, nil
}

// mergeEvents merges two canonically sorted event runs.
func mergeEvents(a, b []Event) []Event {
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
