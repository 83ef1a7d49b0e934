package trace

// Parallel trace generation. Generate draws every session length from
// one sequential rng, which caps a 1M-node, multi-turnover trace (~10M
// events) at single-core speed. GenerateParallel removes the bottleneck
// by restructuring the randomness: the arrival *schedule* stays a
// sequential Poisson chain (one Exp draw per candidate — cheap), but
// every session's lifetime comes from its own (seed, session) stream,
// so the expensive part — drawing lifetimes and materializing events —
// fans out over fixed-size session chunks on the worker pool.
//
// One bucketed counting sort orders the events. An event's time bucket,
// floor(T·genBuckets/Horizon), never decreases as T grows, so buckets
// sorted one by one and laid end to end are the canonical order. Chunks
// draw their sessions' end times into a flat table (8 bytes per session)
// and count their events per bucket; a prefix sum gives each chunk a
// private range in every bucket; the chunks write their events straight
// into the one output slice, and the buckets are sorted in place.
//
// Determinism contract: per-session streams are a pure function of
// (seed, session id), and no two events compare equal, so the output
// has one possible value at every workers setting. It differs from
// Generate's single-stream draws (the traces are equally distributed);
// callers pick one generator and stay with it.

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"p2psize/internal/parallel"
	"p2psize/internal/xrand"
)

// genChunk (sessions per chunk) and genBuckets (time buckets) shape the
// parallel generator's work and nothing else, since the output is fully
// sorted; they are constants anyway so the work pattern never depends on
// the machine. A chunk's bucket counts cost 4 bytes per session, and a
// million-event trace leaves a few hundred events per bucket to sort.
const (
	genChunk   = 8192
	genBuckets = 4096
)

// eventCmp is the canonical (T, Session, Op) order, three-way. Events
// that compare equal are the same event, so an unstable sort by it has
// one possible result.
func eventCmp(a, b Event) int {
	switch {
	case a.T < b.T:
		return -1
	case a.T > b.T:
		return 1
	case a.T != b.T: // a NaN time (only Validate's input holds one)
		return 0
	case a.Session != b.Session:
		return cmp.Compare(a.Session, b.Session)
	}
	return int(a.Op) - int(b.Op)
}

// GenerateParallel builds a trace of the same workload model as
// Generate with the session work fanned out across workers (0 = all
// CPUs). Output is byte-identical at every workers setting; see the
// package comment above for how that squares with parallelism.
func GenerateParallel(cfg Config, seed uint64, workers int) (*Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tr, rate, period := cfg.start()
	// Phase 1, sequential: the Poisson arrival chain (inhomogeneous
	// arrivals by thinning, like Generate). One Exp draw plus at most
	// one Float64 per candidate — microseconds per million arrivals.
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
			// validate bounds the expected count; the realised one may
			// overshoot it.
			if _, err := sessionID(cfg.Initial + len(arrivals)); err != nil {
				return nil, fmt.Errorf("trace: arrivals: %w", err)
			}
			arrivals = append(arrivals, t)
		}
	}
	// Sessions 0..Initial-1 are the steady-state residuals (a Leave if
	// the residual lifetime ends inside the horizon); session Initial+i
	// joins at arrivals[i] (and leaves at its end time, if inside).
	sessions := cfg.Initial + len(arrivals)
	chunks := (sessions + genChunk - 1) / genChunk
	if chunks == 0 {
		return tr, nil
	}
	bucket := func(t float64) int { return min(int(t/cfg.Horizon*genBuckets), genBuckets-1) }
	ends := make([]float64, sessions)
	// counts[c*genBuckets+b] is chunk c's event count in bucket b, then
	// (phase 3 on) its next write index in the output.
	counts := make([]int, chunks*genBuckets)
	// Phase 2, parallel: one lifetime draw per session, events counted.
	_ = parallel.ForEach(workers, chunks, func(c int) error {
		cnt := counts[c*genBuckets : (c+1)*genBuckets]
		var rng xrand.Rand
		for s := c * genChunk; s < min((c+1)*genChunk, sessions); s++ {
			rng.SeedStream(seed+1, uint64(s))
			end := cfg.Session.Draw(&rng)
			if s >= cfg.Initial {
				t := arrivals[s-cfg.Initial]
				cnt[bucket(t)]++
				end += t
			}
			if end < cfg.Horizon {
				cnt[bucket(end)]++
			}
			ends[s] = end
		}
		return nil
	})
	// Phase 3, sequential: bucket b starts where buckets 0..b-1 end, and
	// in it chunk c writes after chunks 0..c-1 (two passes in table order).
	starts := make([]int, genBuckets+1)
	for c := 0; c < len(counts); c += genBuckets {
		for b, n := range counts[c : c+genBuckets] {
			starts[b+1] += n
		}
	}
	for b := range genBuckets {
		starts[b+1] += starts[b]
	}
	next := slices.Clone(starts[:genBuckets])
	for c := 0; c < len(counts); c += genBuckets {
		cnt := counts[c : c+genBuckets]
		for b, n := range cnt {
			cnt[b] = next[b]
			next[b] += n
		}
	}
	// Phase 4, parallel: every chunk writes its events into its ranges.
	events := make([]Event, starts[genBuckets])
	_ = parallel.ForEach(workers, chunks, func(c int) error {
		pos := counts[c*genBuckets : (c+1)*genBuckets]
		put := func(ev Event) {
			b := bucket(ev.T)
			events[pos[b]] = ev
			pos[b]++
		}
		for s := c * genChunk; s < min((c+1)*genChunk, sessions); s++ {
			if s >= cfg.Initial {
				put(Event{T: arrivals[s-cfg.Initial], Session: int32(s), Op: Join})
			}
			if end := ends[s]; end < cfg.Horizon {
				put(Event{T: end, Session: int32(s), Op: Leave})
			}
		}
		return nil
	})
	// Phase 5, parallel: sort each bucket in place.
	_ = parallel.ForEach(workers, genBuckets, func(b int) error {
		slices.SortFunc(events[starts[b]:starts[b+1]], eventCmp)
		return nil
	})
	tr.Events = events
	return tr, nil
}
