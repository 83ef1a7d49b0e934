package main

// Spans: the benchmark's own record of where a traced rep spent its
// time. Everything here is measured from outside the program under
// test, around calls into its exported functions; spans inside the
// program are ROADMAP item 5.

import (
	"sort"
	"sync"
	"time"

	"p2psize"
)

// span is one timed interval. Parent is the ID of the span that caused
// it (0 for a root); Count is the work done inside it in the unit its
// name implies (messages for an estimate, events for a replay, steps
// for a probe loop).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Count    uint64 `json:"count"`
}

func (s span) duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder collects spans in memory; they are written out only when the
// rep has ended. Estimators of different replay groups run on different
// goroutines, hence the lock — taken twice per estimation, never inside
// a timing loop.
type recorder struct {
	workload string
	origin   time.Time
	mu       sync.Mutex
	spans    []span
	// setup and run are the spans of the two phases of a rep; run is
	// the parent of every estimator span.
	setup, run int
	// overlayBytes is the live heap the workload's overlay added.
	overlayBytes uint64
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, origin: time.Now(), spans: make([]span, 0, 1024)}
}

// begin opens a span and returns its ID.
func (r *recorder) begin(parent int, name string) int {
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Workload: r.workload, Name: name, StartNS: now})
	return id
}

// end closes the span with the work it covered.
func (r *recorder) end(id int, count uint64) {
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndNS = now
	r.spans[id-1].Count = count
}

// step opens a span under the set-up span and returns the function
// that closes it. On a nil recorder (an untraced rep) both do nothing.
func (r *recorder) step(name string) func(count uint64) {
	if r == nil {
		return func(uint64) {}
	}
	id := r.begin(r.setup, name)
	return func(count uint64) { r.end(id, count) }
}

// traceEstimator wraps e so every Estimate becomes a span named
// "estimate.<family>" under the measured phase, counting the messages
// it metered.
func (r *recorder) traceEstimator(family string, e p2psize.Estimator) p2psize.Estimator {
	return &tracedEstimator{inner: e, rec: r, name: "estimate." + family}
}

// tracedEstimator forwards everything: the name (so result series keep
// their labels), the estimate, and the overlay-mutation capability the
// monitor groups replays by — a traced rep must run the same groups and
// produce the same checksum as an untraced one.
type tracedEstimator struct {
	inner p2psize.Estimator
	rec   *recorder
	name  string
}

func (t *tracedEstimator) Name() string { return t.inner.Name() }

func (t *tracedEstimator) Estimate(n *p2psize.Network) (float64, error) {
	id := t.rec.begin(t.rec.run, t.name)
	before := n.Messages()
	v, err := t.inner.Estimate(n)
	t.rec.end(id, n.Messages()-before)
	return v, err
}

// MutatesOverlay mirrors the adapter rule of the public API: an
// estimator that does not declare itself observe-only is assumed to
// rewire the overlay.
func (t *tracedEstimator) MutatesOverlay() bool {
	if m, ok := t.inner.(interface{ MutatesOverlay() bool }); ok {
		return m.MutatesOverlay()
	}
	return true
}

// children returns the spans whose parent is id.
func children(spans []span, id int) []span {
	var out []span
	for _, s := range spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// covered returns how much of [lo, hi) the given spans cover, counting
// overlapping stretches once.
func covered(lo, hi int64, spans []span) time.Duration {
	type interval struct{ lo, hi int64 }
	ivs := make([]interval, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.StartNS, lo), min(s.EndNS, hi)
		if a < b {
			ivs = append(ivs, interval{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	end := lo
	for _, iv := range ivs {
		if iv.hi <= end {
			continue
		}
		total += iv.hi - max(iv.lo, end)
		end = iv.hi
	}
	return time.Duration(total)
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(spans []span, s span) time.Duration {
	return s.duration() - covered(s.StartNS, s.EndNS, children(spans, s.ID))
}

// logStamp is one progress line of a library call (its format string)
// with the time it was logged at, counted from stampLog.begin.
type logStamp struct {
	At   time.Duration
	Line string
}

// stampLog is a Logf sink that timestamps what it is told; RunCluster's
// progress lines are the only phase boundaries it exposes.
type stampLog struct {
	start  time.Time
	stamps []logStamp
}

func (l *stampLog) begin() { l.start, l.stamps = time.Now(), nil }

func (l *stampLog) logf(format string, _ ...any) {
	l.stamps = append(l.stamps, logStamp{At: time.Since(l.start), Line: format})
}
