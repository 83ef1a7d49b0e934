package trace

import (
	"fmt"
	"math"
	"testing"

	"p2psize/internal/model"
	"p2psize/internal/xrand"
)

func parallelCfg(initial int) Config {
	return Config{
		Name:             "par-test",
		Initial:          initial,
		Horizon:          1000,
		Session:          trSessionDist(),
		DiurnalAmplitude: 0.4,
	}
}

func trSessionDist() SessionDist {
	return SessionDist{Kind: Weibull, Mean: 400, Shape: 0.6}
}

// TestGenerateParallelWorkerInvariance is the generator's determinism
// contract: equal (Config, seed) give byte-identical traces at every
// workers setting, across enough sessions to span several chunks.
func TestGenerateParallelWorkerInvariance(t *testing.T) {
	cfg := parallelCfg(3 * genChunk) // ~6 chunks incl. arrivals
	ref, err := GenerateParallel(cfg, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Events) == 0 {
		t.Fatal("empty trace")
	}
	for _, workers := range []int{2, 8} {
		got, err := GenerateParallel(cfg, 7, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Events) != len(ref.Events) {
			t.Fatalf("workers=%d: %d events vs %d", workers, len(got.Events), len(ref.Events))
		}
		for i := range ref.Events {
			if got.Events[i] != ref.Events[i] {
				t.Fatalf("workers=%d: event %d differs: %+v vs %+v", workers, i, got.Events[i], ref.Events[i])
			}
		}
	}
}

// TestGenerateParallelCanonical checks the merged output satisfies the
// same invariants Normalize+Validate enforce — sorted by (T, Session,
// Op), structurally sound — without a post-hoc Normalize pass.
func TestGenerateParallelCanonical(t *testing.T) {
	tr, err := GenerateParallel(parallelCfg(2000), 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(tr.Events); i++ {
		if eventCmp(tr.Events[i], tr.Events[i-1]) < 0 {
			t.Fatalf("events %d and %d out of canonical order", i-1, i)
		}
	}
}

// TestGenerateParallelMatchesSequentialStatistically compares the
// parallel generator against the sequential reference: the two draw
// schemes differ bitwise by design, so the equivalence is statistical —
// same expected arrival volume, same session-length distribution, same
// population trajectory within a few percent at this scale.
func TestGenerateParallelMatchesSequentialStatistically(t *testing.T) {
	cfg := parallelCfg(8000)
	seqTr, err := Generate(cfg, xrand.New(13))
	if err != nil {
		t.Fatal(err)
	}
	parTr, err := GenerateParallel(cfg, 13, 0)
	if err != nil {
		t.Fatal(err)
	}
	relDiff := func(a, b int) float64 {
		return math.Abs(float64(a)-float64(b)) / math.Max(float64(a), 1)
	}
	if d := relDiff(seqTr.Joins(), parTr.Joins()); d > 0.10 {
		t.Fatalf("join volumes diverge %.1f%%: seq %d, par %d", 100*d, seqTr.Joins(), parTr.Joins())
	}
	if d := relDiff(seqTr.Leaves(), parTr.Leaves()); d > 0.10 {
		t.Fatalf("leave volumes diverge %.1f%%: seq %d, par %d", 100*d, seqTr.Leaves(), parTr.Leaves())
	}
	for _, at := range []float64{250, 500, 750, 1000} {
		if d := relDiff(seqTr.SizeAt(at), parTr.SizeAt(at)); d > 0.10 {
			t.Fatalf("population at t=%g diverges %.1f%%: seq %d, par %d",
				at, 100*d, seqTr.SizeAt(at), parTr.SizeAt(at))
		}
	}
}

// sameEvents reports the first difference from the model's events,
// time compared bit for bit.
func sameEvents(got []Event, want []model.Event) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d events, model %d", len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; math.Float64bits(g.T) != math.Float64bits(w.T) || int(g.Session) != w.Session || (g.Op == Leave) != w.Leave {
			return fmt.Errorf("event %d is %+v, model %+v", i, g, w)
		}
	}
	return nil
}

// toModel is tr in the model's plain form.
func toModel(tr *Trace) *model.Trace {
	m := &model.Trace{Initial: tr.Initial, Horizon: tr.Horizon}
	for _, ev := range tr.Events {
		m.Events = append(m.Events, model.Event{T: ev.T, Session: int(ev.Session), Leave: ev.Op == Leave})
	}
	return m
}

// workload is cfg in the model's plain form.
func workload(cfg Config) model.Workload {
	return model.Workload{Initial: cfg.Initial, Kind: int(cfg.Session.Kind), Horizon: cfg.Horizon, Rate: cfg.ArrivalRate,
		Mean: cfg.Session.Mean, Shape: cfg.Session.Shape, Amplitude: cfg.DiurnalAmplitude, Period: cfg.DiurnalPeriod}
}

// TestGenerateParallelReference holds the bucketed generator to the
// model's sort-based one, event for event: every session family, with
// and without diurnal modulation, at the stationary and at an explicit
// arrival rate (zero arrivals when Initial is 0 too), on populations
// around one chunk and across three, at several worker counts.
func TestGenerateParallelReference(t *testing.T) {
	dists := []SessionDist{
		{Kind: Exponential, Mean: 60},
		{Kind: Weibull, Mean: 60, Shape: 0.5},
		{Kind: LogNormal, Mean: 60, Shape: 1.5},
		{Kind: Pareto, Mean: 60, Shape: 1.5},
	}
	for _, d := range dists {
		for _, amp := range []float64{0, 0.7} {
			for _, rate := range []float64{0, 40} {
				for _, initial := range []int{0, 1, genChunk - 1, genChunk, genChunk + 1, 3 * genChunk} {
					cfg := Config{Initial: initial, Horizon: 100, ArrivalRate: rate, Session: d, DiurnalAmplitude: amp}
					seed := uint64(initial) + 7
					want := model.Generate(workload(cfg), seed)
					for _, workers := range []int{1, 2, 8} {
						got, err := GenerateParallel(cfg, seed, workers)
						if err != nil {
							t.Fatal(err)
						}
						if err := sameEvents(got.Events, want.Events); err != nil {
							t.Fatalf("%s, amplitude %g, rate %g, initial %d, workers %d: %v", d, amp, rate, initial, workers, err)
						}
						if got.Name != d.Kind.String() || got.Initial != initial || got.Horizon != 100 {
							t.Fatalf("%s: header %q/%d/%g", d, got.Name, got.Initial, got.Horizon)
						}
					}
				}
			}
		}
	}
}

// TestEventCmp: the one three-way comparison orders every pair as the
// canonical (T, Session, Op) order does, spelled out as a strict "less"
// — ties on T and on Session, signed zeros and NaN times (which order
// neither way) included.
func TestEventCmp(t *testing.T) {
	less := func(a, b Event) bool {
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Session != b.Session {
			return a.Session < b.Session
		}
		return a.Op < b.Op
	}
	times := []float64{math.Copysign(0, -1), 0, 0.5, 1, math.NaN(), math.Inf(1)}
	rng := xrand.New(9)
	for i := 0; i < 20000; i++ {
		a := Event{T: times[rng.Intn(len(times))], Session: int32(rng.Intn(4) - 1), Op: Op(rng.Intn(2))}
		b := Event{T: times[rng.Intn(len(times))], Session: int32(rng.Intn(4) - 1), Op: Op(rng.Intn(2))}
		if got := eventCmp(a, b); (got < 0) != less(a, b) || (got > 0) != less(b, a) {
			t.Fatalf("eventCmp(%+v, %+v) = %d", a, b, got)
		}
	}
}

func TestGenerateParallelSeedSensitivity(t *testing.T) {
	cfg := parallelCfg(2000)
	a, err := GenerateParallel(cfg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateParallel(cfg, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) == len(b.Events) {
		same := true
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("seeds 1 and 2 produced identical traces")
		}
	}
}

func TestGenerateParallelRejectsBadConfig(t *testing.T) {
	bad := parallelCfg(100)
	bad.Horizon = -1
	if _, err := GenerateParallel(bad, 1, 1); err == nil {
		t.Fatal("negative horizon accepted")
	}
}

func TestGenerateParallelEmpty(t *testing.T) {
	cfg := Config{Initial: 0, Horizon: 10, ArrivalRate: 0,
		Session: SessionDist{Kind: Exponential, Mean: 5}}
	tr, err := GenerateParallel(cfg, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 0 || tr.Initial != 0 {
		t.Fatalf("empty config produced %d events", len(tr.Events))
	}
}

// BenchmarkGenerate compares the sequential and parallel generators on
// a million-session-scale workload (the ROADMAP item's regime).
func BenchmarkGenerate(b *testing.B) {
	cfg := Config{
		Name:    "bench",
		Initial: 300000,
		Horizon: 1000,
		Session: SessionDist{Kind: Weibull, Mean: 250, Shape: 0.5},
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Generate(cfg, xrand.New(uint64(i+1))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := GenerateParallel(cfg, uint64(i+1), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
