package trace

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"p2psize/internal/model"
	"p2psize/internal/xrand"
)

// fullSort is the canonical order the slow way: a stable sort of every
// event, what the compositors did before they merged only their tail.
func fullSort(evs []Event) []Event {
	out := slices.Clone(evs)
	sort.SliceStable(out, func(i, j int) bool { return eventCmp(out[i], out[j]) < 0 })
	return out
}

// tiedTrace generates a trace and rounds its times to a grid of 0.5, so
// that most instants hold several events: joins and leaves of different
// sessions, and sessions that join and leave at one instant.
func tiedTrace(t *testing.T, seed uint64) *Trace {
	t.Helper()
	cfg := testConfig()
	cfg.Horizon = 100
	cfg.Session.Mean = 30
	tr := mustGenerate(t, cfg, seed)
	for i := range tr.Events {
		tr.Events[i].T = math.Round(tr.Events[i].T*2) / 2
	}
	tr.Normalize()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestCompositorMergeTail checks the in-place merge alone: a canonical
// prefix and a sorted tail, ties between the two included, against a
// full sort of the same events.
func TestCompositorMergeTail(t *testing.T) {
	rng := xrand.New(5)
	for round := 0; round < 200; round++ {
		prefix, tail := rng.Intn(40), rng.Intn(40)
		tr := &Trace{}
		for i := 0; i < prefix+tail; i++ {
			tr.Events = append(tr.Events, Event{T: float64(rng.Intn(6)), Session: int32(rng.Intn(8)), Op: Op(rng.Intn(2))})
		}
		slices.SortFunc(tr.Events[:prefix], eventCmp)
		slices.SortFunc(tr.Events[prefix:], eventCmp)
		want := fullSort(tr.Events)
		tr.mergeTail(prefix)
		if !slices.Equal(tr.Events, want) {
			t.Fatalf("round %d (prefix %d, tail %d): merged %v, full sort gives %v", round, prefix, tail, tr.Events, want)
		}
	}
}

// TestCompositorCanonical composes a crowd, a failure and a partition at
// instants that already hold events: each output must be what a full
// sort of the same events gives, and valid.
func TestCompositorCanonical(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		tr := tiedTrace(t, seed)
		n := len(tr.Events)
		split, crowd, fail := tr.Events[n/10].T, tr.Events[n/3].T, tr.Events[2*n/3].T
		if !(split < crowd && crowd < fail) {
			t.Fatalf("seed %d: fixture instants %g, %g, %g not increasing", seed, split, crowd, fail)
		}
		check := func(what string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, what, err)
			}
			if want := fullSort(tr.Events); !slices.Equal(tr.Events, want) {
				t.Fatalf("seed %d: %s left the events out of canonical order", seed, what)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("seed %d: after %s: %v", seed, what, err)
			}
		}
		size := tr.SizeAt(crowd)
		check("AddFlashCrowd", tr.AddFlashCrowd(crowd, 200, SessionDist{Kind: Exponential, Mean: 2}, xrand.New(seed+10)))
		if got := tr.SizeAt(crowd); got != size+200 {
			t.Fatalf("seed %d: size after the crowd %d, want %d", seed, got, size+200)
		}
		size = tr.SizeAt(fail)
		check("AddMassFailure", tr.AddMassFailure(fail, 0.4, xrand.New(seed+11)))
		if got, want := tr.SizeAt(fail), size-int(0.4*float64(size)); got != want {
			t.Fatalf("seed %d: size after the failure %d, want %d", seed, got, want)
		}
		size = tr.SizeAt(split)
		check("AddPartitionHeal", tr.AddPartitionHeal(split, crowd, 0.5, xrand.New(seed+12)))
		if got, want := tr.SizeAt(split), size-int(0.5*float64(size)); got != want {
			t.Fatalf("seed %d: size after the split %d, want %d", seed, got, want)
		}
	}
}

// TestCompositorMergesInPlace bounds what a crowd of 100k sessions on a
// trace of a million events may allocate: the one exact growth of the
// event slice, the departures' own run and one copy of the tail (each at
// most the appended events). A merge into a second slice, or a growth
// by append's factor, would take more.
func TestCompositorMergesInPlace(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a million-event trace")
	}
	cfg := Config{Name: "big", Initial: 500_000, Horizon: 100, Session: SessionDist{Kind: Exponential, Mean: 100}}
	tr, err := GenerateParallel(cfg, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) < 900_000 {
		t.Fatalf("fixture has only %d events", len(tr.Events))
	}
	before := len(tr.Events)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := tr.AddFlashCrowd(30, 100_000, SessionDist{Kind: Exponential, Mean: 5}, xrand.New(4)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	const eventBytes = uint64(unsafe.Sizeof(Event{}))
	appended := uint64(len(tr.Events) - before)
	budget := uint64(len(tr.Events))*eventBytes + 2*appended*eventBytes
	if got := m1.TotalAlloc - m0.TotalAlloc; got > budget {
		t.Fatalf("AddFlashCrowd allocated %d bytes for %d appended events on %d; budget %d", got, appended, before, budget)
	}
	if !slices.IsSortedFunc(tr.Events, eventCmp) {
		t.Fatal("events out of canonical order")
	}
}

// TestFlashCrowdGrowsExactly: a crowd composed onto the exactly sized
// trace GenerateParallel returns leaves no spare capacity behind (it
// used to grow by append's factor, and the slack stayed live for the
// whole run), and a trace with room for the crowd keeps its array. Both
// compose the same events. A mass failure composed next grows no more
// than it must either.
func TestFlashCrowdGrowsExactly(t *testing.T) {
	cfg := Config{Initial: genChunk + 5, Horizon: 100, Session: SessionDist{Kind: Exponential, Mean: 50}}
	tr, err := GenerateParallel(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if slack := cap(tr.Events) - len(tr.Events); slack != 0 {
		t.Fatalf("fixture: GenerateParallel left %d events of spare capacity", slack)
	}
	const count = 2000
	roomy := &Trace{Initial: tr.Initial, Horizon: tr.Horizon, Events: slices.Grow(slices.Clone(tr.Events), 2*count)}
	array := unsafe.SliceData(roomy.Events)
	crowd := SessionDist{Kind: Exponential, Mean: 20}
	if err := tr.AddFlashCrowd(40, count, crowd, xrand.New(4)); err != nil {
		t.Fatal(err)
	}
	if err := roomy.AddFlashCrowd(40, count, crowd, xrand.New(4)); err != nil {
		t.Fatal(err)
	}
	if slack := cap(tr.Events) - len(tr.Events); slack != 0 {
		t.Fatalf("%d events of spare capacity after composing %d joins and their departures", slack, count)
	}
	if unsafe.SliceData(roomy.Events) != array {
		t.Fatal("a trace with room for the crowd was copied")
	}
	if !slices.Equal(tr.Events, roomy.Events) {
		t.Fatal("the two traces composed different events")
	}
	// A mass failure after it either fits in place or grows exactly.
	before := len(tr.Events)
	if err := tr.AddMassFailure(70, 0.25, xrand.New(5)); err != nil {
		t.Fatal(err)
	}
	if want := max(before, len(tr.Events)); cap(tr.Events) != want {
		t.Fatalf("capacity %d after a mass failure took %d events to %d; want %d", cap(tr.Events), before, len(tr.Events), want)
	}
}

// composeBoth applies one composition to got and the model's to want,
// each with a generator seeded alike. A composition got accepts must
// leave the model's events and generator state, and a valid trace; its
// error is returned, and want is left alone when there is one.
func composeBoth(t *testing.T, what string, got *Trace, want *model.Trace, seed uint64,
	cur func(*Trace, *xrand.Rand) error, ref func(*model.Trace, *xrand.Rand)) error {
	t.Helper()
	gr, wr := xrand.New(seed), xrand.New(seed)
	if err := cur(got, gr); err != nil {
		return err
	}
	ref(want, wr)
	if err := sameEvents(got.Events, want.Events); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if *gr != *wr {
		t.Fatalf("%s: generator state differs from the model's", what)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return nil
}

// TestCompositorReference holds the three compositors to the model's
// sort-based ones: the same events and the same generator position, on
// traces whose composition instants already hold events (times rounded
// to a grid, and a crowd whose departures mostly round onto its own
// instant), for victim counts k of 0, 1, n/2 and n.
func TestCompositorReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		base := tiedTrace(t, seed)
		if seed%2 == 0 {
			tr, err := GenerateParallel(Config{Initial: genChunk + 5, Horizon: 100, Session: SessionDist{Kind: Exponential, Mean: 50}}, seed, 2)
			if err != nil {
				t.Fatal(err)
			}
			base = tr
		}
		n := len(base.Events)
		split, crowd, fail := base.Events[n/10].T, base.Events[n/3].T, base.Events[2*n/3].T
		for _, kFrac := range []func(alive int) float64{
			func(int) float64 { return 0 },
			func(alive int) float64 { return 1.5 / float64(alive) },
			func(int) float64 { return 0.5 },
			func(int) float64 { return 1 },
		} {
			got := &Trace{Initial: base.Initial, Horizon: base.Horizon, Events: slices.Clone(base.Events)}
			want := toModel(got)
			must := func(err error) {
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range []struct {
				count int
				d     SessionDist
			}{
				{0, SessionDist{Kind: Exponential, Mean: 2}},
				{1, SessionDist{Kind: Exponential, Mean: 2}},
				{300, SessionDist{Kind: Pareto, Mean: 3, Shape: 1.5}},
				{200, SessionDist{Kind: Exponential, Mean: 1e-15}}, // departures tie with the joins
			} {
				must(composeBoth(t, fmt.Sprintf("seed %d: AddFlashCrowd(%g, %d, %s)", seed, crowd, c.count, c.d), got, want, seed+10,
					func(tr *Trace, rng *xrand.Rand) error { return tr.AddFlashCrowd(crowd, c.count, c.d, rng) },
					func(tr *model.Trace, rng *xrand.Rand) {
						tr.FlashCrowd(crowd, c.count, int(c.d.Kind), c.d.Mean, c.d.Shape, rng)
					}))
			}
			frac := kFrac(got.SizeAt(fail))
			must(composeBoth(t, fmt.Sprintf("seed %d: AddMassFailure(%g, %g)", seed, fail, frac), got, want, seed+11,
				func(tr *Trace, rng *xrand.Rand) error { return tr.AddMassFailure(fail, frac, rng) },
				func(tr *model.Trace, rng *xrand.Rand) { tr.MassFailure(fail, frac, rng) }))
			frac = kFrac(got.SizeAt(split))
			must(composeBoth(t, fmt.Sprintf("seed %d: AddPartitionHeal(%g, %g, %g)", seed, split, crowd, frac), got, want, seed+12,
				func(tr *Trace, rng *xrand.Rand) error { return tr.AddPartitionHeal(split, crowd, frac, rng) },
				func(tr *model.Trace, rng *xrand.Rand) { tr.PartitionHeal(split, crowd, frac, rng) }))
		}
	}
}
