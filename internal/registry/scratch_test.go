package registry

import (
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/scratch"
	"p2psize/internal/xrand"
)

// pooled names the families whose estimates borrow their per-node
// scratch from a free list (internal/scratch).
var pooled = []string{"samplecollide", "capturerecapture", "hopssampling", "polling", "aggregation", "pushsum"}

// churned returns a heterogeneous overlay of n nodes after a tenth left
// and a third as many joined, so its id space outruns its size.
func churned(n int, seed uint64) *overlay.Network {
	net := testNet(n, seed).CloneCOW()
	rng := xrand.New(seed + 1)
	for range n / 10 {
		net.LeaveRandom(rng)
	}
	for range n / 3 {
		net.JoinRandomDegree(rng)
	}
	return net
}

// outcome is one estimate as a run reports it.
type outcome struct {
	est  float64
	err  error
	msgs metrics.Counter
}

// estimate runs e on a fresh view of net, so its messages are its own.
func estimate(e interface {
	Estimate(*overlay.Network) (float64, error)
}, net *overlay.Network) outcome {
	v := net.View()
	est, err := e.Estimate(v)
	return outcome{est: est, err: err, msgs: v.Counter().Snapshot()}
}

// TestScratchReuseAcrossInstances: per-run estimators that borrow the
// scratch other instances last used on a larger, churned overlay —
// handed between pool goroutines at 2 and 8 workers — return the
// estimates and the messages by kind of estimators on fresh buffers.
// Stale stamps, a dist entry, a seen node, a state past the id range or
// a deferral bucket left by the larger overlay would move them. The
// smaller overlay still runs two engine shards, the larger four.
func TestScratchReuseAcrossInstances(t *testing.T) {
	big, small := churned(20000, 5), churned(9000, 6)
	const runs = 6
	for _, name := range pooled {
		d, ok := Get(name)
		if !ok {
			t.Fatalf("%s is not registered", name)
		}
		for _, workers := range []int{1, 2, 8} {
			opts := Options{SCL: 20, Rounds: 8, Workers: workers}
			build, err := d.PerRun(small, 11, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]outcome, runs)
			for i := range want {
				scratch.Drop()
				want[i] = estimate(build(i), small)
			}
			scratch.Drop()
			warm, err := d.PerRun(big, 12, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := parallel.ForEach(workers, runs, func(i int) error {
				return estimate(warm(i), big).err
			}); err != nil {
				t.Fatalf("%s: on the larger overlay: %v", name, err)
			}
			got, err := parallel.Map(workers, runs, func(i int) (outcome, error) {
				return estimate(build(i), small), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i].err != want[i].err || math.Float64bits(got[i].est) != math.Float64bits(want[i].est) {
					t.Fatalf("%s workers=%d run %d: borrowed %v (%v), fresh %v (%v)",
						name, workers, i, got[i].est, got[i].err, want[i].est, want[i].err)
				}
				if got[i].msgs != want[i].msgs {
					t.Fatalf("%s workers=%d run %d: messages %v, fresh %v", name, workers, i, &got[i].msgs, &want[i].msgs)
				}
			}
		}
	}
}

// TestWarmPerRunEstimateAllocatesNoTable: once a family's first per-run
// estimate has handed its scratch back, the next run's estimate — on a
// new estimator, as the static comparison builds one per run — makes
// neither a table as long as the id space nor a seen set: it allocates
// less than half what the first estimate did, and less than a byte a
// node.
func TestWarmPerRunEstimateAllocatesNoTable(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	net := churned(20000, 7)
	ids := uint64(net.Graph().NumIDs())
	for _, name := range pooled {
		t.Run(name, func(t *testing.T) {
			d, _ := Get(name)
			build, err := d.PerRun(net, 13, Options{Rounds: 8, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			views := []*overlay.Network{net.View(), net.View(), net.View()}
			scratch.Drop()
			cold := allocated(func() { build(0).Estimate(views[0]) })
			warm := allocated(func() { build(1).Estimate(views[1]) })
			again := allocated(func() { build(2).Estimate(views[2]) })
			if 2*max(warm, again) >= cold || max(warm, again) >= ids {
				t.Fatalf("warm estimates allocated %d and %d bytes on %d ids, the first %d: scratch was made",
					warm, again, ids, cold)
			}
		})
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation allocates.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
