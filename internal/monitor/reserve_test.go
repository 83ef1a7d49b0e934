package monitor

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"p2psize/internal/core"
	"p2psize/internal/hopssampling"
	"p2psize/internal/overlay"
	"p2psize/internal/polling"
	"p2psize/internal/scratch"
	"p2psize/internal/trace"
	"p2psize/internal/xrand"
)

// metered records the bytes each Estimate of its estimator allocates.
// Only a workers 1 run, where estimates run one at a time, reads them.
type metered struct {
	core.Estimator
	bytes *[]uint64
}

func (m metered) Estimate(net *overlay.Network) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, err := m.Estimator.Estimate(net)
	runtime.ReadMemStats(&after)
	*m.bytes = append(*m.bytes, after.TotalAlloc-before.TotalAlloc)
	return v, err
}

// turnover is a trace on which every initial session leaves, one at a
// time, each at the instant a new one joins: the live count stays at
// initial while the ids grow by joins, spread evenly over the horizon.
func turnover(initial, joins int, horizon float64) *trace.Trace {
	tr := &trace.Trace{Name: "turnover", Initial: initial, Horizon: horizon}
	for i := range joins {
		at := horizon * float64(i+1) / float64(joins)
		tr.Events = append(tr.Events,
			trace.Event{T: at, Session: int32(i), Op: trace.Leave},
			trace.Event{T: at, Session: int32(initial + i), Op: trace.Join})
	}
	return tr
}

// TestReplayMakesEachTableOnce: Hops Sampling and polling, replayed on a
// trace that grows the ids 1.55x at a constant live count, each make
// their per-id table once, at the first tick, with room for exactly the
// ids of the last tick (the replay reserved them): the first estimate
// allocates the ceiling's table and its queues, and no later one
// allocates half a table. The results are byte-identical at workers
// 1, 2 and 8, and the caller's overlay keeps its own id ceiling.
func TestReplayMakesEachTableOnce(t *testing.T) {
	const n, joins, horizon = 2000, 1100, 40
	tr := turnover(n, joins, horizon)
	ceil := uint64(n + joins)
	// tableBytes is each instance's per-id table at the ceiling: Hops
	// Sampling's 12-byte slots, polling's int32 distances. queueBytes is
	// what each keeps per live node beside it: Hops Sampling's two round
	// queues, polling's BFS queue, all int32.
	tableBytes, queueBytes := []uint64{12 * ceil, 4 * ceil}, []uint64{8 * n, 4 * n}
	run := func(workers int) (*Result, uint64, [][]uint64) {
		scratch.Drop()
		bytes := make([][]uint64, 2)
		instances := []Instance{
			{Estimator: metered{hopssampling.New(hopssampling.Default(), xrand.New(1)), &bytes[0]}},
			{Estimator: metered{polling.New(xrand.New(2)), &bytes[1]}},
		}
		net := testNet(n, 3)
		res, err := RunScheduled(instances, net, tr, Config{Cadence: 10},
			func() *xrand.Rand { return xrand.New(4) }, workers)
		if err != nil {
			t.Fatal(err)
		}
		if g := net.Graph(); g.IDCeiling() != n || g.NumIDs() != n {
			t.Fatalf("workers=%d: the caller's overlay has %d ids and ceiling %d after the run, want %d", workers, g.NumIDs(), g.IDCeiling(), n)
		}
		return res, net.Counter().Total(), bytes
	}
	want, wantMsgs, bytes := run(1)
	if info, ok := debug.ReadBuildInfo(); !ok || !slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		for k, b := range bytes {
			if len(b) != 4 {
				t.Fatalf("instance %d estimated %d times, want 4", k, len(b))
			}
			// The first estimate makes the table and the queues: a
			// table a quarter larger than the ceiling overshoots this
			// window, and one made for fewer ids is made again below.
			table := tableBytes[k]
			if b[0] < table || b[0] > table+queueBytes[k]+n {
				t.Fatalf("%s: the first estimate allocated %d bytes, want the %d-byte table of the last tick's ids and %d bytes of queues",
					want.Names[k], b[0], table, queueBytes[k])
			}
			for i, got := range b[1:] {
				if got >= table/2 {
					t.Fatalf("%s: estimate %d allocated %d bytes: its %d-byte table was made again", want.Names[k], i+2, got, table)
				}
			}
		}
	}
	for _, workers := range []int{2, 8} {
		got, msgs, _ := run(workers)
		assertSameResult(t, want, got)
		if msgs != wantMsgs {
			t.Fatalf("workers=%d: %d messages, workers=1 %d", workers, msgs, wantMsgs)
		}
	}
}
