package trace

import (
	"fmt"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// flashCrowd is the churn-flashcrowd workload's trace at n initial
// peers: exponential sessions of one horizon (50), n/4 visitors at 0.3
// of it, a quarter of the peers failing together at 0.7.
func flashCrowd(b *testing.B, n int) *Trace {
	b.Helper()
	tr, err := GenerateParallel(Config{
		Name:    "flashcrowd",
		Initial: n,
		Horizon: 50,
		Session: SessionDist{Kind: Exponential, Mean: 50},
	}, 2, 0)
	if err == nil {
		err = tr.AddFlashCrowd(15, n/4, SessionDist{Kind: Pareto, Mean: 2.5, Shape: 1.5}, xrand.New(3))
	}
	if err == nil {
		err = tr.AddMassFailure(35, 0.25, xrand.New(4))
	}
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkPlayerAdvance replays the flash-crowd trace in one advance on
// a fresh COW clone of an n-node overlay (maximum degree 10) per
// iteration, the replay under churn-flashcrowd-1m's monitoring ticks,
// and reports ns per replayed event. The clone's first-touch page copies
// are part of the cost, as they are in a run. The join-hint windows and
// gate (graph.hintRecords, hintSlots, hintMinAlive) and stageBlock were
// chosen from it; the sizes sit either side of the gate. Its reading
// depends on the host: on the 2-vCPU host the windows were chosen on it
// read ≈ 185 ns/event at 32k (no join hints), ≈ 210 at 100k and ≈ 295
// at 1M; on a shared 2-vCPU Intel Xeon VM ("Intel(R) Xeon(R)
// Processor", model 207) it has read ≈ 545–620, 555–730 and 895–995 in
// one session and 285–495, 370–570 and 600–860 in another, where
// WireUpTo's linking on its own checks read 6–25 % below the parent's
// at 100k and 1–12 % at 1M, pair by pair. Read it only beside the
// parent's binary, on one host.
func BenchmarkPlayerAdvance(b *testing.B) {
	for _, n := range []int{32_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if n > 100_000 && testing.Short() {
				b.Skip("1M-node replay under -short")
			}
			base := overlay.New(graph.Heterogeneous(n, 10, xrand.New(1)), 10, nil)
			tr := flashCrowd(b, n)
			events := 0
			for i := 0; b.Loop(); i++ {
				net := base.CloneCOW()
				p, err := NewPlayer(tr, net)
				if err != nil {
					b.Fatal(err)
				}
				p.AdvanceTo(net, tr.Horizon, xrand.New(uint64(5+i)))
				events += len(tr.Events)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}
