package aggregation

import (
	"math"
	"testing"

	"p2psize/internal/parallel"
	"p2psize/internal/stats"
	"p2psize/internal/xrand"
)

func TestShardedRoundConservesMass(t *testing.T) {
	// Cross-shard pairs are deferred, not dropped: averaging still
	// conserves the epoch's total mass of 1.
	net := hetNet(3000, 79)
	p := New(Config{RoundsPerEpoch: 20, Shards: 8, Workers: 8}, xrand.New(80))
	if err := p.StartEpoch(net); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 20; r++ {
		p.RunRound(net)
		if m := p.MassInEpoch(net); math.Abs(m-1) > 1e-9 {
			t.Fatalf("round %d: mass = %g", r, m)
		}
	}
}

func TestShardsBeyondCapPanics(t *testing.T) {
	// The sweeps stamp ownership into uint16 tags; an uncapped explicit
	// shard count would wrap them and race the parallel phase.
	defer func() {
		if recover() == nil {
			t.Fatal("Shards beyond parallel.MaxConfigShards did not panic")
		}
	}()
	New(Config{RoundsPerEpoch: 1, Shards: parallel.MaxConfigShards + 1}, xrand.New(1))
}

// TestShardedStatisticalEquivalence checks the sharded sweep is the
// same estimator statistically: over 30 seeded one-epoch estimations on
// fresh overlays, the mean and spread of the size estimate match the
// sequential sweep's within tight tolerances.
func TestShardedStatisticalEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("30 full epochs at n=2000")
	}
	const n, runs = 2000, 30
	distribution := func(shards int) (mean, sd float64) {
		var r stats.Running
		for i := 0; i < runs; i++ {
			net := hetNet(n, uint64(500+i))
			e := NewEstimator(Config{RoundsPerEpoch: 50, Shards: shards, Workers: 1},
				xrand.New(uint64(900+i)))
			est, err := e.Estimate(net)
			if err != nil {
				t.Fatal(err)
			}
			r.Add(est)
		}
		return r.Mean(), r.StdDev()
	}
	seqMean, seqSD := distribution(1)
	shMean, shSD := distribution(8)
	// Both estimators converge to the true size with a small spread...
	if math.Abs(seqMean-n)/n > 0.02 || math.Abs(shMean-n)/n > 0.02 {
		t.Fatalf("means off truth: seq %.1f, sharded %.1f (n=%d)", seqMean, shMean, n)
	}
	// ... and the sharded distribution tracks the sequential one.
	if math.Abs(shMean-seqMean)/n > 0.02 {
		t.Fatalf("means diverge: seq %.1f vs sharded %.1f", seqMean, shMean)
	}
	if seqSD/n > 0.03 || shSD/n > 0.03 {
		t.Fatalf("spread too wide: seq sd %.1f, sharded sd %.1f", seqSD, shSD)
	}
	if math.Abs(shSD-seqSD)/n > 0.03 {
		t.Fatalf("spreads diverge: seq sd %.1f vs sharded sd %.1f", seqSD, shSD)
	}
}
