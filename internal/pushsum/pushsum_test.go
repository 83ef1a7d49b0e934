package pushsum

import (
	"math"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/stats"
	"p2psize/internal/xrand"
)

func hetNet(n int, seed uint64) *overlay.Network {
	return overlay.New(graph.Heterogeneous(n, 10, xrand.New(seed)), 10, nil)
}

func TestEstimateConvergesStatic(t *testing.T) {
	const n = 2000
	net := hetNet(n, 1)
	e := NewEstimator(Default(), xrand.New(2))
	est, err := e.Estimate(net)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est/n-1) > 0.05 {
		t.Fatalf("estimate %.1f not within 5%% of %d after %d rounds", est, n, Default().RoundsPerEpoch)
	}
	if net.Counter().Total() == 0 {
		t.Fatal("no messages metered")
	}
}

// TestStatisticalEnvelope is the paper-style bias check: over 30 seeded
// one-epoch estimations on fresh overlays, the mean estimate sits
// within a tight envelope of the truth and the spread is small — the
// same shape of assertion the Aggregation shard tests make.
func TestStatisticalEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("30 full epochs at n=2000")
	}
	const n, runs = 2000, 30
	var r stats.Running
	for i := 0; i < runs; i++ {
		net := hetNet(n, uint64(300+i))
		e := NewEstimator(Default(), xrand.New(uint64(700+i)))
		est, err := e.Estimate(net)
		if err != nil {
			t.Fatal(err)
		}
		r.Add(est)
	}
	if math.Abs(r.Mean()/n-1) > 0.03 {
		t.Fatalf("mean estimate %.1f off truth %d by more than 3%%", r.Mean(), n)
	}
	if r.StdDev()/r.Mean() > 0.10 {
		t.Fatalf("relative spread %.3f too wide for a converged epidemic", r.StdDev()/r.Mean())
	}
}

func TestMassConservation(t *testing.T) {
	const n = 1500
	net := hetNet(n, 5)
	p := New(Config{RoundsPerEpoch: 60, Shards: 4, Workers: 2}, xrand.New(6))
	if err := p.StartEpoch(net); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 60; r++ {
		p.RunRound(net)
		sum, weight := p.MassInEpoch(net)
		if math.Abs(weight-1) > 1e-9 {
			t.Fatalf("round %d: weight mass = %g, want 1", r, weight)
		}
		// Sum mass equals the participant count: every join adds
		// exactly 1, and pushes only move mass around.
		participants := 0.0
		g := net.Graph()
		for i := 0; i < g.NumAlive(); i++ {
			if p.participant(g.AliveAt(i)) {
				participants++
			}
		}
		if math.Abs(sum-participants) > 1e-6 {
			t.Fatalf("round %d: sum mass %g, participants %g", r, sum, participants)
		}
	}
}

// epochState runs one epoch and returns the full (sums, weights)
// vectors plus the metered message total — the complete observable
// state a round sweep produces.
func epochState(t *testing.T, n int, cfg Config, seed uint64, rounds int) ([]float64, []float64, uint64) {
	t.Helper()
	net := hetNet(n, seed)
	p := New(cfg, xrand.New(seed+1))
	if err := p.StartEpoch(net); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		p.RunRound(net)
	}
	return append([]float64(nil), p.sums...), append([]float64(nil), p.weights...), net.Counter().Total()
}

// TestShardedRoundWorkerCountInvariance mirrors the Aggregation shard
// tests: at a fixed shard count the full state vectors and the message
// total are byte-identical at workers 1, 2 and 8. Run under -race in CI
// this also proves the parallel phase writes no pair from two
// goroutines.
func TestShardedRoundWorkerCountInvariance(t *testing.T) {
	const n, rounds = 3000, 12
	for _, shardsCfg := range []int{2, 4, 7} {
		cfg := Config{RoundsPerEpoch: rounds, Shards: shardsCfg, Workers: 1}
		refS, refW, refMsgs := epochState(t, n, cfg, 91, rounds)
		for _, workers := range []int{2, 8} {
			cfg.Workers = workers
			gotS, gotW, gotMsgs := epochState(t, n, cfg, 91, rounds)
			if gotMsgs != refMsgs {
				t.Fatalf("shards=%d: messages differ at workers=%d: %d vs %d",
					shardsCfg, workers, gotMsgs, refMsgs)
			}
			for id := range refS {
				if math.Float64bits(refS[id]) != math.Float64bits(gotS[id]) ||
					math.Float64bits(refW[id]) != math.Float64bits(gotW[id]) {
					t.Fatalf("shards=%d: state of node %d differs at workers=%d",
						shardsCfg, id, workers)
				}
			}
		}
	}
}

func TestShardCountIsPartOfTheAlgorithm(t *testing.T) {
	// Guard against the opposite failure: a sweep that ignored its
	// shard streams entirely would also pass the invariance test.
	aS, _, _ := epochState(t, 3000, Config{RoundsPerEpoch: 10, Shards: 1, Workers: 1}, 92, 10)
	bS, _, _ := epochState(t, 3000, Config{RoundsPerEpoch: 10, Shards: 4, Workers: 1}, 92, 10)
	same := true
	for id := range aS {
		if aS[id] != bS[id] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("1-shard and 4-shard sweeps produced identical state")
	}
}

// TestLocalShuffleWorkerCountInvariance extends the invariance to the
// engine's ShuffleLocal mode: different draws from the global shuffle,
// same worker-count independence.
func TestLocalShuffleWorkerCountInvariance(t *testing.T) {
	const n, rounds = 3000, 12
	cfg := Config{RoundsPerEpoch: rounds, Shards: 4, Workers: 1, Shuffle: parallel.ShuffleLocal}
	refS, refW, refMsgs := epochState(t, n, cfg, 93, rounds)
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		gotS, gotW, gotMsgs := epochState(t, n, cfg, 93, rounds)
		if gotMsgs != refMsgs {
			t.Fatalf("messages differ at workers=%d: %d vs %d", workers, gotMsgs, refMsgs)
		}
		for id := range refS {
			if math.Float64bits(refS[id]) != math.Float64bits(gotS[id]) ||
				math.Float64bits(refW[id]) != math.Float64bits(gotW[id]) {
				t.Fatalf("state of node %d differs at workers=%d", id, workers)
			}
		}
	}
}

// TestLocalShuffleStatisticalEquivalence is the acceptance gate for the
// localshuffle knob: over 30 seeded one-epoch estimations the
// local-shuffle estimator matches the global-shuffle one's mean and
// spread within the family's statistical envelopes.
func TestLocalShuffleStatisticalEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("30 full epochs at n=2000")
	}
	const n, runs = 2000, 30
	distribution := func(mode parallel.ShuffleMode) (mean, sd float64) {
		var r stats.Running
		for i := 0; i < runs; i++ {
			net := hetNet(n, uint64(400+i))
			cfg := Default()
			cfg.Shards = 8
			cfg.Workers = 1
			cfg.Shuffle = mode
			e := NewEstimator(cfg, xrand.New(uint64(800+i)))
			est, err := e.Estimate(net)
			if err != nil {
				t.Fatal(err)
			}
			r.Add(est)
		}
		return r.Mean(), r.StdDev()
	}
	gMean, gSD := distribution(parallel.ShuffleGlobal)
	lMean, lSD := distribution(parallel.ShuffleLocal)
	if math.Abs(gMean/n-1) > 0.03 || math.Abs(lMean/n-1) > 0.03 {
		t.Fatalf("means off truth: global %.1f, local %.1f (n=%d)", gMean, lMean, n)
	}
	if math.Abs(lMean-gMean)/n > 0.03 {
		t.Fatalf("means diverge: global %.1f vs local %.1f", gMean, lMean)
	}
	if gSD/gMean > 0.10 || lSD/lMean > 0.10 {
		t.Fatalf("spread too wide: global sd %.1f, local sd %.1f", gSD, lSD)
	}
}

func TestEmptyOverlayErrors(t *testing.T) {
	net := overlay.New(graph.New(0), 10, nil)
	e := NewEstimator(Default(), xrand.New(1))
	if _, err := e.Estimate(net); err != ErrEmptyOverlay {
		t.Fatalf("err = %v, want ErrEmptyOverlay", err)
	}
}

func TestInitiatorSurvivesRedraw(t *testing.T) {
	// When the initiator departs between epochs, the next StartEpoch
	// redraws one instead of failing — the monitoring contract.
	net := hetNet(200, 7)
	e := NewEstimator(Config{RoundsPerEpoch: 30}, xrand.New(8))
	if _, err := e.Estimate(net); err != nil {
		t.Fatal(err)
	}
	net.Leave(e.p.initiator)
	est, err := e.Estimate(net)
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 {
		t.Fatalf("estimate %g after initiator redraw", est)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{RoundsPerEpoch: 0},
		{RoundsPerEpoch: 1, Shards: -1},
		{RoundsPerEpoch: 1, Shards: parallel.MaxConfigShards + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v did not panic", cfg)
				}
			}()
			New(cfg, xrand.New(1))
		}()
	}
}

// MassInEpoch returns the totals held by live participants: the sum
// mass (one per participant in a static network) and the weight mass
// (exactly 1; under churn the deficit measures departures).
func (p *Protocol) MassInEpoch(net *overlay.Network) (sum, weight float64) {
	g := net.Graph()
	for i := 0; i < g.NumAlive(); i++ {
		id := g.AliveAt(i)
		if p.participant(id) {
			sum += p.sums[id]
			weight += p.weights[id]
		}
	}
	return sum, weight
}
