package cyclon

import (
	"math"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/parallel"
	"p2psize/internal/stats"
	"p2psize/internal/xrand"
)

// roundState runs rounds shuffle rounds (after 30% silent departures,
// so dead-target and stale-entry paths are exercised) and returns the
// full view state plus the metered message total.
func roundState(t *testing.T, n int, cfg Config, seed uint64, rounds int) ([][]entry, uint64) {
	t.Helper()
	g := graph.Heterogeneous(n, 10, xrand.New(seed))
	p := New(cfg, xrand.New(seed+1), nil)
	p.Bootstrap(g)
	rng := xrand.New(seed + 2)
	ids := p.appendMemberIDs(nil)
	xrand.Shuffle(rng, ids)
	for _, id := range ids[:n*3/10] {
		p.Leave(id)
	}
	for r := 0; r < rounds; r++ {
		p.RunRound()
	}
	out := make([][]entry, len(p.views))
	for id, view := range p.views {
		if p.member[id] {
			out[id] = append([]entry(nil), view...)
		}
	}
	return out, p.counter.Total()
}

func viewsEqual(a, b [][]entry) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for id := range a {
		if len(a[id]) != len(b[id]) {
			return id, false
		}
		for i := range a[id] {
			if a[id][i] != b[id][i] {
				return id, false
			}
		}
	}
	return 0, true
}

// TestShardedRoundWorkerCountInvariance mirrors the aggregation
// invariant: at a fixed shard count every view (entries AND ages) and
// the message total are byte-identical at workers 1, 2 and 8. Under
// -race this also proves no view is written by two shards.
func TestShardedRoundWorkerCountInvariance(t *testing.T) {
	const n, rounds = 2000, 8
	for _, shardsCfg := range []int{2, 5, 8} {
		cfg := Default()
		cfg.Shards = shardsCfg
		cfg.Workers = 1
		ref, refMsgs := roundState(t, n, cfg, 300, rounds)
		for _, workers := range []int{2, 8} {
			cfg.Workers = workers
			got, gotMsgs := roundState(t, n, cfg, 300, rounds)
			if gotMsgs != refMsgs {
				t.Fatalf("shards=%d: messages differ at workers=%d: %d vs %d",
					shardsCfg, workers, gotMsgs, refMsgs)
			}
			if id, ok := viewsEqual(ref, got); !ok {
				t.Fatalf("shards=%d: view of node %d differs at workers=%d",
					shardsCfg, id, workers)
			}
		}
	}
}

func TestShardsBeyondCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Shards beyond parallel.MaxConfigShards did not panic")
		}
	}()
	cfg := Default()
	cfg.Shards = parallel.MaxConfigShards + 1
	New(cfg, xrand.New(1), nil)
}

func TestShardCountIsPartOfTheAlgorithm(t *testing.T) {
	a, _ := roundState(t, 2000, Config{Shards: 1, Workers: 1}, 301, 5)
	b, _ := roundState(t, 2000, Config{Shards: 4, Workers: 1}, 301, 5)
	if _, same := viewsEqual(a, b); same {
		t.Fatal("1-shard and 4-shard rounds produced identical views")
	}
}

// TestShardedDegreeDistribution checks the sharded shuffle maintains
// the same overlay statistically: after the same churn and round count,
// the exported graph's degree distribution (mean, spread, max) and the
// stale-entry flush match the sequential shuffle's within tolerance.
func TestShardedDegreeDistribution(t *testing.T) {
	const n, rounds = 2000, 30
	measure := func(shards int) (mean, sd float64, max int, stale float64, comp int) {
		g := graph.Heterogeneous(n, 10, xrand.New(302))
		cfg := Default()
		cfg.Shards = shards
		cfg.Workers = 1
		p := New(cfg, xrand.New(303), nil)
		p.Bootstrap(g)
		rng := xrand.New(304)
		ids := p.appendMemberIDs(nil)
		xrand.Shuffle(rng, ids)
		for _, id := range ids[:n*3/10] {
			p.Leave(id)
		}
		for r := 0; r < rounds; r++ {
			p.RunRound()
		}
		eg := p.ExportGraph(n)
		var deg stats.Running
		eg.ForEachAlive(func(id graph.NodeID) {
			d := eg.Degree(id)
			deg.Add(float64(d))
			if d > max {
				max = d
			}
		})
		return deg.Mean(), deg.StdDev(), max, p.StaleFraction(), graph.LargestComponent(eg)
	}
	seqMean, seqSD, seqMax, seqStale, seqComp := measure(1)
	shMean, shSD, shMax, shStale, shComp := measure(8)
	if math.Abs(shMean-seqMean) > 0.1*seqMean {
		t.Fatalf("mean degree diverged: seq %.2f vs sharded %.2f", seqMean, shMean)
	}
	if math.Abs(shSD-seqSD) > 0.25*seqSD {
		t.Fatalf("degree spread diverged: seq %.2f vs sharded %.2f", seqSD, shSD)
	}
	if shMax > 4*viewSize || seqMax > 4*viewSize {
		t.Fatalf("in-degree balance lost: max degree seq %d, sharded %d", seqMax, shMax)
	}
	if seqStale > 0.02 != (shStale > 0.02) {
		t.Fatalf("stale flushing diverged: seq %.3f vs sharded %.3f", seqStale, shStale)
	}
	survivors := n - n*3/10
	if seqComp < survivors*98/100 || shComp < survivors*98/100 {
		t.Fatalf("connectivity diverged: largest component seq %d, sharded %d of %d survivors",
			seqComp, shComp, survivors)
	}
}

// TestShardedViewInvariants: capacity, no self-pointers, no duplicates
// — the merge invariants hold when shuffles complete out of the
// initiator order via the fix-up pass.
func TestShardedViewInvariants(t *testing.T) {
	g := graph.Heterogeneous(1500, 10, xrand.New(305))
	cfg := Default()
	cfg.Shards = 6
	cfg.Workers = 8
	p := New(cfg, xrand.New(306), nil)
	p.Bootstrap(g)
	for r := 0; r < 25; r++ {
		p.RunRound()
	}
	for _, id := range p.appendMemberIDs(nil) {
		view := p.views[id]
		if len(view) > viewSize {
			t.Fatalf("view of %d has %d entries, cap %d", id, len(view), viewSize)
		}
		seen := map[graph.NodeID]bool{}
		for _, e := range view {
			if e.node == id {
				t.Fatalf("self-pointer in view of %d", id)
			}
			if seen[e.node] {
				t.Fatalf("duplicate %d in view of %d", e.node, id)
			}
			seen[e.node] = true
		}
	}
}
