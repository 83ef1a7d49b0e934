package parallel_test

import (
	"fmt"
	"testing"

	"p2psize/internal/aggregation"
	"p2psize/internal/cyclon"
	"p2psize/internal/graph"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/pushsum"
	"p2psize/internal/xrand"
)

// BenchmarkEngineRound times one round of each engine family and
// reports it per node, like the bench ledger's
// parallel.<family>.round_ns_per_node.{seq,shard} rows: seq is one
// shard on one worker, shard is the default shard count on two workers.
// The sizes bracket the engine's hint gate (hintMinKeys): 8192 fits the
// round's state in L2, the suite's 83k and 262k do not, and 1M is the
// gossip workload's scale, where a visit waits on DRAM (skipped under
// -short). The epidemic pair runs warmRounds untimed rounds first, so
// that the timed rounds are those of an epoch that has reached the
// overlay, as in most of a 50-round epoch: right after StartEpoch almost
// no node participates, a push-sum visit of a non-member returns before
// it halves and delivers, and Aggregation's exchanges average two
// absent endpoints.
func BenchmarkEngineRound(b *testing.B) {
	const maxDegree = 10
	// warmRounds spreads an epoch over the overlay: on a 1M-node overlay
	// thirty rounds make every node a member under Aggregation and 98 %
	// of them under push-sum (its members grow about 1.7x a round).
	const warmRounds = 30
	// epidemic starts an epoch on net, runs warmRounds untimed rounds
	// and returns the round to time.
	epidemic := func(net *overlay.Network, start, round func(*overlay.Network) error) func() {
		if err := start(net); err != nil {
			b.Fatal(err)
		}
		next := func() {
			if err := round(net); err != nil {
				b.Fatal(err)
			}
		}
		for r := 0; r < warmRounds; r++ {
			next()
		}
		return next
	}
	families := []struct {
		name  string
		start func(g *graph.Graph, cfg parallel.EngineConfig) func()
	}{
		{"aggregation", func(g *graph.Graph, cfg parallel.EngineConfig) func() {
			p := aggregation.New(aggregation.Config{RoundsPerEpoch: 1 << 20, Shards: cfg.Shards, Workers: cfg.Workers}, xrand.New(2))
			return epidemic(overlay.New(g, maxDegree, nil), p.StartEpoch, p.RunRound)
		}},
		{"pushsum", func(g *graph.Graph, cfg parallel.EngineConfig) func() {
			p := pushsum.New(pushsum.Config{RoundsPerEpoch: 1 << 20, Shards: cfg.Shards, Workers: cfg.Workers}, xrand.New(2))
			return epidemic(overlay.New(g, maxDegree, nil), p.StartEpoch, p.RunRound)
		}},
		{"cyclon", func(g *graph.Graph, cfg parallel.EngineConfig) func() {
			c := cyclon.Default()
			c.Shards, c.Workers = cfg.Shards, cfg.Workers
			p := cyclon.New(c, xrand.New(2), nil)
			p.Bootstrap(g)
			return p.RunRound
		}},
	}
	modes := []struct {
		name string
		cfg  parallel.EngineConfig
	}{
		{"seq", parallel.EngineConfig{Shards: 1, Workers: 1}},
		{"shard", parallel.EngineConfig{Workers: 2}},
	}
	for _, size := range []struct {
		name string
		n    int
	}{{"8k", 8192}, {"83k", 83333}, {"262k", 262144}, {"1m", 1000000}} {
		b.Run(size.name, func(b *testing.B) {
			if size.n > 300000 && testing.Short() {
				b.Skip("1M-node rounds are skipped under -short")
			}
			g := graph.Heterogeneous(size.n, maxDegree, xrand.New(1))
			for _, f := range families {
				for _, m := range modes {
					b.Run(fmt.Sprintf("%s/%s", f.name, m.name), func(b *testing.B) {
						round := f.start(g, m.cfg)
						round() // sizes the engine's buffers
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							round()
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size.n), "ns/node")
					})
				}
			}
		})
	}
}
