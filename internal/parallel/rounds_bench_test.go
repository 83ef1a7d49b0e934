package parallel_test

import (
	"testing"

	"p2psize/internal/aggregation"
	"p2psize/internal/cyclon"
	"p2psize/internal/graph"
	"p2psize/internal/overlay"
	"p2psize/internal/pushsum"
	"p2psize/internal/xrand"
)

// BenchmarkEngineRound times one round of each engine family on a
// single shard at 8192 nodes — the suite's scale, where the draws and
// the visit loop set the time rather than DRAM — and reports it per
// node, like the bench ledger's parallel.<family>.round_ns_per_node.seq
// rows do at 100k and 1M.
func BenchmarkEngineRound(b *testing.B) {
	const n, maxDegree = 8192, 10
	g := graph.Heterogeneous(n, maxDegree, xrand.New(1))
	families := []struct {
		name  string
		start func() func()
	}{
		{"aggregation", func() func() {
			net := overlay.New(g, maxDegree, nil)
			p := aggregation.New(aggregation.Config{RoundsPerEpoch: 1 << 20, Shards: 1, Workers: 1}, xrand.New(2))
			if err := p.StartEpoch(net); err != nil {
				b.Fatal(err)
			}
			return func() { p.RunRound(net) }
		}},
		{"pushsum", func() func() {
			net := overlay.New(g, maxDegree, nil)
			p := pushsum.New(pushsum.Config{RoundsPerEpoch: 1 << 20, Shards: 1, Workers: 1}, xrand.New(2))
			if err := p.StartEpoch(net); err != nil {
				b.Fatal(err)
			}
			return func() { p.RunRound(net) }
		}},
		{"cyclon", func() func() {
			c := cyclon.Default()
			c.Shards, c.Workers = 1, 1
			p := cyclon.New(c, xrand.New(2), nil)
			p.Bootstrap(g)
			return p.RunRound
		}},
	}
	for _, f := range families {
		b.Run(f.name, func(b *testing.B) {
			round := f.start()
			round() // sizes the engine's buffers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/node")
		})
	}
}
