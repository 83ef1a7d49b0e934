package pushsum

import (
	"math"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/xrand"
)

// passThrough is a fault policy that changes nothing: no extra
// messages, no drops, no lies, no NAT. It counts the sends it prices
// and how many of them came batched.
type passThrough struct{ sends, batched int }

func (p *passThrough) OnSend(_ metrics.Kind, count uint64) uint64 {
	p.sends++
	if count != 1 {
		p.batched++
	}
	return 0
}
func (*passThrough) DropProb() float64                { return 0 }
func (*passThrough) ReportScale(graph.NodeID) float64 { return 1 }
func (*passThrough) Unreachable(graph.NodeID) bool    { return false }

// countingTransport counts deliveries by kind and how many of them
// carried more than one message.
type countingTransport struct {
	calls   [metrics.NumKinds]int
	batched int
}

func (c *countingTransport) Deliver(_ graph.NodeID, kind metrics.Kind, count uint64) error {
	c.calls[kind]++
	if count != 1 {
		c.batched++
	}
	return nil
}

// TestEngineFlushPerRoundMatchesPerKey runs push-sum on a single-shard
// overlay with nothing installed (meters flushed once per round), under
// a pass-through fault policy and under a counting transport (flushed
// after every key). Counter totals by kind and the protocol state must
// be bit-equal across the three, and both listeners must still see
// every push on its own.
func TestEngineFlushPerRoundMatchesPerKey(t *testing.T) {
	const n, rounds = 3000, 12
	if s := parallel.Shards(0, n); s != 1 {
		t.Fatalf("%d nodes auto-size to %d shards; the test needs the single-shard path", n, s)
	}
	type outcome struct {
		counter       metrics.Counter
		sums, weights []float64
		epochOf       []uint32
	}
	run := func(setup func(*overlay.Network)) outcome {
		net := hetNet(n, 5)
		setup(net)
		p := New(Config{RoundsPerEpoch: rounds}, xrand.New(6))
		if err := p.StartEpoch(net); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			p.RunRound(net)
		}
		return outcome{*net.Counter(), p.sums, p.weights, p.epochOf}
	}
	bare := run(func(*overlay.Network) {})
	pol := &passThrough{}
	tr := &countingTransport{}
	for name, o := range map[string]outcome{
		"fault policy": run(func(net *overlay.Network) { net.SetFaultPolicy(pol) }),
		"transport":    run(func(net *overlay.Network) { net.SetTransport(tr) }),
	} {
		if o.counter != bare.counter {
			t.Fatalf("%s: counter %v, bare overlay %v", name, &o.counter, &bare.counter)
		}
		if len(o.sums) != len(bare.sums) {
			t.Fatalf("%s: %d pairs, bare overlay %d", name, len(o.sums), len(bare.sums))
		}
		for i := range o.sums {
			if math.Float64bits(o.sums[i]) != math.Float64bits(bare.sums[i]) ||
				math.Float64bits(o.weights[i]) != math.Float64bits(bare.weights[i]) || o.epochOf[i] != bare.epochOf[i] {
				t.Fatalf("%s: node %d holds (%v, %v, %d), bare overlay (%v, %v, %d)", name, i,
					o.sums[i], o.weights[i], o.epochOf[i], bare.sums[i], bare.weights[i], bare.epochOf[i])
			}
		}
	}
	// Every node has a neighbour, so every key sends one push.
	const pushes = n * rounds
	if got := bare.counter.Count(metrics.KindPush); got != pushes {
		t.Fatalf("bare overlay metered %d pushes, want %d", got, pushes)
	}
	if pol.sends != pushes || pol.batched != 0 {
		t.Fatalf("fault policy priced %d sends (%d batched), want %d one at a time", pol.sends, pol.batched, pushes)
	}
	if tr.calls[metrics.KindPush] != pushes || tr.batched != 0 {
		t.Fatalf("transport saw %d push deliveries (%d batched), want %d one at a time", tr.calls[metrics.KindPush], tr.batched, pushes)
	}
}
