package aggregation

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

// TestEngineFlushPerRoundMatchesPerKey runs Aggregation on a single-
// shard overlay with nothing installed (meters flushed once per round),
// under a pass-through fault policy and under a counting transport
// (flushed after every key). Counter totals by kind and the protocol
// state must be bit-equal across the three, and both listeners must
// still see every message on its own.
func TestEngineFlushPerRoundMatchesPerKey(t *testing.T) {
	const n, rounds = 3000, 12
	if s := parallel.Shards(0, n); s != 1 {
		t.Fatalf("%d nodes auto-size to %d shards; the test needs the single-shard path", n, s)
	}
	type outcome struct {
		counter metrics.Counter
		values  []float64
		epochOf []uint32
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
		return outcome{*net.Counter(), p.values, p.epochOf}
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
		if len(o.values) != len(bare.values) {
			t.Fatalf("%s: %d values, bare overlay %d", name, len(o.values), len(bare.values))
		}
		for i := range o.values {
			if math.Float64bits(o.values[i]) != math.Float64bits(bare.values[i]) || o.epochOf[i] != bare.epochOf[i] {
				t.Fatalf("%s: node %d holds (%v, %d), bare overlay (%v, %d)",
					name, i, o.values[i], o.epochOf[i], bare.values[i], bare.epochOf[i])
			}
		}
	}
	// Every node has a neighbour, so every key sends one push and, with
	// nothing dropped, gets one pull back.
	const perKind = n * rounds
	if got := bare.counter.Count(metrics.KindPush) + bare.counter.Count(metrics.KindPull); got != 2*perKind {
		t.Fatalf("bare overlay metered %d messages, want %d", got, 2*perKind)
	}
	if pol.sends != 2*perKind || pol.batched != 0 {
		t.Fatalf("fault policy priced %d sends (%d batched), want %d one at a time", pol.sends, pol.batched, 2*perKind)
	}
	if tr.calls[metrics.KindPush] != perKind || tr.calls[metrics.KindPull] != perKind || tr.batched != 0 {
		t.Fatalf("transport saw %d push and %d pull deliveries (%d batched), want %d each one at a time",
			tr.calls[metrics.KindPush], tr.calls[metrics.KindPull], tr.batched, perKind)
	}
}
