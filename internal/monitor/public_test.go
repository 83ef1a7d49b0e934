package monitor_test

// The tick fork seen from the public boundary: an observe-only custom
// estimator is handed a *p2psize.Network that wraps its private view of
// the replay group's clone.

import (
	"testing"

	"p2psize"
)

// relay is a custom observe-only estimator: it runs a Sample&Collide on
// the network it is handed and keeps its own tally of what that
// network's meter advanced by.
type relay struct {
	inner p2psize.Estimator
	sent  uint64
}

func (r *relay) Name() string         { return "relay(" + r.inner.Name() + ")" }
func (r *relay) MutatesOverlay() bool { return false }
func (r *relay) Estimate(n *p2psize.Network) (float64, error) {
	before := n.Messages()
	v, err := r.inner.Estimate(n)
	r.sent += n.Messages() - before
	return v, err
}

// TestTickForkPublicObserveOnlyMessages: the traffic the monitor
// attributes to a custom observe-only estimator is exactly what it sent
// through its own *Network — at every worker count, with neighbours
// metering beside it in the same group.
func TestTickForkPublicObserveOnlyMessages(t *testing.T) {
	const nodes, horizon = 500, 100.0
	for _, workers := range []int{1, 2, 8} {
		net, err := p2psize.NewNetwork(p2psize.NetworkOptions{Nodes: nodes, Seed: 91})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := p2psize.GenerateTrace(p2psize.TraceOptions{Nodes: nodes, Horizon: horizon, Seed: 92})
		if err != nil {
			t.Fatal(err)
		}
		var relays []*relay
		for _, c := range []p2psize.EstimatorConfig{{SCL: 20, Seed: 93}, {SCL: 30, Seed: 94}} {
			sc, err := p2psize.NewEstimatorByName("samplecollide", c, nil)
			if err != nil {
				t.Fatal(err)
			}
			relays = append(relays, &relay{inner: sc})
		}
		hops, err := p2psize.NewEstimatorByName("hopssampling", p2psize.EstimatorConfig{Seed: 95}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ests := []p2psize.Estimator{relays[0], hops, relays[1]}
		res, err := p2psize.RunMonitor(net, tr, ests, p2psize.MonitorOptions{
			Cadence: 10, ReplaySeed: 96, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Groups() != 1 {
			t.Fatalf("workers=%d: %d groups, want 1", workers, res.Groups())
		}
		var total uint64
		for i, k := range []int{0, 2} {
			r := relays[i]
			if r.sent == 0 {
				t.Fatalf("workers=%d: %s sent nothing", workers, r.Name())
			}
			if got := res.Tracking(k).MsgsPerTimeUnit; got != float64(r.sent)/horizon {
				t.Fatalf("workers=%d: %s is billed %g msgs/time, sent %d over %g", workers, r.Name(), got, r.sent, horizon)
			}
			total += r.sent
		}
		if net.Messages() <= total {
			t.Fatalf("workers=%d: the network's meter reads %d, the relays alone sent %d", workers, net.Messages(), total)
		}
	}
}
