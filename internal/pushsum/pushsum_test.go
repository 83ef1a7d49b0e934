package pushsum

import (
	"math"
	"testing"

	"p2psize/internal/epidemic"
	"p2psize/internal/graph"
	"p2psize/internal/overlay"
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
			if p.Participant(g.AliveAt(i)) {
				participants++
			}
		}
		if math.Abs(sum-participants) > 1e-6 {
			t.Fatalf("round %d: sum mass %g, participants %g", r, sum, participants)
		}
	}
}

func TestInitiatorSurvivesRedraw(t *testing.T) {
	// When the initiator departs between epochs, the next StartEpoch
	// redraws one instead of failing — the monitoring contract.
	net := hetNet(200, 7)
	p := New(Config{RoundsPerEpoch: 30}, xrand.New(8))
	e := epidemic.NewEstimator(&p.Epoch, idle)
	if _, err := e.Estimate(net); err != nil {
		t.Fatal(err)
	}
	net.Leave(p.Initiator)
	est, err := e.Estimate(net)
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 {
		t.Fatalf("estimate %g after initiator redraw", est)
	}
}

// MassInEpoch returns the totals held by live participants: the sum
// mass (one per participant in a static network) and the weight mass
// (exactly 1; under churn the deficit measures departures).
func (p *Protocol) MassInEpoch(net *overlay.Network) (sum, weight float64) {
	g := net.Graph()
	for i := 0; i < g.NumAlive(); i++ {
		id := g.AliveAt(i)
		if p.Participant(id) {
			sum += p.State[id].sum
			weight += p.State[id].weight
		}
	}
	return sum, weight
}
