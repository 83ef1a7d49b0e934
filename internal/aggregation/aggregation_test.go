package aggregation

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/stats"
	"p2psize/internal/xrand"
)

func hetNet(n int, seed uint64) *overlay.Network {
	return overlay.New(graph.Heterogeneous(n, 10, xrand.New(seed)), 10, nil)
}

func TestConfigValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("RoundsPerEpoch=0 did not panic")
			}
		}()
		New(Config{}, xrand.New(1))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("nil rng did not panic")
			}
		}()
		New(Default(), nil)
	}()
}

func TestName(t *testing.T) {
	p := New(Default(), xrand.New(1))
	if p.Name() != "aggregation(rounds=50)" {
		t.Fatalf("Name = %q", p.Name())
	}
	if p.cfg.RoundsPerEpoch != 50 {
		t.Fatal("Config not returned")
	}
}

// TestRunRoundBeforeStartErrors: a round before the first epoch is a
// caller's mistake reported as ErrNoEpoch, not a panic, and it leaves
// the protocol usable.
func TestRunRoundBeforeStartErrors(t *testing.T) {
	net := hetNet(10, 2)
	p := New(Default(), xrand.New(1))
	if err := p.RunRound(net); !errors.Is(err, ErrNoEpoch) {
		t.Fatalf("RunRound before StartEpoch returned %v, want ErrNoEpoch", err)
	}
	if net.Counter().Total() != 0 {
		t.Fatal("a refused round metered messages")
	}
	if err := p.StartEpoch(net); err != nil {
		t.Fatal(err)
	}
	if err := p.RunRound(net); err != nil {
		t.Fatal(err)
	}
}

func TestMassConservationStatic(t *testing.T) {
	net := hetNet(2000, 3)
	p := New(Default(), xrand.New(4))
	if err := p.StartEpoch(net); err != nil {
		t.Fatal(err)
	}
	if m := p.MassInEpoch(net); math.Abs(m-1) > 1e-12 {
		t.Fatalf("initial mass = %g", m)
	}
	for r := 0; r < 30; r++ {
		p.RunRound(net)
		if m := p.MassInEpoch(net); math.Abs(m-1) > 1e-9 {
			t.Fatalf("round %d: mass = %g, averaging must conserve mass", r, m)
		}
	}
}

func TestConvergesToTrueSize(t *testing.T) {
	const n = 10000
	net := hetNet(n, 5)
	p := New(Default(), xrand.New(6))
	if err := p.StartEpoch(net); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 60; r++ {
		p.RunRound(net)
	}
	est, ok := p.Estimate(net)
	if !ok {
		t.Fatal("no estimate at initiator")
	}
	if math.Abs(est-n)/n > 0.02 {
		t.Fatalf("estimate %.0f after 60 rounds, truth %d", est, n)
	}
}

func TestEstimateAvailableAtEveryNode(t *testing.T) {
	// §V: "eventually the size estimation is available at each node".
	const n = 2000
	net := hetNet(n, 7)
	p := New(Default(), xrand.New(8))
	if err := p.StartEpoch(net); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 80; r++ {
		p.RunRound(net)
	}
	bad := 0
	net.Graph().ForEachAlive(func(id graph.NodeID) {
		est, ok := p.EstimateAt(net, id)
		if !ok || math.Abs(est-n)/n > 0.05 {
			bad++
		}
	})
	if bad > n/100 {
		t.Fatalf("%d of %d nodes lack a good local estimate", bad, n)
	}
}

func TestEstimateRisesMonotonicallyToTruth(t *testing.T) {
	// The initiator starts at 1/value = 1 and the estimate grows toward N
	// as mass spreads — the shape of Figs 5 and 6.
	const n = 5000
	net := hetNet(n, 9)
	p := New(Default(), xrand.New(10))
	if err := p.StartEpoch(net); err != nil {
		t.Fatal(err)
	}
	first, _ := p.Estimate(net)
	if first != 1 {
		t.Fatalf("estimate before any round = %g, want 1", first)
	}
	prev := 0.0
	increased := 0
	for r := 0; r < 50; r++ {
		p.RunRound(net)
		est, ok := p.Estimate(net)
		if !ok {
			t.Fatalf("round %d: estimate unavailable", r)
		}
		if est > prev {
			increased++
		}
		prev = est
	}
	// Not strictly monotone (exchanges jitter), but strongly trending.
	if increased < 30 {
		t.Fatalf("estimate increased on only %d of 50 rounds", increased)
	}
	if math.Abs(prev-n)/n > 0.05 {
		t.Fatalf("final estimate %.0f, truth %d", prev, n)
	}
}

func TestOverheadFormula(t *testing.T) {
	// Paper §IV-E: overhead = nodes × rounds × 2.
	const n, rounds = 1000, 20
	net := hetNet(n, 11)
	p := New(Config{RoundsPerEpoch: rounds}, xrand.New(12))
	if err := p.StartEpoch(net); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		p.RunRound(net)
	}
	got := float64(net.Counter().Total())
	want := float64(n * rounds * 2)
	// Early rounds have fewer participants than n, so got <= want, but
	// participation saturates within a few rounds.
	if got > want {
		t.Fatalf("overhead %.0f exceeds N·R·2 = %.0f", got, want)
	}
	if got < 0.7*want {
		t.Fatalf("overhead %.0f far below N·R·2 = %.0f", got, want)
	}
	if push, pull := net.Counter().Count(metrics.KindPush), net.Counter().Count(metrics.KindPull); push != pull {
		t.Fatalf("push %d != pull %d", push, pull)
	}
}

func TestEpochRestartResetsValues(t *testing.T) {
	const n = 500
	net := hetNet(n, 13)
	p := New(Config{RoundsPerEpoch: 30}, xrand.New(14))
	for epoch := 0; epoch < 3; epoch++ {
		if err := p.StartEpoch(net); err != nil {
			t.Fatal(err)
		}
		if m := p.MassInEpoch(net); math.Abs(m-1) > 1e-12 {
			t.Fatalf("epoch %d starts with mass %g", epoch, m)
		}
		for r := 0; r < 30; r++ {
			p.RunRound(net)
		}
		est, ok := p.Estimate(net)
		if !ok {
			t.Fatalf("epoch %d: no estimate", epoch)
		}
		if math.Abs(est-n)/n > 0.1 {
			t.Fatalf("epoch %d estimate %.0f, truth %d", epoch, est, n)
		}
	}
	if p.epoch != 3 {
		t.Fatalf("epoch counter = %d", p.epoch)
	}
}

func TestInitiatorReplacedWhenDead(t *testing.T) {
	net := hetNet(100, 15)
	p := New(Default(), xrand.New(16))
	if err := p.StartEpoch(net); err != nil {
		t.Fatal(err)
	}
	old := p.initiator
	net.Leave(old)
	if err := p.StartEpoch(net); err != nil {
		t.Fatal(err)
	}
	if p.initiator == old || !net.Alive(p.initiator) {
		t.Fatalf("initiator not replaced: old=%d new=%d", old, p.initiator)
	}
}

func TestEmptyOverlay(t *testing.T) {
	g := graph.NewWithNodes(1)
	g.RemoveNode(0)
	net := overlay.New(g, 10, nil)
	p := New(Default(), xrand.New(17))
	if err := p.StartEpoch(net); !errors.Is(err, ErrEmptyOverlay) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := p.Estimate(net); ok {
		t.Fatal("estimate available before any epoch")
	}
}

func TestJoinersDiluteIntoEpoch(t *testing.T) {
	// Nodes joining mid-epoch enter with value 0 and participate once
	// contacted; mass stays 1 and the converged estimate reflects the
	// *new* size (growth adapts within the epoch, per Fig 16's shape).
	const n = 1000
	net := hetNet(n, 18)
	rng := xrand.New(19)
	p := New(Default(), xrand.New(20))
	if err := p.StartEpoch(net); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 10; r++ {
		p.RunRound(net)
	}
	for i := 0; i < n/2; i++ {
		net.JoinRandomDegree(rng)
	}
	for r := 0; r < 80; r++ {
		p.RunRound(net)
	}
	if m := p.MassInEpoch(net); math.Abs(m-1) > 1e-9 {
		t.Fatalf("mass = %g after joins", m)
	}
	est, ok := p.Estimate(net)
	if !ok {
		t.Fatal("no estimate")
	}
	if math.Abs(est-1500)/1500 > 0.1 {
		t.Fatalf("estimate %.0f, want ≈1500 after +50%% joins", est)
	}
}

func TestDeparturesLoseMass(t *testing.T) {
	const n = 1000
	net := hetNet(n, 21)
	rng := xrand.New(22)
	p := New(Default(), xrand.New(23))
	if err := p.StartEpoch(net); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 20; r++ {
		p.RunRound(net)
	}
	for i := 0; i < n/4; i++ {
		if id, ok := net.Graph().RandomAlive(rng); ok && id != p.initiator {
			net.Leave(id)
		}
	}
	m := p.MassInEpoch(net)
	if m >= 1 {
		t.Fatalf("mass %g did not decrease after departures", m)
	}
	// Expect roughly a quarter of the mass gone (values were near-uniform
	// after 20 rounds).
	if m < 0.5 || m > 0.95 {
		t.Fatalf("mass = %g, want ≈0.75", m)
	}
}

func TestOneShotEstimatorAdapter(t *testing.T) {
	const n = 2000
	net := hetNet(n, 24)
	e := NewEstimator(Config{RoundsPerEpoch: 50}, xrand.New(25))
	if e.Name() != "aggregation(rounds=50)" {
		t.Fatalf("Name = %q", e.Name())
	}
	est, err := e.Estimate(net)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-n)/n > 0.05 {
		t.Fatalf("estimate %.0f, truth %d", est, n)
	}
	if e.p.epoch != 1 {
		t.Fatal("adapter did not run an epoch")
	}
}

func TestConvergenceRound(t *testing.T) {
	// The paper's epoch length discussion: ~99% convergence within a few
	// tens of rounds at these scales, growing slowly (log) with N.
	small := hetNet(1000, 26)
	r1, err := ConvergenceRound(small, Default(), xrand.New(27), 0.01, 200)
	if err != nil {
		t.Fatal(err)
	}
	if r1 < 5 || r1 > 80 {
		t.Fatalf("convergence at %d rounds for n=1000", r1)
	}
	big := hetNet(20000, 28)
	r2, err := ConvergenceRound(big, Default(), xrand.New(29), 0.01, 300)
	if err != nil {
		t.Fatal(err)
	}
	if r2 <= r1-10 {
		t.Fatalf("larger network converged much faster: %d vs %d", r2, r1)
	}
}

func TestConvergenceRoundEmptyOverlay(t *testing.T) {
	g := graph.NewWithNodes(1)
	g.RemoveNode(0)
	net := overlay.New(g, 10, nil)
	if _, err := ConvergenceRound(net, Default(), xrand.New(30), 0.01, 10); err == nil {
		t.Fatal("empty overlay accepted")
	}
}

func TestDisconnectedOverlayDoesNotConverge(t *testing.T) {
	// Mass cannot cross components, so full convergence is impossible —
	// the mechanism behind the paper's shrinking-scenario failure.
	g := graph.NewWithNodes(20)
	for i := graph.NodeID(0); i < 9; i++ {
		g.AddEdge(i, i+1)
	}
	for i := graph.NodeID(10); i < 19; i++ {
		g.AddEdge(i, i+1)
	}
	net := overlay.New(g, 10, nil)
	if _, err := ConvergenceRound(net, Default(), xrand.New(31), 0.001, 50); err == nil {
		t.Fatal("disconnected overlay reported converged")
	}
}

// MassInEpoch returns the total value held by live participants. In a
// static network this is exactly 1 (averaging conserves mass); under
// churn the deficit measures the mass lost to departures.
func (p *Protocol) MassInEpoch(net *overlay.Network) float64 {
	g := net.Graph()
	sum := 0.0
	for i := 0; i < g.NumAlive(); i++ {
		id := g.AliveAt(i)
		if p.participant(id) {
			sum += p.values[id]
		}
	}
	return sum
}

// ConvergenceRound runs rounds until the relative dispersion of
// participant values (stddev/mean) drops below eps, and returns the
// number of rounds needed (capped at maxRounds). Used by the convergence
// experiments and the epoch-length discussion in §IV-D.
func ConvergenceRound(net *overlay.Network, cfg Config, rng *xrand.Rand, eps float64, maxRounds int) (int, error) {
	p := New(cfg, rng)
	if err := p.StartEpoch(net); err != nil {
		return 0, err
	}
	for r := 1; r <= maxRounds; r++ {
		p.RunRound(net)
		n, mean, sd := p.ParticipantStats(net)
		// All alive nodes participating and dispersion small: converged.
		if n == net.Size() && mean > 0 && sd/mean < eps {
			return r, nil
		}
	}
	return maxRounds, fmt.Errorf("aggregation: no convergence within %d rounds", maxRounds)
}

// ParticipantStats returns count, mean and standard deviation of the
// participant values — the convergence diagnostics (stddev/mean → 0).
func (p *Protocol) ParticipantStats(net *overlay.Network) (int, float64, float64) {
	g := net.Graph()
	var r stats.Running
	n := 0
	for i := 0; i < g.NumAlive(); i++ {
		id := g.AliveAt(i)
		if p.participant(id) {
			r.Add(p.values[id])
			n++
		}
	}
	return n, r.Mean(), r.StdDev()
}
