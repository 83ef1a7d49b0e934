package overlay

import (
	"runtime"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/xrand"
)

// replayChurn applies a deterministic join/leave mix through the
// overlay API — the operations trace replay and churn runners perform
// on per-instance clones.
func replayChurn(n *Network, seed uint64, steps int) {
	rng := xrand.New(seed)
	for i := 0; i < steps; i++ {
		if rng.Bernoulli(0.5) {
			n.JoinRandomDegree(rng)
		} else {
			n.LeaveRandom(rng)
		}
	}
}

func netsEqual(t *testing.T, a, b *Network) {
	t.Helper()
	ga, gb := a.Graph(), b.Graph()
	if ga.NumIDs() != gb.NumIDs() || ga.NumAlive() != gb.NumAlive() || ga.NumEdges() != gb.NumEdges() {
		t.Fatalf("shape differs: ids %d/%d alive %d/%d edges %d/%d",
			ga.NumIDs(), gb.NumIDs(), ga.NumAlive(), gb.NumAlive(), ga.NumEdges(), gb.NumEdges())
	}
	for id := graph.NodeID(0); int(id) < ga.NumIDs(); id++ {
		if ga.Alive(id) != gb.Alive(id) {
			t.Fatalf("alive state differs at node %d", id)
		}
		na, nb := ga.Neighbors(id), gb.Neighbors(id)
		if len(na) != len(nb) {
			t.Fatalf("degree differs at node %d: %d vs %d", id, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("neighbor iteration differs at node %d slot %d: %d vs %d", id, i, na[i], nb[i])
			}
		}
	}
}

func TestCloneCOWMatchesCloneUnderChurn(t *testing.T) {
	base, _ := newTestNet(1500, 31)
	deep, _ := newTestNet(1500, 31) // an independent, fully owned copy of base
	cow := base.CloneCOW()
	replayChurn(deep, 99, 1200)
	replayChurn(cow, 99, 1200)
	netsEqual(t, deep, cow)
	if err := cow.Graph().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Identical replays must also meter identically (fresh counters).
	deep.Send(metrics.KindPush)
	cow.Send(metrics.KindPush)
	if deep.Counter().Total() != cow.Counter().Total() {
		t.Fatalf("counter totals differ: %d vs %d", deep.Counter().Total(), cow.Counter().Total())
	}
}

func TestCloneCOWDeltaIsolation(t *testing.T) {
	base, _ := newTestNet(1000, 32)
	wantSize, wantEdges := base.Size(), base.Graph().NumEdges()
	a := base.CloneCOW()
	b := base.CloneCOW()
	replayChurn(a, 1, 600)
	replayChurn(b, 2, 600)
	if base.Size() != wantSize || base.Graph().NumEdges() != wantEdges {
		t.Fatalf("base mutated by clone churn: size %d->%d, edges %d->%d",
			wantSize, base.Size(), wantEdges, base.Graph().NumEdges())
	}
	if a.Size() == b.Size() && a.Graph().NumEdges() == b.Graph().NumEdges() {
		t.Fatal("differently seeded replays converged — isolation test is vacuous")
	}
	if base.Counter().Total() != 0 {
		t.Fatal("clone traffic leaked into the base counter")
	}
	if err := a.Graph().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := b.Graph().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneCOWDeltaStaysSmall(t *testing.T) {
	// Uniform churn spreads over every page of a clone, and one flat
	// copy of the records (64 bytes per id) plus the alive list is all
	// it can ever cost — the memory contract behind fanning >8
	// instances at paper scale.
	const n = 100000
	if testing.Short() {
		t.Skip("100k-node delta measurement")
	}
	base, _ := newTestNet(n, 33)
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	cow := base.CloneCOW()
	replayChurn(cow, 3, n/100)
	got := heap() - before
	if flat := uint64(cow.Graph().NumIDs())*(64+4) + 1<<20; got > flat {
		t.Fatalf("clone holds %d bytes after 1%% churn; one flat copy is %d", got, flat)
	}
	runtime.KeepAlive(base)
	runtime.KeepAlive(cow)
}
