package graph

import (
	"testing"
	"testing/quick"

	"p2psize/internal/xrand"
)

func TestAddNodesAndEdges(t *testing.T) {
	g := New(4)
	a, b, c := g.AddNode(), g.AddNode(), g.AddNode()
	if g.NumAlive() != 3 || g.NumIDs() != 3 {
		t.Fatalf("NumAlive=%d NumIDs=%d", g.NumAlive(), g.NumIDs())
	}
	if !g.AddEdge(a, b) || !g.AddEdge(b, c) {
		t.Fatal("AddEdge failed")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if !g.HasEdge(a, b) || !g.HasEdge(b, a) {
		t.Fatal("edge not symmetric")
	}
	if g.HasEdge(a, c) {
		t.Fatal("phantom edge")
	}
	if g.Degree(b) != 2 || g.Degree(a) != 1 {
		t.Fatalf("degrees: a=%d b=%d", g.Degree(a), g.Degree(b))
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeRejectsSelfAndDuplicate(t *testing.T) {
	g := NewWithNodes(2)
	if g.AddEdge(0, 0) {
		t.Fatal("self-loop accepted")
	}
	if !g.AddEdge(0, 1) {
		t.Fatal("first edge rejected")
	}
	if g.AddEdge(1, 0) {
		t.Fatal("duplicate (reversed) edge accepted")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
}

func TestRemoveEdge(t *testing.T) {
	g := NewWithNodes(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge on existing edge returned false")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge on missing edge returned true")
	}
	if g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.NumEdges() != 1 {
		t.Fatal("edge state wrong after removal")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveNode(t *testing.T) {
	g := NewWithNodes(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	g.RemoveNode(0)
	if g.Alive(0) {
		t.Fatal("node 0 still alive")
	}
	if g.NumAlive() != 3 {
		t.Fatalf("NumAlive = %d", g.NumAlive())
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if g.Degree(1) != 0 || g.Degree(2) != 1 {
		t.Fatal("neighbor degrees not updated")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveDeadNodePanics(t *testing.T) {
	g := NewWithNodes(1)
	g.RemoveNode(0)
	defer func() {
		if recover() == nil {
			t.Fatal("double RemoveNode did not panic")
		}
	}()
	g.RemoveNode(0)
}

func TestAddEdgeDeadEndpointPanics(t *testing.T) {
	g := NewWithNodes(2)
	g.RemoveNode(1)
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge to dead node did not panic")
		}
	}()
	g.AddEdge(0, 1)
}

func TestAliveSampling(t *testing.T) {
	rng := xrand.New(1)
	g := NewWithNodes(10)
	for i := 0; i < 5; i++ {
		g.RemoveNode(NodeID(i))
	}
	counts := map[NodeID]int{}
	for i := 0; i < 20000; i++ {
		id, ok := g.RandomAlive(rng)
		if !ok {
			t.Fatal("RandomAlive failed on non-empty graph")
		}
		if !g.Alive(id) {
			t.Fatalf("sampled dead node %d", id)
		}
		counts[id]++
	}
	if len(counts) != 5 {
		t.Fatalf("sampled %d distinct nodes, want 5", len(counts))
	}
	for id, c := range counts {
		f := float64(c) / 20000
		if f < 0.15 || f > 0.25 {
			t.Fatalf("node %d sampled with frequency %g, want ~0.2", id, f)
		}
	}
}

func TestRandomAliveEmpty(t *testing.T) {
	g := NewWithNodes(1)
	g.RemoveNode(0)
	if _, ok := g.RandomAlive(xrand.New(1)); ok {
		t.Fatal("RandomAlive on empty graph returned ok")
	}
}

// TestRandomAliveIdentity holds RandomAlive to the table read it skips
// while no node was removed: the same node and the same generator state
// as AliveAt(Intn(NumAlive())), on a graph and a COW clone before any
// removal, and after a RemoveNode (and a later AddNode), once the swap-
// delete has moved an id off its own index.
func TestRandomAliveIdentity(t *testing.T) {
	check := func(name string, g *Graph, wantMoved bool) {
		t.Helper()
		got, want := xrand.New(3), xrand.New(3)
		moved := false
		for i := 0; i < 2000; i++ {
			id, ok := g.RandomAlive(got)
			idx := want.Intn(g.NumAlive())
			if !ok || id != g.AliveAt(idx) || *got != *want {
				t.Fatalf("%s: draw %d: RandomAlive = %d, %v; AliveAt(%d) = %d (generator states equal: %v)",
					name, i, id, ok, idx, g.AliveAt(idx), *got == *want)
			}
			moved = moved || int(id) != idx
		}
		if moved != wantMoved {
			t.Fatalf("%s: some draw left its index: %v, want %v", name, moved, wantMoved)
		}
	}
	g := Heterogeneous(50, 10, xrand.New(1))
	check("fresh", g, false)
	c := g.CloneCOW()
	check("clone", c, false)
	c.AddNode()
	check("clone after AddNode", c, false)
	c.RemoveNode(5)
	check("clone after RemoveNode", c, true)
	c.AddNode()
	check("clone after RemoveNode and AddNode", c, true)
	g.RemoveNode(17)
	check("after RemoveNode", g, true)
	g.AddNode()
	check("after RemoveNode and AddNode", g, true)
}

func TestRandomNeighbor(t *testing.T) {
	rng := xrand.New(2)
	g := NewWithNodes(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	seen := map[NodeID]bool{}
	for i := 0; i < 1000; i++ {
		v, ok := g.RandomNeighbor(0, rng)
		if !ok {
			t.Fatal("RandomNeighbor failed")
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Fatalf("neighbors seen: %v", seen)
	}
	if _, ok := g.RandomNeighbor(1, rng); !ok {
		t.Fatal("degree-1 node has a neighbor")
	}
	g.RemoveEdge(0, 1)
	g.RemoveEdge(0, 2)
	g.RemoveEdge(0, 3)
	if _, ok := g.RandomNeighbor(0, rng); ok {
		t.Fatal("isolated node returned a neighbor")
	}
}

func TestAliveIDsAndForEach(t *testing.T) {
	g := NewWithNodes(5)
	g.RemoveNode(2)
	ids := g.AliveIDs()
	if len(ids) != 4 {
		t.Fatalf("AliveIDs len = %d", len(ids))
	}
	count := 0
	g.ForEachAlive(func(id NodeID) {
		if id == 2 {
			t.Fatal("dead node visited")
		}
		count++
	})
	if count != 4 {
		t.Fatalf("visited %d nodes", count)
	}
	for i := 0; i < g.NumAlive(); i++ {
		if !g.Alive(g.AliveAt(i)) {
			t.Fatal("AliveAt returned dead node")
		}
	}
}

func TestAliveBoundsChecks(t *testing.T) {
	g := NewWithNodes(1)
	if g.Alive(-1) || g.Alive(5) {
		t.Fatal("out-of-range IDs reported alive")
	}
	if g.HasEdge(0, 99) || g.HasEdge(99, 0) {
		t.Fatal("HasEdge out-of-range true")
	}
}

// randomMutation drives a graph through a random operation sequence and
// is the workhorse of the invariant property test.
func randomMutation(g *Graph, rng *xrand.Rand) {
	switch rng.Intn(4) {
	case 0:
		g.AddNode()
	case 1:
		if u, ok := g.RandomAlive(rng); ok {
			if v, ok := g.RandomAlive(rng); ok {
				g.AddEdge(u, v)
			}
		}
	case 2:
		if u, ok := g.RandomAlive(rng); ok {
			if v, ok := g.RandomNeighbor(u, rng); ok {
				g.RemoveEdge(u, v)
			}
		}
	case 3:
		if g.NumAlive() > 1 {
			if u, ok := g.RandomAlive(rng); ok {
				g.RemoveNode(u)
			}
		}
	}
}

func TestInvariantsUnderRandomMutation(t *testing.T) {
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		g := NewWithNodes(8)
		for op := 0; op < 300; op++ {
			randomMutation(g, rng)
		}
		return g.CheckInvariants() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckInvariantsDetectsAsymmetry(t *testing.T) {
	g := NewWithNodes(2)
	g.AddEdge(0, 1)
	// Corrupt deliberately.
	g.nodes.slot(0).deg = 0
	if err := g.CheckInvariants(); err == nil {
		t.Fatal("asymmetric edge not detected")
	}
}

func TestCheckInvariantsDetectsSelfLoop(t *testing.T) {
	g := NewWithNodes(1)
	n := g.nodes.slot(0)
	n.nb[0], n.deg = 0, 1
	if err := g.CheckInvariants(); err == nil {
		t.Fatal("self-loop not detected")
	}
}

func TestCloneDeepAndIndependent(t *testing.T) {
	g := Heterogeneous(500, 10, xrand.New(42))
	g.RemoveNode(g.AliveAt(0)) // a dead node must survive the copy
	c := g.Clone()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.NumAlive() != g.NumAlive() || c.NumEdges() != g.NumEdges() || c.NumIDs() != g.NumIDs() {
		t.Fatalf("clone shape differs: alive %d/%d edges %d/%d ids %d/%d",
			c.NumAlive(), g.NumAlive(), c.NumEdges(), g.NumEdges(), c.NumIDs(), g.NumIDs())
	}
	for id := NodeID(0); int(id) < g.NumIDs(); id++ {
		if g.Alive(id) != c.Alive(id) {
			t.Fatalf("alive bit differs at %d", id)
		}
		if g.Degree(id) != c.Degree(id) {
			t.Fatalf("degree differs at %d", id)
		}
	}
	// Mutating the clone must not touch the original, and vice versa.
	beforeAlive, beforeEdges := g.NumAlive(), g.NumEdges()
	c.RemoveNode(c.AliveAt(0))
	if g.NumAlive() != beforeAlive || g.NumEdges() != beforeEdges {
		t.Fatal("clone mutation leaked into original")
	}
	g.RemoveNode(g.AliveAt(1))
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("original mutation corrupted clone: %v", err)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneReplaysIdentically(t *testing.T) {
	// The property the parallel dynamic engine relies on: the same churn
	// applied with identically seeded rngs to a graph and its clone gives
	// identical trajectories.
	g := Heterogeneous(300, 10, xrand.New(7))
	c := g.Clone()
	ra, rb := xrand.New(99), xrand.New(99)
	for i := 0; i < 100; i++ {
		if a, ok := g.RandomAlive(ra); ok {
			g.RemoveNode(a)
		}
		if b, ok := c.RandomAlive(rb); ok {
			c.RemoveNode(b)
		}
		if g.NumAlive() != c.NumAlive() || g.NumEdges() != c.NumEdges() {
			t.Fatalf("step %d: trajectories diverged", i)
		}
	}
}

// TestCopyAliveAndDegreeSum: the two block accessors a round sweep reads
// the graph through agree with the per-entry ones — across page
// boundaries, for short and over-long buffers, on a COW clone, and with
// a spilled hub among the ids.
func TestCopyAliveAndDegreeSum(t *testing.T) {
	g := Heterogeneous(3*pageSize+17, 10, xrand.New(1))
	rng := xrand.New(2)
	for i := 0; i < 500; i++ {
		id, _ := g.RandomAlive(rng)
		g.RemoveNode(id)
	}
	hub := g.AliveAt(0)
	for i := 1; g.Degree(hub) <= inlineCap+3; i++ {
		g.AddEdge(hub, g.AliveAt(i))
	}
	clone := g.CloneCOW()
	clone.RemoveNode(clone.AliveAt(pageSize + 3))
	for _, gg := range []*Graph{g, clone} {
		alive := gg.NumAlive()
		for _, n := range []int{0, 1, pageSize - 1, pageSize, pageSize + 1, alive, alive + 5} {
			dst := make([]NodeID, n)
			for i := range dst {
				dst[i] = None
			}
			want := min(n, alive)
			gg.CopyAlive(dst)
			for i, id := range dst {
				if i < want && id != gg.AliveAt(i) || i >= want && id != None {
					t.Fatalf("CopyAlive into %d slots: slot %d holds %d", n, i, id)
				}
			}
		}
		ids := gg.AliveIDs()
		sum := 0
		for _, id := range ids {
			sum += gg.Degree(id)
		}
		if got := gg.DegreeSum(ids); got != sum || got != 2*gg.NumEdges() {
			t.Fatalf("DegreeSum = %d, degrees add to %d, 2|E| = %d", got, sum, 2*gg.NumEdges())
		}
	}
}

// TestReserveDegrees: a reservation beyond the record moves an inline
// list to the spill table with exactly the room asked, grows a list
// already spilled,
// and leaves a list that fits, the neighbours, their order and a COW
// clone's base untouched; a reserved node then takes its edges without
// its list being made again.
func TestReserveDegrees(t *testing.T) {
	base := NewWithNodes(60)
	for v := NodeID(3); v <= 7; v++ {
		base.AddEdge(0, v)
	}
	for v := NodeID(3); v <= 20; v++ {
		base.AddEdge(1, v) // spilled at its 14th neighbour
	}
	base.ReserveDegrees([]int32{inlineCap})
	if base.nodes.at(0).spill >= 0 {
		t.Fatal("a reservation that fits the record spilled the list")
	}
	g := base.CloneCOW()
	g.ReserveDegrees([]int32{30, 50, 20})
	nb := g.Neighbors(0)
	if len(nb) != 5 || cap(nb) != 30 || nb[0] != 3 || nb[4] != 7 {
		t.Fatalf("reserved list %v with room %d, want [3 4 5 6 7] with room 30", nb, cap(nb))
	}
	if l := g.Neighbors(2); len(l) != 0 || cap(l) != 20 {
		t.Fatalf("node 2's empty list has room %d, want 20", cap(l))
	}
	if l := g.Neighbors(1); len(l) != 18 || cap(l) < 50 || l[0] != 3 || l[17] != 20 {
		t.Fatalf("a spilled list reserved for 50 holds %v with room %d", l, cap(l))
	}
	for v := NodeID(8); v <= 32; v++ {
		g.AddEdge(0, v)
	}
	if got := g.Neighbors(0); &got[0] != &nb[0] || len(got) != 30 {
		t.Fatalf("30 edges on a list reserved for 30: %d neighbours, list re-made %v", len(got), &got[0] != &nb[0])
	}
	for _, x := range []*Graph{g, base} {
		if err := x.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if base.Degree(0) != 5 || base.Degree(1) != 18 || g.Degree(0) != 30 {
		t.Fatalf("base degrees %d and %d, clone %d; want 5, 18 and 30", base.Degree(0), base.Degree(1), g.Degree(0))
	}
}
