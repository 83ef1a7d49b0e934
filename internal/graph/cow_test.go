package graph

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"p2psize/internal/xrand"
)

// churnSequence applies a deterministic mix of removals, additions and
// re-wirings to g — the same operations overlay churn replay performs.
func churnSequence(g *Graph, seed uint64, ops int) {
	rng := xrand.New(seed)
	for i := 0; i < ops; i++ {
		switch rng.Intn(3) {
		case 0:
			if id, ok := g.RandomAlive(rng); ok {
				g.RemoveNode(id)
			}
		case 1:
			id := g.AddNode()
			for j := 0; j < 3; j++ {
				if v, ok := g.RandomAlive(rng); ok && v != id {
					g.AddEdge(id, v)
				}
			}
		default:
			if u, ok := g.RandomAlive(rng); ok {
				if v, ok := g.RandomAlive(rng); ok {
					if !g.AddEdge(u, v) {
						g.RemoveEdge(u, v)
					}
				}
			}
		}
	}
}

// graphsEqual compares the full observable structure, including
// adjacency order (identical operation sequences must give identical
// iteration order, which later seeded draws depend on).
func graphsEqual(a, b *Graph) error {
	if a.NumIDs() != b.NumIDs() || a.NumAlive() != b.NumAlive() || a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("shape differs: ids %d/%d alive %d/%d edges %d/%d",
			a.NumIDs(), b.NumIDs(), a.NumAlive(), b.NumAlive(), a.NumEdges(), b.NumEdges())
	}
	for id := NodeID(0); int(id) < a.NumIDs(); id++ {
		if a.Alive(id) != b.Alive(id) {
			return fmt.Errorf("alive state differs at %d", id)
		}
		na, nb := a.Neighbors(id), b.Neighbors(id)
		if len(na) != len(nb) {
			return fmt.Errorf("degree differs at %d: %d vs %d", id, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				return fmt.Errorf("adjacency order differs at node %d slot %d", id, i)
			}
		}
	}
	for i := 0; i < a.NumAlive(); i++ {
		if a.AliveAt(i) != b.AliveAt(i) {
			return fmt.Errorf("alive list order differs at slot %d", i)
		}
	}
	return nil
}

// Clone returns a deep copy of g sharing no mutable state with it: the
// reference the tests hold CloneCOW against.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		nodes:    g.nodes.clone(),
		aliveIDs: g.aliveIDs.clone(),
		edges:    g.edges,
		spill:    make([][]NodeID, len(g.spill)),
		reserved: g.reserved,
	}
	for i, a := range g.spill {
		ng.spill[i] = slices.Clone(a)
	}
	return ng
}

// clone returns a deep, fully owned copy.
func (p *pages[T]) clone() pages[T] {
	tbl := make([]*[pageSize]T, len(p.tbl))
	for i, page := range p.tbl {
		np := *page
		tbl[i] = &np
	}
	return pages[T]{tbl: tbl, n: p.n}
}

func TestCloneCOWEquivalentToClone(t *testing.T) {
	base := Heterogeneous(2000, 10, xrand.New(1))
	deep := base.Clone()
	cow := base.CloneCOW()
	churnSequence(deep, 42, 1500)
	churnSequence(cow, 42, 1500)
	if err := graphsEqual(deep, cow); err != nil {
		t.Fatalf("COW clone diverged from deep clone: %v", err)
	}
	if err := cow.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneCOWIsolation(t *testing.T) {
	base := Heterogeneous(1000, 10, xrand.New(2))
	want := base.Clone() // frozen reference copy of the base
	a := base.CloneCOW()
	b := base.CloneCOW()
	churnSequence(a, 7, 800)
	churnSequence(b, 8, 800)
	if err := graphsEqual(base, want); err != nil {
		t.Fatalf("mutating COW clones leaked into the base: %v", err)
	}
	if err := graphsEqual(a, b); err == nil {
		t.Fatal("differently churned clones ended identical — isolation test is vacuous")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneCOWConcurrentClones(t *testing.T) {
	// Clones of one base mutate concurrently; run under -race this proves
	// the shared-base scheme has no hidden write sharing.
	base := Heterogeneous(2000, 10, xrand.New(3))
	var wg sync.WaitGroup
	clones := make([]*Graph, 4)
	for k := range clones {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := base.CloneCOW()
			churnSequence(c, uint64(100+k), 1000)
			clones[k] = c
		}(k)
	}
	wg.Wait()
	for k, c := range clones {
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("clone %d: %v", k, err)
		}
	}
	// Same seed in a fresh goroutine-free run gives the same result.
	ref := base.CloneCOW()
	churnSequence(ref, 100, 1000)
	if err := graphsEqual(ref, clones[0]); err != nil {
		t.Fatalf("concurrent clone 0 not deterministic: %v", err)
	}
}

func TestCloneCOWRemovedNodeCannotScribbleBase(t *testing.T) {
	// Regression shape: RemoveNode on a shared list must not leave a
	// truncated shared array behind that a later AddEdge appends into.
	base := NewWithNodes(4)
	base.AddEdge(0, 1)
	base.AddEdge(0, 2)
	cow := base.CloneCOW()
	cow.RemoveNode(0)
	id := cow.AddNode()
	cow.AddEdge(id, 1)
	if got := base.Neighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("base adjacency corrupted: %v", got)
	}
}

// TestCloneCOWUnwrittenPredicate holds copy-on-write to its first rule:
// every write owns its page first (pages.slot, pages.append, and a
// spilled list only after its node's record). So a clone that still
// shares every page (SharedPages() == TotalPages()) has not been
// written: every mutator, from a fresh clone, un-shares a page, and no
// reader does. The base gives node 0 a full record (inlineCap
// neighbours, so one more spills the list) and node 1 an already
// spilled list.
func TestCloneCOWUnwrittenPredicate(t *testing.T) {
	unwritten := func(g *Graph) bool { return g.SharedPages() == g.TotalPages() }
	base := Heterogeneous(3000, 10, xrand.New(4))
	for _, hub := range []NodeID{0, 1} {
		for v := NodeID(2000); base.Degree(hub) < inlineCap+int(hub); v++ {
			base.AddEdge(hub, v)
		}
	}
	if base.Degree(0) != inlineCap || base.Degree(1) <= inlineCap {
		t.Fatalf("hub degrees %d, %d", base.Degree(0), base.Degree(1))
	}
	if unwritten(base) {
		t.Fatal("a graph that is not a clone reports itself unwritten")
	}
	edge := func(g *Graph) (NodeID, NodeID) { return 5, g.Neighbors(5)[0] }
	nonEdge := func(g *Graph) (NodeID, NodeID) {
		for v := NodeID(2500); ; v++ {
			if !g.HasEdge(6, v) {
				return 6, v
			}
		}
	}
	for _, tc := range []struct {
		name   string
		writes bool
		op     func(g *Graph)
	}{
		{"AddNode", true, func(g *Graph) { g.AddNode() }},
		{"AddEdge", true, func(g *Graph) { g.AddEdge(nonEdge(g)) }},
		{"AddEdge spilling past inlineCap", true, func(g *Graph) {
			u, v := NodeID(0), NodeID(2999)
			if !g.AddEdge(u, v) || g.Degree(u) != inlineCap+1 {
				t.Fatal("the edge did not spill the full record")
			}
		}},
		{"AddEdge on a spilled list", true, func(g *Graph) { g.AddEdge(1, 2998) }},
		{"RemoveEdge", true, func(g *Graph) { g.RemoveEdge(edge(g)) }},
		{"RemoveNode", true, func(g *Graph) { g.RemoveNode(7) }},
		{"WireUpTo", true, func(g *Graph) {
			u := NodeID(8)
			g.WireUpTo(u, g.Degree(u)+1, 20, xrand.New(5))
		}},
		{"RandomNeighbor", false, func(g *Graph) { g.RandomNeighbor(1, xrand.New(6)) }},
		{"CopyAlive", false, func(g *Graph) { g.CopyAlive(make([]NodeID, g.NumAlive())) }},
		{"DegreeSum", false, func(g *Graph) { g.DegreeSum([]NodeID{0, 1, 2}) }},
		{"HasEdge", false, func(g *Graph) { g.HasEdge(edge(g)) }},
		{"Neighbors", false, func(g *Graph) { g.Neighbors(1) }},
		{"AliveAt", false, func(g *Graph) { g.AliveAt(g.NumAlive() - 1) }},
		{"RecordAddr", false, func(g *Graph) { g.RecordAddr(9) }},
		{"HintRemove", false, func(g *Graph) { g.HintRemove(1) }},
	} {
		c := base.CloneCOW()
		if !unwritten(c) {
			t.Fatalf("%s: a fresh clone reports itself written", tc.name)
		}
		tc.op(c)
		if got := !unwritten(c); got != tc.writes {
			t.Errorf("%s: written = %v, want %v", tc.name, got, tc.writes)
		}
	}
	if !unwritten(base.CloneCOW().CloneCOW()) {
		t.Fatal("a fresh clone of a clone reports itself written")
	}
}

func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// flatCopyBytes bounds what a clone can ever cost: one 64-byte record
// per id, the alive list, and slack for page tables, partial pages and
// spilled lists.
func flatCopyBytes(g *Graph) uint64 {
	return uint64(g.NumIDs())*(64+4) + 4*pageSize*64
}

func TestCloneCOWFootprint100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node footprint measurement")
	}
	const n = 100000
	base := Heterogeneous(n, 10, xrand.New(4))

	before := heapInUse()
	deep := base.Clone()
	deepBytes := heapInUse() - before

	before = heapInUse()
	cow := base.CloneCOW()
	cowBytes := heapInUse() - before

	// The deep clone duplicates every record; the COW clone pays only
	// the page tables, in a handful of allocations.
	if cowBytes > deepBytes*7/10 {
		t.Fatalf("COW clone costs %d bytes, deep clone %d; base not shared", cowBytes, deepBytes)
	}
	if allocs := testing.AllocsPerRun(1, func() { base.CloneCOW() }); allocs > 10 {
		t.Fatalf("CloneCOW made %.0f allocations; want O(1), not one per node", allocs)
	}

	// Uniform churn on 1% of the overlay lands in every page, and that
	// is the worst case: the clone never costs more than one flat copy.
	rng := xrand.New(5)
	for i := 0; i < n/100; i++ {
		if id, ok := cow.RandomAlive(rng); ok {
			cow.RemoveNode(id)
		}
	}
	if got := heapInUse() - before; got > flatCopyBytes(cow) {
		t.Fatalf("clone holds %d bytes after 1%% churn; one flat copy is %d", got, flatCopyBytes(cow))
	}
	if err := cow.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Keep both clones reachable so the GC between measurements cannot
	// collect the one measured first.
	runtime.KeepAlive(deep)
	runtime.KeepAlive(base)
}

func TestCOWFootprint1M(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-node footprint measurement")
	}
	const n = 1000000
	base := Heterogeneous(n, 10, xrand.New(6))

	// Up-front clone cost is O(N/pageSize) page pointers — a constant
	// number of allocations and well under a megabyte at 1M, where a
	// flat copy costs 68MB.
	if allocs := testing.AllocsPerRun(1, func() { base.CloneCOW() }); allocs > 10 {
		t.Fatalf("CloneCOW made %.0f allocations; want O(1), not one per node", allocs)
	}
	before := heapInUse()
	cow := base.CloneCOW()
	cowBytes := heapInUse() - before
	if cowBytes > n {
		t.Fatalf("1M-node CloneCOW costs %d bytes up front; want O(N/pageSize) pointers (~%d)", cowBytes, 16*n/pageSize)
	}

	// Thereafter the cost is O(touched pages): a light touch owns only
	// the pages its writes land in.
	rng := xrand.New(7)
	for i := 0; i < 4; i++ {
		if id, ok := cow.RandomAlive(rng); ok {
			cow.RemoveNode(id)
		}
	}
	total := cow.TotalPages()
	if shared := cow.SharedPages(); shared < total*85/100 {
		t.Fatalf("%d of %d pages shared after 4 removals; want >= 85%%", shared, total)
	}
	if err := cow.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The page is the unit of sharing, so what a clone costs follows
	// where the churn lands, not how much of it there is: 1% of the
	// overlay leaving from one id range of a ring (their neighbours sit
	// in the same pages) owns that range, the tail of the alive list
	// swapped into it, and nothing else.
	ring := Ring(n).CloneCOW()
	for id := NodeID(n / 2); id < n/2+n/100; id++ {
		ring.RemoveNode(id)
	}
	total = ring.TotalPages()
	if shared := ring.SharedPages(); shared < total*90/100 {
		t.Fatalf("%d of %d pages shared after clustered 1%% churn; want >= 90%%", shared, total)
	}
	if err := ring.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(base)
}
