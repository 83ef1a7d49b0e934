package cyclon

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/parallel"
	"p2psize/internal/samplecollide"
	"p2psize/internal/xrand"
)

func bootstrapped(n int, seed uint64) *Protocol {
	g := graph.Heterogeneous(n, 10, xrand.New(seed))
	p := New(Default(), xrand.New(seed+1), nil)
	p.Bootstrap(g)
	return p
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{{Shards: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg, xrand.New(1), nil)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("nil rng did not panic")
			}
		}()
		New(Default(), nil, nil)
	}()
}

func TestBootstrapViews(t *testing.T) {
	p := bootstrapped(500, 1)
	if p.Size() != 500 {
		t.Fatalf("Size = %d", p.Size())
	}
	if avg := p.AvgViewSize(); avg < 4 || avg > 8 {
		t.Fatalf("AvgViewSize = %.1f", avg)
	}
	if p.StaleFraction() != 0 {
		t.Fatal("fresh bootstrap has stale entries")
	}
}

func TestViewCapacityInvariant(t *testing.T) {
	p := bootstrapped(300, 2)
	for r := 0; r < 30; r++ {
		p.RunRound()
	}
	for _, id := range p.appendMemberIDs(nil) {
		view := p.views[id]
		if len(view) > viewSize {
			t.Fatalf("view of %d has %d entries, cap %d", id, len(view), viewSize)
		}
		seen := map[graph.NodeID]bool{}
		for _, e := range view {
			if e.node == id {
				t.Fatalf("self-pointer in view of %d", id)
			}
			if seen[e.node] {
				t.Fatalf("duplicate %d in view of %d", e.node, id)
			}
			seen[e.node] = true
		}
	}
}

func TestShufflingPreservesConnectivity(t *testing.T) {
	p := bootstrapped(1000, 3)
	for r := 0; r < 50; r++ {
		p.RunRound()
	}
	g := p.ExportGraph(1000)
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if lc := graph.LargestComponent(g); lc < 990 {
		t.Fatalf("largest component %d of 1000 after 50 rounds", lc)
	}
}

func TestChurnFlushesStaleEntries(t *testing.T) {
	p := bootstrapped(1000, 4)
	rng := xrand.New(5)
	// Kill 30% of peers silently.
	ids := p.appendMemberIDs(nil)
	xrand.Shuffle(rng, ids)
	for _, id := range ids[:300] {
		p.Leave(id)
	}
	before := p.StaleFraction()
	if before == 0 {
		t.Fatal("no stale entries after churn — test is vacuous")
	}
	for r := 0; r < 40; r++ {
		p.RunRound()
	}
	after := p.StaleFraction()
	if after > before/4 {
		t.Fatalf("stale fraction %.3f -> %.3f: shuffling did not flush dead peers", before, after)
	}
	// The survivors stay connected — the contrast with the paper's
	// no-repair churn rule.
	g := p.ExportGraph(1000)
	if lc := graph.LargestComponent(g); lc < 680 {
		t.Fatalf("largest component %d of 700 survivors", lc)
	}
}

func TestJoinSeedsView(t *testing.T) {
	p := bootstrapped(100, 6)
	g := graph.NewWithNodes(101) // IDs 0..100
	_ = g
	newID := graph.NodeID(100)
	p.Join(newID)
	if !p.Alive(newID) {
		t.Fatal("joined peer not alive")
	}
	if len(p.views[newID]) == 0 {
		t.Fatal("joined peer has empty view")
	}
	// After some rounds the newcomer should appear in others' views
	// (in-degree balancing).
	for r := 0; r < 20; r++ {
		p.RunRound()
	}
	indeg := 0
	for _, id := range p.appendMemberIDs(nil) {
		if id == newID {
			continue
		}
		for _, e := range p.views[id] {
			if e.node == newID {
				indeg++
			}
		}
	}
	if indeg == 0 {
		t.Fatal("newcomer never entered any view")
	}
}

func TestJoinLeavePanics(t *testing.T) {
	p := bootstrapped(10, 7)
	id := graph.NodeID(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double join did not panic")
			}
		}()
		p.Join(id)
	}()
	p.Leave(id)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double leave did not panic")
			}
		}()
		p.Leave(id)
	}()
}

func TestMessageAccounting(t *testing.T) {
	p := bootstrapped(200, 8)
	p.RunRound()
	total := p.Counter().Total()
	// One request per peer with a nonempty view, one reply per live
	// target: at most 2 per peer.
	if total == 0 || total > 2*200 {
		t.Fatalf("round cost = %d messages", total)
	}
}

func TestExportOverlaySharesCounter(t *testing.T) {
	p := bootstrapped(300, 9)
	for r := 0; r < 10; r++ {
		p.RunRound()
	}
	net := p.ExportOverlay(300, 10)
	maintenance := net.Counter().Total()
	if maintenance == 0 {
		t.Fatal("maintenance cost not visible through exported overlay")
	}
	// An estimator on the exported overlay adds to the same budget.
	e := samplecollide.New(samplecollide.Config{T: 10, L: 20}, xrand.New(10))
	if _, err := e.Estimate(net); err != nil {
		t.Fatal(err)
	}
	if net.Counter().Total() <= maintenance {
		t.Fatal("estimation cost not accounted")
	}
}

func TestEstimationOnCyclonOverlayUnderChurn(t *testing.T) {
	// End-to-end: a CYCLON-maintained overlay keeps estimators accurate
	// through churn.
	p := bootstrapped(2000, 11)
	rng := xrand.New(12)
	ids := p.appendMemberIDs(nil)
	xrand.Shuffle(rng, ids)
	for _, id := range ids[:800] { // -40%
		p.Leave(id)
	}
	for r := 0; r < 30; r++ {
		p.RunRound()
	}
	net := p.ExportOverlay(2000, 10)
	e := samplecollide.New(samplecollide.Config{T: 10, L: 50}, xrand.New(13))
	sum := 0.0
	for i := 0; i < 5; i++ {
		est, err := e.Estimate(net)
		if err != nil {
			t.Fatal(err)
		}
		sum += est
	}
	mean := sum / 5
	if mean < 0.7*1200 || mean > 1.45*1200 {
		t.Fatalf("estimate %.0f on 1200 survivors", mean)
	}
}

func TestExportGraphBeyondMaxIDPanics(t *testing.T) {
	p := bootstrapped(10, 14)
	defer func() {
		if recover() == nil {
			t.Fatal("ExportGraph with small maxID did not panic")
		}
	}()
	p.ExportGraph(5)
}

func TestDegreeStaysBalanced(t *testing.T) {
	p := bootstrapped(500, 15)
	for r := 0; r < 40; r++ {
		p.RunRound()
	}
	g := p.ExportGraph(500)
	if max := graph.MaxDegree(g); max > 4*viewSize {
		t.Fatalf("max undirected degree %d for view size %d", max, viewSize)
	}
}

func TestExportGraphRunToRunDeterminism(t *testing.T) {
	// Regression: export once walked the views map in iteration order, so
	// identically seeded protocols exported different adjacency orders.
	build := func() *graph.Graph {
		g := graph.Heterogeneous(500, 10, xrand.New(3))
		p := New(Default(), xrand.New(4), nil)
		p.Bootstrap(g)
		for r := 0; r < 5; r++ {
			p.RunRound()
		}
		return p.ExportGraph(500)
	}
	a, b := build(), build()
	for id := graph.NodeID(0); int(id) < a.NumIDs(); id++ {
		na, nb := a.Neighbors(id), b.Neighbors(id)
		if len(na) != len(nb) {
			t.Fatalf("degree differs at %d", id)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("adjacency order differs at node %d slot %d", id, i)
			}
		}
	}
}

// TestExportGraphMatchesAddEdgeExport pins ExportGraph, which sizes
// each spilled list once, to the export that adds every live view
// entry with AddEdge alone: after rounds, departures and joins, every
// node holds the same neighbours in the same order, the edge and alive
// counts agree, and each list too long for its record holds exactly
// its neighbours.
func TestExportGraphMatchesAddEdgeExport(t *testing.T) {
	p := bootstrapped(3000, 11)
	rng := xrand.New(12)
	for r := 0; r < 5; r++ {
		p.RunRound()
	}
	for range 300 {
		if id := graph.NodeID(rng.Intn(3000)); p.Alive(id) {
			p.Leave(id)
		}
	}
	for id := graph.NodeID(3000); id < 3100; id++ {
		p.Join(id)
	}
	p.RunRound()
	const maxID = 3200
	ref := graph.NewWithNodes(maxID)
	for id := graph.NodeID(0); id < maxID; id++ {
		if !p.Alive(id) {
			ref.RemoveNode(id)
		}
	}
	for id := graph.NodeID(0); int(id) < len(p.views); id++ {
		if p.member[id] {
			for _, e := range p.views[id] {
				if p.Alive(e.node) {
					ref.AddEdge(id, e.node)
				}
			}
		}
	}
	g := p.ExportGraph(maxID)
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != ref.NumEdges() || g.NumAlive() != ref.NumAlive() {
		t.Fatalf("%d edges over %d live nodes, AddEdge export %d over %d", g.NumEdges(), g.NumAlive(), ref.NumEdges(), ref.NumAlive())
	}
	spilled := 0
	for id := graph.NodeID(0); id < maxID; id++ {
		nb := g.Neighbors(id)
		if !slices.Equal(nb, ref.Neighbors(id)) {
			t.Fatalf("node %d: neighbours %v, AddEdge export %v", id, nb, ref.Neighbors(id))
		}
		if len(nb) > 13 { // a graph record holds 13 neighbours
			spilled++
			if cap(nb) != len(nb) {
				t.Fatalf("node %d: a list of %d neighbours has room for %d", id, len(nb), cap(nb))
			}
		}
	}
	if spilled == 0 {
		t.Fatal("no list left its record; the test exercises nothing")
	}
}

// TestGrowAllocatesOnce: extending the per-node view table to a million
// ids allocates them once, not along append's 1.25x regrowth chain
// (which cost five times the final size, resident until the next GC).
func TestGrowAllocatesOnce(t *testing.T) {
	const n = 1000000
	p := New(Default(), xrand.New(1), nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.grow(n)
	runtime.ReadMemStats(&after)
	final := uint64(n * (24 + 1))
	budget := final * 11 / 10
	if raceEnabled() {
		budget *= 2 // the race detector keeps append's make([]T, k) temporary from being elided
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("growing to %d ids allocated %d bytes for %d bytes of state", n, got, final)
	}
	if p.grow(n + 3); len(p.views) != n+3 || len(p.member) != n+3 {
		t.Fatalf("tables hold %d and %d ids, want %d", len(p.views), len(p.member), n+3)
	}
}

// TestRoundAllocatesNoPerExchangeScratch: an exchange draws and ships
// its subsets in its shard's buffers, so a warm round allocates only the
// engine's per-round bookkeeping, where Perm and append once made about
// five allocations a node.
func TestRoundAllocatesNoPerExchangeScratch(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := bootstrapped(20000, 3) // four shards
	p.RunRound()
	if allocs := testing.AllocsPerRun(3, p.RunRound); allocs > 100 {
		t.Fatalf("a warm round on 20000 peers allocates %.0f times", allocs)
	}
}

// TestWarmRoundAllocatesNothing: the round's callbacks are bound once,
// by New, and an exchange works in its shard's buffers, so a warm round
// at one worker makes nothing, on two shards and on sixteen. Every
// deferral bucket first gets room for a whole segment, so no measured
// round can overfill one by chance.
func TestWarmRoundAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, n := range []int{8300, 83000} {
		g := graph.Heterogeneous(n, 10, xrand.New(5))
		p := New(Config{Workers: 1}, xrand.New(6), nil)
		p.Bootstrap(g)
		for range 3 {
			p.RunRound()
		}
		p.engine.ReserveDeferrals(n/parallel.Shards(0, n) + 1)
		if allocs := testing.AllocsPerRun(1, p.RunRound); allocs != 0 {
			t.Errorf("a warm round on %d peers (%d shards) allocates %.0f times", n, parallel.Shards(0, n), allocs)
		}
	}
}

// TestExchangeMatchesPermReference: an exchange on a shard's reused
// buffers draws and merges exactly what the exchange spelled out with
// rng.Perm and fresh subsets does — the same views and the same
// generator state — exchange after exchange, as views shrink and grow.
func TestExchangeMatchesPermReference(t *testing.T) {
	p := bootstrapped(300, 41)
	ref := make([][]entry, len(p.views))
	for id, v := range p.views {
		ref[id] = slices.Clone(v)
	}
	// refShuffle is completeShuffle as spelled out with Perm, on ref.
	refShuffle := func(id, q graph.NodeID, rng *xrand.Rand) {
		out := []entry{{node: id}}
		for _, i := range rng.Perm(len(ref[id])) {
			if len(out) == shuffleLen {
				break
			}
			out = append(out, ref[id][i])
		}
		back := make([]entry, 0, shuffleLen)
		for _, i := range rng.Perm(len(ref[q])) {
			if len(back) == shuffleLen {
				break
			}
			back = append(back, ref[q][i])
		}
		ref[q] = p.merge(q, slices.Clone(ref[q]), out, back)
		ref[id] = p.merge(id, slices.Clone(ref[id]), back, out)
	}
	var buf shuffleBuf
	rng, refRNG, pick := xrand.New(42), xrand.New(42), xrand.New(43)
	for n := 0; n < 3000; n++ {
		id := graph.NodeID(pick.Intn(len(p.views)))
		q, ok := p.beginShuffle(id)
		if !ok || !p.Alive(q) || q == id {
			continue
		}
		ref[id] = slices.Clone(p.views[id]) // beginShuffle's age bump and eviction
		p.completeShuffle(id, q, rng, &buf)
		refShuffle(id, q, refRNG)
		if *rng != *refRNG {
			t.Fatalf("exchange %d: generators diverged", n)
		}
		for _, v := range []graph.NodeID{id, q} {
			if !slices.Equal(p.views[v], ref[v]) {
				t.Fatalf("exchange %d: view of %d is %v, reference %v", n, v, p.views[v], ref[v])
			}
		}
	}
}

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation allocates.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// Join adds a fresh peer whose view is seeded with up to viewSize random
// existing participants (the introducer mechanism). Joining twice
// panics.
func (p *Protocol) Join(id graph.NodeID) {
	p.grow(int(id) + 1)
	if p.member[id] {
		panic(fmt.Sprintf("cyclon: node %d already participates", id))
	}
	// A seeded random sample of participants in a fixed base order, so
	// identical runs seed identical views.
	ids := p.appendMemberIDs(nil)
	xrand.Shuffle(p.rng, ids)
	view := make([]entry, 0, viewSize)
	for _, other := range ids {
		if len(view) == viewSize {
			break
		}
		view = append(view, entry{node: other})
	}
	p.member[id] = true
	p.count++
	p.views[id] = view
}

// AvgViewSize returns the mean view occupancy.
func (p *Protocol) AvgViewSize() float64 {
	if p.count == 0 {
		return 0
	}
	total := 0
	for id, view := range p.views {
		if p.member[id] {
			total += len(view)
		}
	}
	return float64(total) / float64(p.count)
}
