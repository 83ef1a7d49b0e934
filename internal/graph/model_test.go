package graph_test

import (
	"fmt"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/model"
	"p2psize/internal/xrand"
)

// wireCase is one fixture of the wiring differential: a graph and the
// WireUpTo calls to make on it.
type wireCase struct {
	name  string
	build func(n int, seed uint64) *graph.Graph
	// calls lists (u, target, maxDeg) triples; it sees the built graph.
	calls func(g *graph.Graph) [][3]int
}

var wireCases = []wireCase{
	{
		// Every node in id order, as Heterogeneous wires, with targets
		// cycling through [0, 11] so that some calls find their node
		// already at or past its target.
		name:  "sparse",
		build: func(n int, _ uint64) *graph.Graph { return graph.NewWithNodes(n) },
		calls: func(g *graph.Graph) [][3]int {
			calls := make([][3]int, g.NumIDs())
			for u := range calls {
				calls[u] = [3]int{u, u % 12, 10}
			}
			return calls
		},
	},
	{
		// Every peer sits at the cap, so each call burns its 200 attempts
		// and adds nothing.
		name: "capped",
		build: func(n int, _ uint64) *graph.Graph {
			if n < 3 {
				return graph.NewWithNodes(n)
			}
			return graph.Ring(n)
		},
		calls: func(g *graph.Graph) [][3]int {
			maxDeg := g.Degree(0)
			return [][3]int{{0, maxDeg + 1, maxDeg}, {g.NumIDs() - 1, maxDeg + 3, maxDeg}}
		},
	},
	{
		// target <= deg(u): the loop draws nothing, and neither may the
		// read-ahead.
		name: "satisfied",
		build: func(n int, seed uint64) *graph.Graph {
			if n < 2 {
				return graph.NewWithNodes(n)
			}
			return graph.Heterogeneous(n, 6, xrand.New(seed))
		},
		calls: func(g *graph.Graph) [][3]int {
			u := g.NumIDs() / 2
			d := g.Degree(graph.NodeID(u))
			return [][3]int{{u, d, 6}, {u, d - 2, 6}, {u, 0, 6}, {u, -3, 6}}
		},
	},
	{
		// Node 0 is a hub whose list lives in the spill table, and keeps
		// growing there; the peers it draws include other spilled nodes.
		name: "hub",
		build: func(n int, seed uint64) *graph.Graph {
			g := graph.NewWithNodes(n)
			for v := 1; v < min(n, 2*graph.InlineCap); v++ {
				g.AddEdge(0, graph.NodeID(v))
				g.AddEdge(graph.NodeID(n-1), graph.NodeID(v))
			}
			return g
		},
		calls: func(g *graph.Graph) [][3]int {
			c := graph.InlineCap
			return [][3]int{{0, 3 * c, 4 * c}, {g.NumIDs() / 2, 2 * c, 4 * c}, {0, 4 * c, 4 * c}}
		},
	},
}

// TestWireDifferential holds WireUpTo to the model's wiring loop
// (model.Graph.Wire): the same adjacency lists in the same order and
// the same generator state afterwards (so the read-ahead advanced
// nothing), on plain graphs and on CloneCOW clones, whose base must not
// change.
func TestWireDifferential(t *testing.T) {
	for _, tc := range wireCases {
		for _, n := range []int{1, 2, 50, 5000, graph.HintMinAlive + 1} { // the last one hinted
			for seed := uint64(1); seed <= 3; seed++ {
				for _, cow := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/n=%d/seed=%d/cow=%v", tc.name, n, seed, cow), func(t *testing.T) {
						got := tc.build(n, seed)
						base, want := got, model.FromGraph(got)
						if cow {
							got = base.CloneCOW()
						}
						wantRng, gotRng := xrand.New(seed+100), xrand.New(seed+100)
						for _, c := range tc.calls(got) {
							want.Wire(graph.NodeID(c[0]), c[1], c[2], wantRng)
							got.WireUpTo(graph.NodeID(c[0]), c[1], c[2], gotRng)
							if *gotRng != *wantRng {
								t.Fatalf("generator state differs after WireUpTo(%d, %d, %d)", c[0], c[1], c[2])
							}
						}
						if err := want.Diff(got); err != nil {
							t.Fatal(err)
						}
						if err := got.CheckInvariants(); err != nil {
							t.Fatal(err)
						}
						if cow {
							if err := model.FromGraph(tc.build(n, seed)).Diff(base); err != nil {
								t.Fatalf("base changed under its clone: %v", err)
							}
						}
					})
				}
			}
		}
	}
}

// buildersMatchModel builds Heterogeneous(n, maxDeg), and
// Homogeneous(n, maxDeg) where k < n allows it, beside model.Build from
// equal generators, and reports the first difference: adjacency lists
// in order, alive list, edge count, invariants, or the generator's next
// draw.
func buildersMatchModel(n, maxDeg int, seed uint64) error {
	for _, homogeneous := range []bool{false, true} {
		name, target, build := "Heterogeneous", 0, graph.Heterogeneous
		if homogeneous {
			if maxDeg >= n {
				continue
			}
			name, target, build = "Homogeneous", maxDeg, graph.Homogeneous
		}
		wantRng, gotRng := xrand.New(seed), xrand.New(seed)
		want, got := model.Build(n, target, maxDeg, wantRng), build(n, maxDeg, gotRng)
		err := want.Diff(got)
		if err == nil {
			err = got.CheckInvariants()
		}
		if w, g := wantRng.Uint64(), gotRng.Uint64(); err == nil && w != g {
			err = fmt.Errorf("next draw %#x, model %#x", g, w)
		}
		if err != nil {
			return fmt.Errorf("%s(%d, %d) seed %d: %w", name, n, maxDeg, seed, err)
		}
	}
	return nil
}

// TestBuildersMatchReference holds both random-graph builders to the
// model on degree caps either side of the inline/spill boundary (13
// fits a record, 14 spills), down to graphs too small to wire.
func TestBuildersMatchReference(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, n := range []int{1, 2, 3, 50, 5000} {
			for _, maxDeg := range []int{1, 2, 10, 13, 14, 20} {
				if err := buildersMatchModel(n, maxDeg, seed); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

// TestWirePinned pins both random-graph builders at the paper's inputs
// — 20k nodes, degree caps 7 (Homogeneous) and 10 (Heterogeneous), seeds
// 1 and 42 — to the model: every adjacency list in order, and the
// generator's next draw.
func TestWirePinned(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		for _, maxDeg := range []int{7, 10} {
			if err := buildersMatchModel(20000, maxDeg, seed); err != nil {
				t.Error(err)
			}
		}
	}
}

// FuzzBuilders holds both builders to the model for any seed, n <= 4096
// and degree caps up to 40.
func FuzzBuilders(f *testing.F) {
	f.Add(uint64(1), uint16(5000), uint8(10))
	f.Add(uint64(42), uint16(3), uint8(14))
	f.Add(uint64(7), uint16(40), uint8(39))
	f.Fuzz(func(t *testing.T, seed uint64, n16 uint16, deg8 uint8) {
		if err := buildersMatchModel(1+int(n16)%4096, 1+int(deg8)%40, seed); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRecordStoreMatchesReference drives the model's graph, a Graph and
// — from the split on — a deep clone and a CloneCOW of it with one
// operation stream, comparing everything a caller can observe, list
// order included, after every step. The scripted prefix walks a hub
// across the inline boundary; the random tail keeps a small dense graph
// hovering around it.
func TestRecordStoreMatchesReference(t *testing.T) {
	ref := model.NewGraph(0)
	graphs := []*graph.Graph{graph.New(0)}
	step := func(what string, onRef func(*model.Graph) bool, onGraph func(*graph.Graph) bool) {
		t.Helper()
		want := onRef(ref)
		for i, g := range graphs {
			if got := onGraph(g); got != want {
				t.Fatalf("%s on graph %d returned %v, model %v", what, i, got, want)
			}
			if err := ref.Diff(g); err != nil {
				t.Fatalf("after %s, graph %d: %v", what, i, err)
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("after %s, graph %d: %v", what, i, err)
			}
		}
	}
	addNode := func() {
		step("AddNode", func(r *model.Graph) bool { r.AddNode(); return true },
			func(g *graph.Graph) bool { g.AddNode(); return true })
	}
	addEdge := func(u, v graph.NodeID) {
		step(fmt.Sprintf("AddEdge(%d,%d)", u, v), func(r *model.Graph) bool { return r.AddEdge(u, v) },
			func(g *graph.Graph) bool { return g.AddEdge(u, v) })
	}
	removeEdge := func(u, v graph.NodeID) {
		step(fmt.Sprintf("RemoveEdge(%d,%d)", u, v), func(r *model.Graph) bool { return r.RemoveEdge(u, v) },
			func(g *graph.Graph) bool { return g.RemoveEdge(u, v) })
	}
	removeNode := func(id graph.NodeID) {
		step(fmt.Sprintf("RemoveNode(%d)", id), func(r *model.Graph) bool { r.RemoveNode(id); return true },
			func(g *graph.Graph) bool { g.RemoveNode(id); return true })
	}

	const hub, n, c = 0, 220, graph.InlineCap
	for i := 0; i < n; i++ {
		addNode()
	}
	for v := graph.NodeID(1); v <= c; v++ {
		addEdge(hub, v) // fills the record
	}
	addEdge(hub, c+1)  // 13 -> 14: spills
	removeEdge(hub, 3) // back to 13, then below
	removeEdge(hub, c+1)
	addEdge(hub, 3)
	addEdge(hub, 3) // duplicate: refused
	for v := graph.NodeID(c + 1); v <= 200; v++ {
		addEdge(hub, v)
	}

	// Split: the graph so far becomes a frozen base, re-read after every
	// later step, while a deep clone and a COW clone of it carry on.
	base, frozen := graphs[0], model.FromGraph(graphs[0])
	graphs = []*graph.Graph{base.Clone(), base.CloneCOW()}
	baseIntact := func(when string) {
		t.Helper()
		if err := frozen.Diff(base); err != nil {
			t.Fatalf("base changed by %s on its clones: %v", when, err)
		}
	}
	removeEdge(hub, 7) // first write to a spilled list the clone shares
	baseIntact("a spilled-list write")
	addEdge(201, 202)
	removeNode(201) // an inline list the clone shares
	baseIntact("a record write")
	removeNode(hub) // 199 half-edges and the spill slot go
	baseIntact("the hub's removal")

	// Endpoints come from the head of the alive list, a core of 30 whose
	// members change as removals swap the tail in, so degrees climb
	// through the boundary again and again.
	rng := xrand.New(11)
	spills := 0
	for i := 0; i < 4000; i++ {
		core := min(30, len(ref.Alive))
		u, v := ref.Alive[rng.Intn(core)], ref.Alive[rng.Intn(core)]
		switch k := rng.Intn(100); {
		case k < 3:
			addNode()
		case k < 6 && len(ref.Alive) > 40:
			removeNode(u)
		case k < 76 || len(ref.Adj[u]) == 0:
			before := max(len(ref.Adj[u]), len(ref.Adj[v]))
			addEdge(u, v)
			if before == c && max(len(ref.Adj[u]), len(ref.Adj[v])) > c {
				spills++
			}
		default:
			removeEdge(u, ref.Adj[u][rng.Intn(len(ref.Adj[u]))])
		}
	}
	baseIntact("the random tail")
	if spills < 20 {
		t.Fatalf("the random tail crossed the inline boundary only %d times; the test lost its coverage", spills)
	}
}
