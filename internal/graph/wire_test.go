package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"p2psize/internal/xrand"
)

// refWireUpTo is the wiring loop as it stood before WireUpTo replaced it
// (and its copy in overlay.Join): no read-ahead, one dependent pair of
// loads per draw. It is the reference WireUpTo must match draw for draw.
func refWireUpTo(g *Graph, u NodeID, target, cap int, rng *xrand.Rand) {
	attempts := 0
	for g.Degree(u) < target && attempts < maxWireAttempts {
		v, ok := g.RandomAlive(rng)
		if !ok {
			return
		}
		if v == u || g.Degree(v) >= cap || g.HasEdge(u, v) {
			attempts++
			continue
		}
		g.AddEdge(u, v)
	}
}

// wireCase is one fixture of the differential test: a graph and the
// WireUpTo calls to make on it. build is called once per side, so both
// start from equal graphs.
type wireCase struct {
	name  string
	build func(n int, seed uint64) *Graph
	// calls lists (u, target, maxDeg) triples; it sees the built graph.
	calls func(g *Graph) [][3]int
}

// everyNode wires all nodes in id order, as Heterogeneous does, with
// targets cycling through [0, maxDeg+1] so that some calls find their
// node already at or past its target.
func everyNode(maxDeg int) func(g *Graph) [][3]int {
	return func(g *Graph) [][3]int {
		calls := make([][3]int, g.NumIDs())
		for u := range calls {
			calls[u] = [3]int{u, u % (maxDeg + 2), maxDeg}
		}
		return calls
	}
}

var wireCases = []wireCase{
	{
		name:  "sparse",
		build: func(n int, _ uint64) *Graph { return NewWithNodes(n) },
		calls: everyNode(10),
	},
	{
		// Every peer sits at the cap, so each call burns its 200 attempts
		// and adds nothing.
		name: "capped",
		build: func(n int, _ uint64) *Graph {
			if n < 3 {
				return NewWithNodes(n)
			}
			return Ring(n)
		},
		calls: func(g *Graph) [][3]int {
			maxDeg := g.Degree(0)
			return [][3]int{{0, maxDeg + 1, maxDeg}, {g.NumIDs() - 1, maxDeg + 3, maxDeg}}
		},
	},
	{
		// target <= deg(u): the loop draws nothing, and neither may the
		// read-ahead.
		name: "satisfied",
		build: func(n int, seed uint64) *Graph {
			if n < 2 {
				return NewWithNodes(n)
			}
			return Heterogeneous(n, 6, xrand.New(seed))
		},
		calls: func(g *Graph) [][3]int {
			u := g.NumIDs() / 2
			return [][3]int{{u, g.Degree(NodeID(u)), 6}, {u, g.Degree(NodeID(u)) - 2, 6}, {u, 0, 6}, {u, -3, 6}}
		},
	},
	{
		// Node 0 is a hub whose list lives in the spill table, and keeps
		// growing there; the peers it draws include other spilled nodes.
		name: "hub",
		build: func(n int, seed uint64) *Graph {
			g := NewWithNodes(n)
			for v := 1; v < min(n, 2*inlineCap); v++ {
				g.AddEdge(0, NodeID(v))
				g.AddEdge(NodeID(n-1), NodeID(v))
			}
			return g
		},
		calls: func(g *Graph) [][3]int {
			return [][3]int{{0, 3 * inlineCap, 4 * inlineCap}, {g.NumIDs() / 2, 2 * inlineCap, 4 * inlineCap}, {0, 4 * inlineCap, 4 * inlineCap}}
		},
	},
}

// TestWireDifferential holds WireUpTo to the loop it replaced: the same
// adjacency lists in the same order, the same generator state afterwards
// (so the read-ahead advanced nothing), on plain graphs and on CloneCOW
// clones, where it must also own exactly the pages the reference owns.
func TestWireDifferential(t *testing.T) {
	for _, tc := range wireCases {
		for _, n := range []int{1, 2, 50, 5000} {
			for seed := uint64(1); seed <= 3; seed++ {
				for _, cow := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/n=%d/seed=%d/cow=%v", tc.name, n, seed, cow), func(t *testing.T) {
						want, got := tc.build(n, seed), tc.build(n, seed)
						var base, snapshot *Graph
						if cow {
							base, snapshot = got, got.Clone()
							want, got = base.CloneCOW(), base.CloneCOW()
						}
						wantRng, gotRng := xrand.New(seed+100), xrand.New(seed+100)
						for _, c := range tc.calls(want) {
							refWireUpTo(want, NodeID(c[0]), c[1], c[2], wantRng)
							got.WireUpTo(NodeID(c[0]), c[1], c[2], gotRng)
							if *gotRng != *wantRng {
								t.Fatalf("generator state differs after WireUpTo(%d, %d, %d)", c[0], c[1], c[2])
							}
						}
						if err := graphsEqual(want, got); err != nil {
							t.Fatal(err)
						}
						if err := got.CheckInvariants(); err != nil {
							t.Fatal(err)
						}
						if cow {
							if w, g := want.SharedPages(), got.SharedPages(); w != g {
								t.Fatalf("WireUpTo left %d pages shared, the reference %d", g, w)
							}
							if err := graphsEqual(base, snapshot); err != nil {
								t.Fatalf("base changed under its clones: %v", err)
							}
						}
					})
				}
			}
		}
	}
}

// TestWireReadAheadOwnsNoPage runs the two read-aheads where nothing is
// written after them — a wiring call whose every draw is rejected, and
// the departure accessor — on a fresh COW clone: every page must still
// be the base's.
func TestWireReadAheadOwnsNoPage(t *testing.T) {
	base := Ring(5 * pageSize)
	c := base.CloneCOW()
	rng := xrand.New(7)
	before := *rng
	c.WireUpTo(3, 5, 2, rng) // everyone has degree 2: 200 rejections
	if *rng == before {
		t.Fatal("the wiring loop drew nothing")
	}
	ids := []NodeID{0, 1, pageSize, 3*pageSize + 5}
	if got, want := c.NeighborhoodDegreeSum(ids), len(ids)*2*3; got != want {
		t.Fatalf("NeighborhoodDegreeSum = %d, want %d", got, want)
	}
	if c.SharedPages() != c.TotalPages() {
		t.Fatalf("read-ahead owns pages: %d of %d still shared", c.SharedPages(), c.TotalPages())
	}
	if err := graphsEqual(base, c); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborhoodDegreeSum(t *testing.T) {
	g := Heterogeneous(400, 10, xrand.New(3))
	for v := 1; v < 3*inlineCap; v++ {
		g.AddEdge(0, NodeID(v)) // a spilled list among the ids
	}
	g.RemoveNode(17)
	ids := []NodeID{0, 5, 17, 399, 5}
	want := 0
	for _, id := range ids {
		want += g.Degree(id)
		for _, nb := range g.Neighbors(id) {
			want += g.Degree(nb)
		}
	}
	if got := g.NeighborhoodDegreeSum(ids); got != want {
		t.Fatalf("NeighborhoodDegreeSum = %d, want %d", got, want)
	}
	if got := g.NeighborhoodDegreeSum(nil); got != 0 {
		t.Fatalf("NeighborhoodDegreeSum(nil) = %d", got)
	}
}

// adjacencyHash is FNV-64a over every id's degree and neighbours in
// list order.
func adjacencyHash(g *Graph) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(v int32) {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	for id := NodeID(0); int(id) < g.NumIDs(); id++ {
		nb := g.Neighbors(id)
		put(int32(len(nb)))
		for _, v := range nb {
			put(v)
		}
	}
	return h.Sum64()
}

// TestWirePinned pins the two random-graph builders, adjacency order
// and the generator's next draw, to values computed at the commit before
// the wiring loop moved into WireUpTo.
func TestWirePinned(t *testing.T) {
	for _, tc := range []struct {
		name       string
		build      func(rng *xrand.Rand) *Graph
		seed       uint64
		hash, next uint64
	}{
		{"heterogeneous", func(rng *xrand.Rand) *Graph { return Heterogeneous(20000, 10, rng) }, 1, 0x519c17c773df8afc, 0x288147b6edad2a3a},
		{"heterogeneous", func(rng *xrand.Rand) *Graph { return Heterogeneous(20000, 10, rng) }, 42, 0x79fa8cc7b8e79a6e, 0x5075e31291d69add},
		{"homogeneous", func(rng *xrand.Rand) *Graph { return Homogeneous(20000, 7, rng) }, 1, 0x89d80a2487627469, 0x9f3473b24280fdc7},
		{"homogeneous", func(rng *xrand.Rand) *Graph { return Homogeneous(20000, 7, rng) }, 42, 0xf9504d4a9d2da8d8, 0x532dd17a06cd752d},
	} {
		rng := xrand.New(tc.seed)
		g := tc.build(rng)
		if got := adjacencyHash(g); got != tc.hash {
			t.Errorf("%s seed %d: adjacency hash %#x, pinned %#x", tc.name, tc.seed, got, tc.hash)
		}
		if got := rng.Uint64(); got != tc.next {
			t.Errorf("%s seed %d: next draw %#x, pinned %#x", tc.name, tc.seed, got, tc.next)
		}
	}
}

// refBuild is Heterogeneous (target 0: each node draws its own in
// [1, maxDeg]) or Homogeneous (target = maxDeg = k) as they stood
// before wireFresh: nodes added one at a time, then refWireUpTo per
// node in id order.
func refBuild(n, target, maxDeg int, rng *xrand.Rand) *Graph {
	g := New(n)
	for range n {
		g.AddNode()
	}
	for u := NodeID(0); int(u) < n; u++ {
		want := target
		if want <= 0 {
			want = rng.IntRange(1, maxDeg)
		}
		refWireUpTo(g, u, want, maxDeg, rng)
	}
	return g
}

// buildersMatchReference builds Heterogeneous(n, maxDeg), and
// Homogeneous(n, maxDeg) where k < n allows it, beside refBuild from
// equal generators, and reports the first difference: adjacency lists
// in order, edge count, invariants, or the generator's next draw.
func buildersMatchReference(n, maxDeg int, seed uint64) error {
	for _, homogeneous := range []bool{false, true} {
		name, target, build := "Heterogeneous", 0, Heterogeneous
		if homogeneous {
			if maxDeg >= n {
				continue
			}
			name, target, build = "Homogeneous", maxDeg, Homogeneous
		}
		wantRng, gotRng := xrand.New(seed), xrand.New(seed)
		want, got := refBuild(n, target, maxDeg, wantRng), build(n, maxDeg, gotRng)
		err := graphsEqual(want, got)
		if err == nil {
			err = got.CheckInvariants()
		}
		if w, g := wantRng.Uint64(), gotRng.Uint64(); err == nil && w != g {
			err = fmt.Errorf("next draw %#x, reference %#x", g, w)
		}
		if err != nil {
			return fmt.Errorf("%s(%d, %d) seed %d: %w", name, n, maxDeg, seed, err)
		}
	}
	return nil
}

// TestBuildersMatchReference holds both random-graph builders to
// refBuild on degree caps either side of the inline/spill boundary
// (13 fits a record, 14 spills), down to graphs too small to wire.
func TestBuildersMatchReference(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, n := range []int{1, 2, 3, 50, 5000} {
			for _, maxDeg := range []int{1, 2, 10, 13, 14, 20} {
				if err := buildersMatchReference(n, maxDeg, seed); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

// FuzzBuilders holds both builders to refBuild for any seed, n <= 4096
// and degree caps up to 40.
func FuzzBuilders(f *testing.F) {
	f.Add(uint64(1), uint16(5000), uint8(10))
	f.Add(uint64(42), uint16(3), uint8(14))
	f.Add(uint64(7), uint16(40), uint8(39))
	f.Fuzz(func(t *testing.T, seed uint64, n16 uint16, deg8 uint8) {
		if err := buildersMatchReference(1+int(n16)%4096, 1+int(deg8)%40, seed); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkBuild times the paper's 1M-scale input, Heterogeneous(n, 10),
// reported per node.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				Heterogeneous(n, 10, xrand.New(uint64(i+1)))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/node")
		})
	}
}
