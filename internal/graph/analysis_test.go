package graph

import (
	"math"
	"slices"
	"testing"

	"p2psize/internal/xrand"
)

// pathGraph builds 0-1-2-...-n-1.
func pathGraph(n int) *Graph {
	g := NewWithNodes(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1))
	}
	return g
}

func TestBFSDistancesPath(t *testing.T) {
	g := pathGraph(5)
	dist := BFSDistances(g, 0)
	for i, want := range []int32{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
}

func TestBFSDistancesDisconnected(t *testing.T) {
	g := NewWithNodes(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	dist := BFSDistances(g, 0)
	if dist[1] != 1 || dist[2] != Unreachable || dist[3] != Unreachable {
		t.Fatalf("dist = %v", dist)
	}
}

func TestBFSFromDeadNode(t *testing.T) {
	g := NewWithNodes(3)
	g.AddEdge(0, 1)
	g.RemoveNode(2)
	dist := BFSDistances(g, 2)
	for _, d := range dist {
		if d != Unreachable {
			t.Fatal("BFS from dead source reached nodes")
		}
	}
}

func TestComponents(t *testing.T) {
	g := NewWithNodes(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	// 5, 6 isolated.
	sizes := ComponentSizes(g)
	if len(sizes) != 4 {
		t.Fatalf("components = %v", sizes)
	}
	if LargestComponent(g) != 3 {
		t.Fatalf("largest = %d", LargestComponent(g))
	}
	if IsConnected(g) {
		t.Fatal("disconnected graph reported connected")
	}
	g2 := Ring(5)
	if !IsConnected(g2) {
		t.Fatal("ring reported disconnected")
	}
}

func TestComponentsEmptyGraph(t *testing.T) {
	g := NewWithNodes(1)
	g.RemoveNode(0)
	if !IsConnected(g) {
		t.Fatal("empty graph should count as connected")
	}
	if LargestComponent(g) != 0 {
		t.Fatal("empty graph largest component != 0")
	}
}

func TestDegreeHistogramAndAvg(t *testing.T) {
	g := NewWithNodes(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	values, counts := DegreeHistogram(g).NonZero()
	if !slices.Equal(values, []int{1, 3}) || !slices.Equal(counts, []int{3, 1}) {
		t.Fatalf("degree histogram wrong: values %v counts %v", values, counts)
	}
	if got := AvgDegree(g); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("AvgDegree = %g", got)
	}
	if MaxDegree(g) != 3 {
		t.Fatalf("MaxDegree = %d", MaxDegree(g))
	}
	empty := NewWithNodes(1)
	empty.RemoveNode(0)
	if AvgDegree(empty) != 0 || MaxDegree(empty) != 0 {
		t.Fatal("empty graph degree stats nonzero")
	}
}

func TestApproxDiameterPath(t *testing.T) {
	g := pathGraph(9)
	if d := ApproxDiameter(g, xrand.New(1)); d != 8 {
		t.Fatalf("path diameter = %d, want 8", d)
	}
	empty := NewWithNodes(1)
	empty.RemoveNode(0)
	if ApproxDiameter(empty, xrand.New(1)) != 0 {
		t.Fatal("empty diameter nonzero")
	}
}

func TestClusteringCoefficient(t *testing.T) {
	// Triangle with a pendant: nodes 0,1,2 form a triangle; 3 hangs off 0.
	g := NewWithNodes(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	// local: node0 = 1/3 (one closed pair of three), node1 = 1, node2 = 1,
	// node3 = 0 (degree 1). Average = (1/3 + 1 + 1 + 0)/4 = 7/12.
	got := ClusteringCoefficient(g, 100, xrand.New(1))
	if math.Abs(got-7.0/12) > 1e-9 {
		t.Fatalf("clustering = %g, want %g", got, 7.0/12)
	}
}

func TestClusteringSampled(t *testing.T) {
	g := BarabasiAlbert(2000, 3, xrand.New(2))
	full := ClusteringCoefficient(g, 1<<30, xrand.New(3))
	sampled := ClusteringCoefficient(g, 500, xrand.New(3))
	if math.Abs(full-sampled) > 0.05 {
		t.Fatalf("sampled clustering %g too far from full %g", sampled, full)
	}
}

func TestRandomGraphSmallDiameter(t *testing.T) {
	// A heterogeneous graph with average degree ~7 over 10k nodes should
	// have diameter around log(n)/log(avgDeg) ≈ 5, certainly under 12.
	g := Heterogeneous(10000, 10, xrand.New(13))
	if d := ApproxDiameter(g, xrand.New(14)); d > 12 {
		t.Fatalf("diameter = %d, expected small-world", d)
	}
}

// ApproxDiameter estimates the diameter of the largest component with a
// double BFS sweep: BFS from a random alive node, then BFS again from the
// farthest node found. The result lower-bounds the true diameter and is
// exact on trees.
func ApproxDiameter(g *Graph, rng *xrand.Rand) int {
	src, ok := g.RandomAlive(rng)
	if !ok {
		return 0
	}
	far, _ := farthest(g, src)
	_, d := farthest(g, far)
	return int(d)
}

func farthest(g *Graph, src NodeID) (NodeID, int32) {
	dist := BFSDistances(g, src)
	best, bestD := src, int32(0)
	for id, d := range dist {
		if d > bestD {
			best, bestD = NodeID(id), d
		}
	}
	return best, bestD
}

// ClusteringCoefficient estimates the average local clustering coefficient
// by sampling up to sampleCap alive nodes (all of them if the graph is
// smaller). Nodes of degree < 2 contribute 0, as is conventional.
func ClusteringCoefficient(g *Graph, sampleCap int, rng *xrand.Rand) float64 {
	n := g.NumAlive()
	if n == 0 {
		return 0
	}
	var ids []NodeID
	if n <= sampleCap {
		ids = g.AliveIDs()
	} else {
		ids = make([]NodeID, sampleCap)
		for i := range ids {
			id, _ := g.RandomAlive(rng)
			ids[i] = id
		}
	}
	total := 0.0
	for _, id := range ids {
		total += localClustering(g, id)
	}
	return total / float64(len(ids))
}

func localClustering(g *Graph, id NodeID) float64 {
	nbrs := g.Neighbors(id)
	d := len(nbrs)
	if d < 2 {
		return 0
	}
	links := 0
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if g.HasEdge(nbrs[i], nbrs[j]) {
				links++
			}
		}
	}
	return 2 * float64(links) / float64(d*(d-1))
}
