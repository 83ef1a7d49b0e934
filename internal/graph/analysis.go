package graph

import (
	"p2psize/internal/stats"
	"p2psize/internal/xrand"
)

// Unreachable marks nodes with no path from the BFS source.
const Unreachable int32 = -1

// BFSDistances returns hop distances from src to every node ID
// (Unreachable for dead or disconnected nodes). The returned slice is
// indexed by NodeID.
func BFSDistances(g *Graph, src NodeID) []int32 {
	dist := make([]int32, g.NumIDs())
	for i := range dist {
		dist[i] = Unreachable
	}
	if !g.Alive(src) {
		return dist
	}
	dist[src] = 0
	queue := make([]NodeID, 0, g.NumAlive())
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// ComponentSizes returns the sizes of the connected components of the
// alive subgraph, in discovery order; use LargestComponent for the
// maximum.
func ComponentSizes(g *Graph) []int {
	visited := make([]bool, g.NumIDs())
	var sizes []int
	queue := make([]NodeID, 0, 1024)
	g.ForEachAlive(func(id NodeID) {
		if visited[id] {
			return
		}
		size := 0
		visited[id] = true
		queue = append(queue[:0], id)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			size++
			for _, v := range g.Neighbors(u) {
				if !visited[v] {
					visited[v] = true
					queue = append(queue, v)
				}
			}
		}
		sizes = append(sizes, size)
	})
	return sizes
}

// LargestComponent returns the size of the largest connected component
// (0 for an empty graph).
func LargestComponent(g *Graph) int {
	best := 0
	for _, s := range ComponentSizes(g) {
		if s > best {
			best = s
		}
	}
	return best
}

// IsConnected reports whether all alive nodes form a single component.
// The empty graph counts as connected.
func IsConnected(g *Graph) bool {
	n := g.NumAlive()
	return n == 0 || LargestComponent(g) == n
}

// DegreeHistogram tallies the degree of every alive node — the data
// behind the paper's Fig 7 log-log degree plot.
func DegreeHistogram(g *Graph) *stats.IntHistogram {
	var h stats.IntHistogram
	g.ForEachAlive(func(id NodeID) { h.Add(g.Degree(id)) })
	return &h
}

// AvgDegree returns the mean degree over alive nodes (0 if empty).
func AvgDegree(g *Graph) float64 {
	n := g.NumAlive()
	if n == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(n)
}

// MaxDegree returns the largest degree over alive nodes (0 if empty).
func MaxDegree(g *Graph) int {
	best := 0
	g.ForEachAlive(func(id NodeID) {
		if d := g.Degree(id); d > best {
			best = d
		}
	})
	return best
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
