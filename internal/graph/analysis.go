package graph

import "p2psize/internal/stats"

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
