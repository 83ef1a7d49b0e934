// Package model holds one naive model per simulator layer, for tests to
// hold the production code to: the overlay graph with its builders and
// joins, an epidemic round, the trace generator, its compositors and
// player, and the walk, poll and DHT loops.
//
// The contract:
//   - Plain code. Maps, sorts and one loop per rule; no staging,
//     read-ahead, bitsets or reused scratch, nothing a reader must trust.
//   - Draw for draw. Every random draw is made in the order production
//     makes it, so a model and its production twin handed equal
//     generators end with equal results and equal generator states.
//   - Test-only callers. Nothing outside a _test.go file imports the
//     package. It imports only leaf layers: xrand and metrics, and
//     graph and overlay where a loop runs on the production overlay (its
//     fault policy and meter). A package it imports keeps its
//     model-using tests in an external _test package.
package model

import (
	"fmt"
	"slices"

	"p2psize/internal/graph"
	"p2psize/internal/xrand"
)

// maxWireAttempts is the wiring loop's budget of rejected draws.
const maxWireAttempts = 200

// Graph is an overlay as adjacency lists in insertion order and the
// alive list in the order swap-deletes leave it: the two orders every
// draw indexes.
type Graph struct {
	Adj   [][]graph.NodeID // by id; nil once the node left
	Alive []graph.NodeID
	pos   map[graph.NodeID]int // alive node -> its index in Alive
}

// NewGraph returns n alive, isolated nodes 0..n-1.
func NewGraph(n int) *Graph {
	g := &Graph{pos: map[graph.NodeID]int{}}
	for range n {
		g.AddNode()
	}
	return g
}

// FromGraph copies a production graph: alive list order and adjacency
// lists in order.
//
//detlint:allow testonly used by the graph, overlay and trace tests
func FromGraph(p *graph.Graph) *Graph {
	g := &Graph{Adj: make([][]graph.NodeID, p.NumIDs()), Alive: p.AliveIDs(), pos: map[graph.NodeID]int{}}
	for i, id := range g.Alive {
		g.pos[id] = i
	}
	for id := range g.Adj {
		g.Adj[id] = slices.Clone(p.Neighbors(graph.NodeID(id)))
	}
	return g
}

// AddNode appends a new alive node and returns its id.
func (g *Graph) AddNode() graph.NodeID {
	id := graph.NodeID(len(g.Adj))
	g.Adj = append(g.Adj, nil)
	g.pos[id] = len(g.Alive)
	g.Alive = append(g.Alive, id)
	return id
}

// AddEdge links u and v unless they are one node or already linked.
func (g *Graph) AddEdge(u, v graph.NodeID) bool {
	if u == v || slices.Contains(g.Adj[u], v) {
		return false
	}
	g.Adj[u] = append(g.Adj[u], v)
	g.Adj[v] = append(g.Adj[v], u)
	return true
}

// RemoveEdge unlinks u and v if they are linked.
//
//detlint:allow testonly used by the graph tests
func (g *Graph) RemoveEdge(u, v graph.NodeID) bool {
	if !slices.Contains(g.Adj[u], v) {
		return false
	}
	g.Adj[u], g.Adj[v] = swapDelete(g.Adj[u], v), swapDelete(g.Adj[v], u)
	return true
}

// RemoveNode takes id out of each neighbour's list and out of the alive
// list, each time by moving the last entry into its slot.
func (g *Graph) RemoveNode(id graph.NodeID) {
	for _, nb := range g.Adj[id] {
		g.Adj[nb] = swapDelete(g.Adj[nb], id)
	}
	g.Adj[id] = nil
	i, last := g.pos[id], len(g.Alive)-1
	g.Alive[i], g.pos[g.Alive[last]] = g.Alive[last], i
	g.Alive = g.Alive[:last]
	delete(g.pos, id)
}

// swapDelete removes x from a, the last entry taking its slot.
func swapDelete(a []graph.NodeID, x graph.NodeID) []graph.NodeID {
	i := slices.Index(a, x)
	a[i] = a[len(a)-1]
	return a[:len(a)-1]
}

// RandomAlive draws a uniform alive node.
func (g *Graph) RandomAlive(rng *xrand.Rand) (graph.NodeID, bool) {
	if len(g.Alive) == 0 {
		return graph.None, false
	}
	return g.Alive[rng.Intn(len(g.Alive))], true
}

// Wire links u to uniform alive peers below the degree cap until it has
// target links or 200 draws were rejected (u itself, a capped peer, a
// present link).
func (g *Graph) Wire(u graph.NodeID, target, cap int, rng *xrand.Rand) {
	for attempts := 0; len(g.Adj[u]) < target && attempts < maxWireAttempts; {
		v, ok := g.RandomAlive(rng)
		if !ok {
			return
		}
		if len(g.Adj[v]) >= cap || !g.AddEdge(u, v) {
			attempts++
		}
	}
}

// Build is graph.Heterogeneous (target 0: each node draws its own target
// in [1, maxDeg]) or graph.Homogeneous (target = maxDeg = k): n nodes,
// then Wire per node in id order.
//
//detlint:allow testonly used by the graph tests
func Build(n, target, maxDeg int, rng *xrand.Rand) *Graph {
	g := NewGraph(n)
	for u := range n {
		want := target
		if want <= 0 {
			want = rng.IntRange(1, maxDeg)
		}
		g.Wire(graph.NodeID(u), want, maxDeg, rng)
	}
	return g
}

// Join is overlay.Network.JoinRandomDegree under the degree cap maxDeg:
// a target drawn in [1, maxDeg], a new node, Wire.
func (g *Graph) Join(maxDeg int, rng *xrand.Rand) graph.NodeID {
	target := rng.IntRange(1, maxDeg)
	id := g.AddNode()
	g.Wire(id, target, maxDeg, rng)
	return id
}

// Diff reports the first difference between g and the production graph
// p: id count, alive list order, edge count or an adjacency list.
//
//detlint:allow testonly used by the graph, overlay and trace tests
func (g *Graph) Diff(p *graph.Graph) error {
	if p.NumIDs() != len(g.Adj) {
		return fmt.Errorf("%d ids, model %d", p.NumIDs(), len(g.Adj))
	}
	if !slices.Equal(p.AliveIDs(), g.Alive) {
		return fmt.Errorf("alive list differs from the model's")
	}
	edges := 0
	for id, adj := range g.Adj {
		if nb := p.Neighbors(graph.NodeID(id)); !slices.Equal(nb, adj) {
			return fmt.Errorf("node %d: neighbours %v, model %v", id, nb, adj)
		}
		edges += len(adj)
	}
	if p.NumEdges() != edges/2 {
		return fmt.Errorf("%d edges, model %d", p.NumEdges(), edges/2)
	}
	return nil
}
