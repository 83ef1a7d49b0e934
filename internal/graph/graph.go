// Package graph implements the overlay topologies of the comparative
// study: a dynamic undirected graph with O(1) uniform node and neighbor
// sampling, the paper's heterogeneous random-graph construction (§IV-A),
// homogeneous random graphs, Barabási–Albert scale-free graphs (Fig 7),
// plus the analysis routines (BFS, components, degree statistics) used to
// validate inputs and explain results.
//
// Node identifiers are dense int32 indices. Everything the graph knows
// about one node — its degree, its slot in the alive list and its first
// inlineCap neighbours — sits in one pointer-free 64-byte record, so a
// walk step, a liveness check or an edge insertion costs one cache line
// per node touched, and a million-node overlay is one 64 MB array the
// garbage collector never scans. All mutation keeps the undirected
// invariant: v appears in u's list exactly when u appears in v's, and
// never twice.
//
// The records and the alive list live in fixed-size pages (paged.go)
// shared between a graph and its CloneCOW clones until a page's first
// mutation, so cloning costs O(N/pageSize) page pointers instead of
// O(N) entries and replayed churn pays only for the pages it touches.
package graph

import (
	"fmt"
	"slices"

	"p2psize/internal/prefetch"
	"p2psize/internal/xrand"
)

// NodeID identifies a node. IDs are dense and never reused within one
// Graph; dead nodes keep their ID but drop out of the alive set.
type NodeID = int32

// None is the sentinel returned when no node qualifies.
const None NodeID = -1

// inlineCap is the number of neighbours a record holds itself: with the
// three int32 fields it makes the record exactly one 64-byte cache line.
const inlineCap = 13

// node is the per-node record. A node whose degree first exceeds
// inlineCap moves its whole list to Graph.spill and keeps it there
// until the node is removed; nb is then unused. deg always equals the
// length of the list, wherever it lives.
type node struct {
	deg   int32 // number of neighbours
	pos   int32 // index into the alive list, -1 when dead
	spill int32 // index into Graph.spill, -1 while the list is inline
	nb    [inlineCap]NodeID
}

// Graph is a mutable undirected graph with an explicit alive set.
// It is not safe for concurrent mutation.
type Graph struct {
	nodes    pages[node]
	aliveIDs pages[NodeID] // compact list of alive nodes for O(1) sampling
	edges    int

	// spill holds the adjacency lists longer than inlineCap (scale-free
	// hubs, exported CYCLON views, sybil-inflated peers). Slots are
	// never reused; a removed node's slot is nil. A CloneCOW clone
	// copies the slice headers and shares the lists: slots below
	// spillBase still belong to the base and are copied to a fresh slot
	// on their first write (0 for a graph that is not a clone).
	spill     [][]NodeID
	spillBase int

	// reserved is the id count the graph's writer expects to reach
	// (ReserveIDs): a hint for tables indexed by id, never a limit.
	reserved int
}

// New returns an empty graph with capacity hint n.
func New(n int) *Graph {
	return &Graph{nodes: newPages[node](n), aliveIDs: newPages[NodeID](n)}
}

// NewWithNodes returns a graph with n alive, unconnected nodes 0..n-1.
func NewWithNodes(n int) *Graph {
	g := New(n)
	for off := 0; off < n; off += pageSize {
		recs, ids := new([pageSize]node), new([pageSize]NodeID)
		for i := range min(pageSize, n-off) {
			recs[i] = node{pos: int32(off + i), spill: -1}
			ids[i] = NodeID(off + i)
		}
		g.nodes.tbl = append(g.nodes.tbl, recs)
		g.aliveIDs.tbl = append(g.aliveIDs.tbl, ids)
	}
	g.nodes.n, g.aliveIDs.n = n, n
	return g
}

// AddNode creates a new alive node and returns its ID.
func (g *Graph) AddNode() NodeID {
	id := NodeID(g.nodes.len())
	g.nodes.append(node{pos: int32(g.aliveIDs.len()), spill: -1})
	g.aliveIDs.append(id)
	return id
}

// valid reports whether id was ever allocated (alive or dead).
func (g *Graph) valid(id NodeID) bool { return uint(id) < uint(g.nodes.len()) }

// list returns n's adjacency list as a view: into the record itself, or
// into the spill table.
func (g *Graph) list(n *node) []NodeID {
	if n.spill >= 0 {
		return g.spill[n.spill]
	}
	return n.nb[:n.deg]
}

// writable returns id's record for mutation: its page is copied first
// when still shared with the CloneCOW base, and so is its spilled list
// (to a fresh slot).
func (g *Graph) writable(id NodeID) *node {
	n := g.nodes.slot(int(id))
	if s := n.spill; s >= 0 && int(s) < g.spillBase {
		n.spill = int32(len(g.spill))
		g.spill = append(g.spill, slices.Clone(g.spill[s]))
		g.spill[s] = nil
	}
	return n
}

// RemoveNode kills a node: all incident edges are removed and the node
// leaves the alive set. Neighbors are NOT rewired — the paper's churn
// rule is that "nodes that have lost one or several neighbors do not
// create new links". Removing a dead node panics.
func (g *Graph) RemoveNode(id NodeID) {
	g.mustAlive(id)
	// The view stays readable throughout: removeHalfEdge writes only the
	// neighbours' records, and a page copy leaves the old page intact.
	for _, nb := range g.Neighbors(id) {
		g.removeHalfEdge(nb, id)
		g.edges--
	}
	n := g.nodes.slot(int(id))
	if n.spill >= 0 {
		g.spill[n.spill] = nil
		n.spill = -1
	}
	n.deg = 0
	// Swap-delete from the alive list.
	pos := n.pos
	last := g.AliveAt(g.aliveIDs.len() - 1)
	*g.aliveIDs.slot(int(pos)) = last
	g.nodes.slot(int(last)).pos = pos
	g.aliveIDs.truncate(g.aliveIDs.len() - 1)
	n.pos = -1
}

// removeHalfEdge deletes v from u's list (swap-delete). The caller
// guarantees presence.
func (g *Graph) removeHalfEdge(u, v NodeID) {
	n := g.writable(u)
	a := g.list(n)
	for i, w := range a {
		if w == v {
			a[i] = a[len(a)-1]
			n.deg--
			if n.spill >= 0 {
				g.spill[n.spill] = a[:n.deg]
			}
			return
		}
	}
	panic(fmt.Sprintf("graph: half-edge %d->%d missing", u, v))
}

// addHalfEdge appends v to u's list, moving the list to the spill table
// when the record is full.
func (g *Graph) addHalfEdge(u, v NodeID) {
	n := g.writable(u)
	switch {
	case n.spill >= 0:
		g.spill[n.spill] = append(g.spill[n.spill], v)
	case n.deg < inlineCap:
		n.nb[n.deg] = v
	default:
		n.spill = int32(len(g.spill))
		g.spill = append(g.spill, append(n.nb[:inlineCap:inlineCap], v))
	}
	n.deg++
}

// ReserveDegrees makes room for deg[id] neighbours in the list of each
// live node id below len(deg), for a writer that knows every final
// degree before it adds the edges: each list that will not fit in its
// record moves to the spill table now, with room for exactly deg[id],
// rather than at its (inlineCap+1)-th neighbour with twice that room.
// The lists that move are cut from one array, and the spill table
// grows once. Every list keeps its neighbours and their order.
func (g *Graph) ReserveDegrees(deg []int32) {
	total, lists := 0, 0
	for id, d := range deg {
		if d > inlineCap && g.nodes.at(id).spill < 0 {
			total += int(d)
			lists++
		}
	}
	g.spill = slices.Grow(g.spill, lists)
	room := make([]NodeID, total)
	for id, d := range deg {
		if d <= inlineCap {
			continue
		}
		g.mustAlive(NodeID(id))
		n := g.writable(NodeID(id))
		if n.spill >= 0 {
			g.spill[n.spill] = slices.Grow(g.spill[n.spill], int(d-n.deg))
			continue
		}
		l := room[:n.deg:d]
		room = room[d:]
		copy(l, n.nb[:n.deg])
		n.spill = int32(len(g.spill))
		g.spill = append(g.spill, l)
	}
}

// AddEdge links u and v bidirectionally. It reports false (and does
// nothing) for self-loops and already-present edges. Dead endpoints panic.
// The join loop (WireUpTo) has made these checks on each draw already
// and links without it.
func (g *Graph) AddEdge(u, v NodeID) bool {
	g.mustAlive(u)
	g.mustAlive(v)
	if u == v || g.HasEdge(u, v) {
		return false
	}
	g.addHalfEdge(u, v)
	g.addHalfEdge(v, u)
	g.edges++
	return true
}

// RemoveEdge unlinks u and v and reports whether the edge existed.
func (g *Graph) RemoveEdge(u, v NodeID) bool {
	g.mustAlive(u)
	g.mustAlive(v)
	if !g.HasEdge(u, v) {
		return false
	}
	g.removeHalfEdge(u, v)
	g.removeHalfEdge(v, u)
	g.edges--
	return true
}

// HasEdge reports whether u and v are linked (false for ids that were
// never allocated). The scan runs over the smaller adjacency list, which
// matters on scale-free hubs.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if !g.valid(u) || !g.valid(v) {
		return false
	}
	return g.linked(u, g.nodes.at(int(u)), v, g.nodes.at(int(v)))
}

// linked reports whether u and v, whose records are nu and nv, are
// linked: it scans the shorter of the two lists for the other end (u's
// list on a tie), so a scale-free hub costs its partner's degree.
func (g *Graph) linked(u NodeID, nu *node, v NodeID, nv *node) bool {
	if nu.deg > nv.deg {
		return contains(g.list(nv), u)
	}
	return contains(g.list(nu), v)
}

// Degree returns the number of live links of id (0 for dead nodes and
// for ids that were never allocated).
func (g *Graph) Degree(id NodeID) int {
	if !g.valid(id) {
		return 0
	}
	return int(g.nodes.at(int(id)).deg)
}

// Neighbors returns the adjacency list of id as a shared view (nil for
// ids that were never allocated); callers must not modify it and must
// not hold it across mutations.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	if !g.valid(id) {
		return nil
	}
	return g.list(g.nodes.at(int(id)))
}

// RandomNeighbor returns a uniformly random neighbor of id, or (None,
// false) for an isolated node.
func (g *Graph) RandomNeighbor(id NodeID, rng *xrand.Rand) (NodeID, bool) {
	n := g.nodes.at(int(id))
	if n.deg == 0 {
		return None, false
	}
	return g.list(n)[rng.Intn(int(n.deg))], true
}

// RandomAlive returns a uniformly random alive node, or (None, false) for
// an empty graph. Until a node is removed (ids are never reused) the
// alive list is the identity, and the draw is the node: one load fewer.
func (g *Graph) RandomAlive(rng *xrand.Rand) (NodeID, bool) {
	n := g.aliveIDs.len()
	if n == 0 {
		return None, false
	}
	i := rng.Intn(n)
	if n == g.nodes.len() {
		return NodeID(i), true
	}
	return *g.aliveIDs.at(i), true
}

// Alive reports whether id is a live node.
func (g *Graph) Alive(id NodeID) bool {
	return g.valid(id) && g.nodes.at(int(id)).pos >= 0
}

// NumAlive returns the number of live nodes — the quantity every
// algorithm in the study tries to estimate.
func (g *Graph) NumAlive() int { return g.aliveIDs.len() }

// NumEdges returns the number of live undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// NumIDs returns the total number of IDs ever allocated (alive + dead).
func (g *Graph) NumIDs() int { return g.nodes.len() }

// ReserveIDs records that the graph's writer will have allocated n ids
// by the end of its run: a trace replay or a churn scenario knows its
// joins before the first one. It allocates nothing and limits nothing;
// it only lets a table indexed by id be made once, at IDCeiling, rather
// than re-made as the ids grow past it.
func (g *Graph) ReserveIDs(n int) { g.reserved = n }

// IDCeiling returns the most ids the graph is expected to hold: the
// larger of NumIDs and the last ReserveIDs.
func (g *Graph) IDCeiling() int { return max(g.nodes.len(), g.reserved) }

// AliveIDs returns a copy of the live node list.
func (g *Graph) AliveIDs() []NodeID {
	out := make([]NodeID, g.aliveIDs.len())
	g.CopyAlive(out)
	return out
}

// CopyAlive copies the live node list, in AliveAt order, into dst, page
// by page with no per-entry table lookup. Like copy it stops at the
// shorter of the two: min(len(dst), NumAlive()) ids are written.
func (g *Graph) CopyAlive(dst []NodeID) {
	n := min(len(dst), g.aliveIDs.len())
	for pg, off := 0, 0; off < n; pg, off = pg+1, off+pageSize {
		copy(dst[off:n], g.aliveIDs.tbl[pg][:])
	}
}

// DegreeSum returns the total degree of ids, reading each node's record
// once. The loads are independent of each other, so a caller about to
// visit ids one dependent step at a time (a round sweep) can run this
// over a block first and find the records in cache.
func (g *Graph) DegreeSum(ids []NodeID) int {
	sum := 0
	for _, id := range ids {
		sum += int(g.nodes.at(int(id)).deg)
	}
	return sum
}

// RecordAddr returns the address of id's record — its degree and its
// inline neighbours, the line RandomNeighbor reads first — for a caller
// to hint ahead of a visit (internal/prefetch). It reads only the page
// table, never the record.
func (g *Graph) RecordAddr(id NodeID) uintptr { return g.nodes.addr(int(id)) }

// HintRemove hints the lines RemoveNode(id) will write — each
// neighbour's record, where removeHalfEdge deletes id, and id's slot in
// the alive list, where the swap-delete lands — for a caller about to
// remove id (internal/prefetch). It reads id's record and list through
// at, so the caller should have hinted RecordAddr(id) a little earlier.
// It draws nothing and writes nothing: it owns no page of a COW clone
// and is safe beside concurrent readers. A dead or unallocated id
// hints nothing.
func (g *Graph) HintRemove(id NodeID) {
	if !g.valid(id) {
		return
	}
	n := g.nodes.at(int(id))
	if n.pos < 0 {
		return
	}
	var b prefetch.Batch
	b.Add(g.aliveIDs.addr(int(n.pos)))
	for _, nb := range g.list(n) {
		b.Add(g.nodes.addr(int(nb)))
	}
	b.Flush()
}

// ForEachAlive calls fn for every live node in unspecified (but
// deterministic) order. fn must not mutate the graph.
func (g *Graph) ForEachAlive(fn func(id NodeID)) {
	n := g.aliveIDs.len()
	for pg, off := 0, 0; off < n; pg, off = pg+1, off+pageSize {
		for _, id := range g.aliveIDs.tbl[pg][:min(pageSize, n-off)] {
			fn(id)
		}
	}
}

// AliveAt returns the i-th entry of the internal alive list; together with
// NumAlive it allows allocation-free sweeps. Order is unspecified and
// changes across mutations.
func (g *Graph) AliveAt(i int) NodeID { return *g.aliveIDs.at(i) }

// CloneCOW returns a copy-on-write copy of g: the node records and the
// alive list share every page with g until the clone first writes into
// it (O(N/pageSize) page pointers copied, nothing per node), and a
// spilled adjacency list is shared until the clone first writes it.
// Replaying churn on a clone therefore costs memory proportional to the
// pages the churn touches — at most one flat copy, 64 bytes per node
// plus the alive list, once churn has spread over the whole id range —
// the contract the parallel run loops rely on when they fan one clone
// per estimation instance at paper scale. The clone starts with g's id
// reservation (ReserveIDs), and a replay reserves on the clone, so
// reserving never touches the base.
//
// The receiver acts as the immutable base: it must not be mutated while
// any COW clone of it is alive (clones of clones extend the freeze to
// every ancestor). Clones are independent of each other and safe to
// mutate concurrently from different goroutines.
func (g *Graph) CloneCOW() *Graph {
	return &Graph{
		nodes:     g.nodes.cloneCOW(),
		aliveIDs:  g.aliveIDs.cloneCOW(),
		edges:     g.edges,
		spill:     append([][]NodeID(nil), g.spill...),
		spillBase: len(g.spill),
		reserved:  g.reserved,
	}
}

// SharedPages reports how many fixed-size pages (node records, alive
// list) are still shared with the CloneCOW base (0 for non-clones):
// clone cost is proportional to TotalPages minus SharedPages, not to N.
func (g *Graph) SharedPages() int {
	return g.nodes.sharedPages() + g.aliveIDs.sharedPages()
}

// TotalPages reports how many fixed-size pages the graph spans, the
// denominator for SharedPages ratios.
func (g *Graph) TotalPages() int {
	return len(g.nodes.tbl) + len(g.aliveIDs.tbl)
}

func (g *Graph) mustAlive(id NodeID) {
	if !g.Alive(id) {
		panic(fmt.Sprintf("graph: node %d is not alive", id))
	}
}

// CheckInvariants validates structural consistency (record degree equal
// to list length, spill indices in range, adjacency symmetry, no
// self-loops or duplicates, alive bookkeeping, edge count) and returns
// an error describing the first violation. No run calls it: it reads
// the unexported records, so it ships for the tests that check graphs.
//
//detlint:allow testonly used by the graph, overlay, churn, cyclon, fault and trace tests
func (g *Graph) CheckInvariants() error {
	halfEdges := 0
	alive := 0
	for u := 0; u < g.nodes.len(); u++ {
		uid := NodeID(u)
		n := g.nodes.at(u)
		if n.spill < -1 || int(n.spill) >= len(g.spill) {
			return fmt.Errorf("graph: node %d has spill index %d outside [0, %d)", u, n.spill, len(g.spill))
		}
		if n.spill < 0 && (n.deg < 0 || n.deg > inlineCap) {
			return fmt.Errorf("graph: node %d has inline degree %d", u, n.deg)
		}
		adjU := g.list(n)
		if int(n.deg) != len(adjU) {
			return fmt.Errorf("graph: node %d records degree %d, list holds %d", u, n.deg, len(adjU))
		}
		if n.pos < 0 {
			if len(adjU) != 0 || n.spill >= 0 {
				return fmt.Errorf("graph: dead node %d has edges", u)
			}
			if n.pos != -1 {
				return fmt.Errorf("graph: dead node %d has corrupt alive position %d", u, n.pos)
			}
			continue
		}
		alive++
		if int(n.pos) >= g.aliveIDs.len() || g.AliveAt(int(n.pos)) != uid {
			return fmt.Errorf("graph: alive bookkeeping broken for %d", u)
		}
		seen := make(map[NodeID]bool, len(adjU))
		for _, v := range adjU {
			if v == uid {
				return fmt.Errorf("graph: self-loop at %d", u)
			}
			if seen[v] {
				return fmt.Errorf("graph: duplicate edge %d-%d", u, v)
			}
			seen[v] = true
			if !g.Alive(v) {
				return fmt.Errorf("graph: %d links to dead node %d", u, v)
			}
			found := false
			for _, w := range g.Neighbors(v) {
				if w == uid {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("graph: asymmetric edge %d-%d", u, v)
			}
		}
		halfEdges += len(adjU)
	}
	if halfEdges != 2*g.edges {
		return fmt.Errorf("graph: edge count %d does not match %d half-edges", g.edges, halfEdges)
	}
	if g.aliveIDs.len() != alive {
		return fmt.Errorf("graph: alive list holds %d entries, %d nodes are alive", g.aliveIDs.len(), alive)
	}
	return nil
}
