package graph

import (
	"p2psize/internal/prefetch"
	"p2psize/internal/xrand"
)

// maxWireAttempts bounds the rejection sampling in the random-graph
// builders; a node that cannot find an eligible partner after this many
// draws keeps its current (smaller) degree, mirroring the paper's
// best-effort wiring ("otherwise other random nodes are chosen").
const maxWireAttempts = 200

// Heterogeneous builds the paper's default test topology (§IV-A
// "Graphs construction"): all n nodes exist up front; nodes are wired one
// by one; each draws a target degree uniformly in [1, maxDeg] and fills
// its view with uniformly random partners that are not yet at maxDeg.
// Links are bidirectional. With maxDeg = 10 the resulting average degree
// is ≈ 7.2, matching the paper. The wiring is WireUpTo's rule, draw for
// draw, run by wireFresh.
func Heterogeneous(n, maxDeg int, rng *xrand.Rand) *Graph {
	if n <= 0 {
		panic("graph: Heterogeneous with n <= 0")
	}
	if maxDeg < 1 {
		panic("graph: Heterogeneous with maxDeg < 1")
	}
	return wireFresh(n, 0, maxDeg, rng)
}

// Homogeneous builds the homogeneous variant mentioned in §IV-A, in which
// every node aims for exactly degree k (subject to feasibility at the end
// of the process). Like Heterogeneous it is wired by wireFresh.
func Homogeneous(n, k int, rng *xrand.Rand) *Graph {
	if n <= 0 {
		panic("graph: Homogeneous with n <= 0")
	}
	if k < 1 || k >= n {
		panic("graph: Homogeneous needs 1 <= k < n")
	}
	return wireFresh(n, k, k, rng)
}

// wireFresh builds n unconnected nodes and wires them in id order, each
// up to target links (target <= 0: each first draws its own uniformly
// in [1, maxDeg]) by the rule and the draws of WireUpTo(u, target,
// maxDeg, rng): the adjacency order, the edge count and the generator's
// position are that loop's. It is written for a graph nobody else holds,
// in which no node has left:
//
//   - Every degree sits in one flat table, 4 bytes a node, and each draw
//     is decided on that table and on u's own list (HasEdge is
//     symmetric). u advances in id order, so its record is in cache.
//   - An accepted partner's record is written, never read: its inline
//     slot and its degree. Only a list about to leave its record, or
//     already spilled, goes through addHalfEdge.
//   - No read-ahead: a partner costs a store, not a load the loop waits
//     for.
func wireFresh(n, target, maxDeg int, rng *xrand.Rand) *Graph {
	g := NewWithNodes(n)
	deg := make([]int32, n)
	for u := NodeID(0); int(u) < n; u++ {
		want := target
		if want <= 0 {
			want = rng.IntRange(1, maxDeg)
		}
		own := g.nodes.slot(int(u))
		for attempts := 0; int(deg[u]) < want && attempts < maxWireAttempts; {
			v := NodeID(rng.Intn(n))
			if v == u || int(deg[v]) >= maxDeg || contains(g.list(own), v) {
				attempts++
				continue
			}
			g.appendBlind(u, deg[u], v)
			g.appendBlind(v, deg[v], u)
			deg[u]++
			deg[v]++
			g.edges++
		}
	}
	return g
}

// appendBlind appends v to the list of id, whose degree is d, on a graph
// that owns all its pages and never lost an edge (so a list shorter
// than inlineCap is inline): while the list fits in the record it
// writes the slot and the degree without reading the record.
func (g *Graph) appendBlind(id NodeID, d int32, v NodeID) {
	if d >= inlineCap {
		g.addHalfEdge(id, v)
		return
	}
	n := g.nodes.slot(int(id))
	n.nb[d] = v
	n.deg = d + 1
}

// The join hints run over the next hintRecords+hintSlots draws of the
// generator's stream (see hintDraws): the first hintRecords have their
// alive-list entry read and their record hinted, the rest only their
// alive-list slot. Below hintMinAlive live nodes the records sit in
// cache anyway and the 32 draws cost more than they save, so no join is
// hinted. All three were chosen with BenchmarkPlayerAdvance
// (internal/trace): on 2 vCPUs (1 MB L2 a core, 32 MB L3) the hints
// cost 10–20 % a replayed event at 16k nodes and 5–10 % at 32k, break
// even at 64k, and save 10–20 % at 96k, 40 % at 192k and 55 % at 384k
// against no join read-ahead at all.
const (
	hintRecords  = 16
	hintSlots    = 16
	hintMinAlive = 1 << 16
)

// WireUpTo adds random links to u until its degree reaches target,
// choosing partners uniformly among nodes with degree < maxDeg: the
// wiring rule of §IV-A, as overlay.Join applies it to a live overlay
// (churned, possibly a COW clone). The builders run the same rule, draw
// for draw, in wireFresh. u must be alive: a dead or unallocated u
// panics before the first draw. A draw is two dependent misses (the
// alive-list entry, then that peer's record), so before looping it
// hints the draws ahead of it in the generator's stream (hintDraws) on
// a copy of the generator; only the loop advances rng.
//
// Each draw is decided once, on the two records the degree check
// loads: v is alive (RandomAlive drew it), v ≠ u, deg(v) < maxDeg, and
// the shorter of the two lists does not hold the other end (linked, as
// HasEdge scans). An accepted partner is then linked directly, where
// AddEdge would check both ends alive and scan for the edge again.
func (g *Graph) WireUpTo(u NodeID, target, maxDeg int, rng *xrand.Rand) {
	g.mustAlive(u)
	g.hintDraws(rng)
	nu := g.nodes.at(int(u))
	for attempts := 0; int(nu.deg) < target && attempts < maxWireAttempts; {
		v, ok := g.RandomAlive(rng)
		if !ok {
			return
		}
		if nv := g.nodes.at(int(v)); v == u || int(nv.deg) >= maxDeg || g.linked(u, nu, v, nv) {
			attempts++
			continue
		}
		g.addHalfEdge(u, v)
		g.addHalfEdge(v, u)
		g.edges++
		nu = g.nodes.at(int(u)) // the first link may have copied u's page
	}
}

// hintDraws hints what the next hintRecords+hintSlots RandomAlive draws
// from rng will read, drawing them from a copy of rng (nothing below
// hintMinAlive live nodes). Whatever a join rejects, the generator's
// stream is the same: a rejection only moves the boundary between one
// join's draws and the next join's, so the window serves this join and
// the ones after it. The first hintRecords positions read their
// alive-list entry (hinted as a slot by an earlier join) and hint that
// peer's record; the rest hint the alive-list slot alone. NumAlive
// moves by a few between a hint and the draw it serves, which moves a
// multiply-shift draw by at most as many entries: the same line or the
// next. (A power-of-two bound masks instead, and its hint may be wrong,
// which costs time, never a result.) It reads through at, never slot,
// and writes nothing, so it owns no page of a COW clone and cannot
// change a draw.
func (g *Graph) hintDraws(rng *xrand.Rand) {
	n := g.aliveIDs.len()
	if n < hintMinAlive {
		return
	}
	ahead := *rng
	var b prefetch.Batch
	for range hintRecords {
		b.Add(g.nodes.addr(int(*g.aliveIDs.at(ahead.Intn(n)))))
	}
	for range hintSlots {
		b.Add(g.aliveIDs.addr(ahead.Intn(n)))
	}
	b.Flush()
}

// BarabasiAlbert builds a scale-free graph by growth and preferential
// attachment [Albert & Barabási 2002], the topology of Fig 7: each
// arriving node attaches to m distinct existing nodes chosen with
// probability proportional to their degree. The seed is an (m+1)-clique,
// so every node has at least m links and the average degree approaches 2m
// (the paper uses m = 3: "3 neighbors min per node", average ≈ 6).
func BarabasiAlbert(n, m int, rng *xrand.Rand) *Graph {
	if m < 1 {
		panic("graph: BarabasiAlbert with m < 1")
	}
	if n < m+1 {
		panic("graph: BarabasiAlbert needs n >= m+1")
	}
	g := NewWithNodes(n)
	// endpoints holds every edge endpoint twice over; uniform sampling
	// from it is degree-proportional sampling.
	endpoints := make([]NodeID, 0, 2*m*n)
	for u := NodeID(0); int(u) <= m; u++ {
		for v := u + 1; int(v) <= m; v++ {
			g.AddEdge(u, v)
			endpoints = append(endpoints, u, v)
		}
	}
	// chosen is a slice, not a set: edges must be added in draw order.
	// Ranging over a map here would let Go's randomized iteration order
	// decide adjacency order — and with it every later neighbor draw —
	// making the "same seed, same graph" guarantee silently false.
	chosen := make([]NodeID, 0, m)
	for u := NodeID(m + 1); int(u) < n; u++ {
		chosen = chosen[:0]
		for len(chosen) < m {
			v := endpoints[rng.Intn(len(endpoints))]
			if v != u && !contains(chosen, v) {
				chosen = append(chosen, v)
			}
		}
		for _, v := range chosen {
			g.AddEdge(u, v)
			endpoints = append(endpoints, u, v)
		}
	}
	return g
}

func contains(s []NodeID, v NodeID) bool {
	for _, w := range s {
		if w == v {
			return true
		}
	}
	return false
}

// Ring builds a cycle of n nodes — the worst-case expander used in the
// random-walk mixing tests. Panics for n < 3.
func Ring(n int) *Graph {
	if n < 3 {
		panic("graph: Ring needs n >= 3")
	}
	g := NewWithNodes(n)
	for u := 0; u < n; u++ {
		g.AddEdge(NodeID(u), NodeID((u+1)%n))
	}
	return g
}

// Clique builds the complete graph on n nodes (quadratic). No run
// builds one; it ships for the tests whose closed forms assume it.
//
//detlint:allow testonly used by the graph, hopssampling and randomtour tests
func Clique(n int) *Graph {
	if n < 1 {
		panic("graph: Clique needs n >= 1")
	}
	g := NewWithNodes(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(NodeID(u), NodeID(v))
		}
	}
	return g
}

// WattsStrogatz builds a small-world graph: a ring lattice where every
// node links to its k nearest clockwise neighbors, with each lattice edge
// rewired to a uniform random endpoint with probability beta. At beta = 0
// it is the pure lattice (high clustering, huge diameter); at beta = 1 it
// approaches a random graph; small beta gives the small-world regime
// (high clustering AND small diameter) — a realistic middle ground
// between the paper's random graphs and its scale-free topology for
// exercising the estimators.
func WattsStrogatz(n, k int, beta float64, rng *xrand.Rand) *Graph {
	if n < 3 {
		panic("graph: WattsStrogatz needs n >= 3")
	}
	if k < 1 || 2*k >= n {
		panic("graph: WattsStrogatz needs 1 <= k < n/2")
	}
	if beta < 0 || beta > 1 {
		panic("graph: WattsStrogatz needs beta in [0,1]")
	}
	g := NewWithNodes(n)
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			v := (u + j) % n
			if !rng.Bernoulli(beta) {
				g.AddEdge(NodeID(u), NodeID(v))
				continue
			}
			// Rewire: keep u, draw a fresh endpoint (best effort — on
			// failure the lattice edge is kept, preserving degree mass).
			added := false
			for attempt := 0; attempt < maxWireAttempts; attempt++ {
				w := NodeID(rng.Intn(n))
				if w != NodeID(u) && !g.HasEdge(NodeID(u), w) {
					g.AddEdge(NodeID(u), w)
					added = true
					break
				}
			}
			if !added {
				g.AddEdge(NodeID(u), NodeID(v))
			}
		}
	}
	return g
}
