// Package idspace implements the identifier-density size estimator that
// the comparative study's introduction positions as the structured-
// overlay alternative ([17], [11], [13], [14]): when node identifiers
// are assigned uniformly at random in a circular ID space, "the size
// estimation may then be directly inferred from the observation of the
// density of identifiers that fall into a given subset of the global
// identifier space". The study excludes this class from its head-to-head
// because it only works on identifier-based overlays; this package
// provides it anyway as a reference baseline, together with the minimal
// structured substrate it needs (a sorted ring with successor pointers).
//
// The estimator at node x walks its k clockwise successors (one message
// per hop, as a Chord-style successor traversal would) and measures the
// fraction f of the ID space they span; k successors spanning fraction f
// of the space imply N̂ = k/f. Gap lengths between uniform IDs are
// exponential, so the relative error decays as 1/sqrt(k).
package idspace

import (
	"errors"
	"fmt"
	"sort"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// Ring is the structured substrate: every live peer owns a uniformly
// random 64-bit identifier, and the ring orders peers by identifier with
// wraparound. Join and Leave keep the order updated, mirroring a DHT's
// successor-list maintenance.
type Ring struct {
	ids    map[graph.NodeID]uint64
	sorted []ringEntry // sorted by id
}

type ringEntry struct {
	id   uint64
	node graph.NodeID
}

// NewRing assigns identifiers to every live peer of the overlay.
func NewRing(net *overlay.Network, rng *xrand.Rand) *Ring {
	r := &Ring{ids: make(map[graph.NodeID]uint64, net.Size())}
	g := net.Graph()
	for i := 0; i < g.NumAlive(); i++ {
		r.Join(g.AliveAt(i), rng)
	}
	return r
}

// Size returns the number of peers on the ring.
func (r *Ring) Size() int { return len(r.sorted) }

// ID returns the identifier of a peer (ok=false if absent).
func (r *Ring) ID(node graph.NodeID) (uint64, bool) {
	id, ok := r.ids[node]
	return id, ok
}

// Join assigns a fresh uniform identifier to node and inserts it.
// Joining an already-present node panics.
func (r *Ring) Join(node graph.NodeID, rng *xrand.Rand) uint64 {
	if _, dup := r.ids[node]; dup {
		panic(fmt.Sprintf("idspace: node %d already on the ring", node))
	}
	id := rng.Uint64()
	for {
		// Identifier collisions are ~impossible in 64 bits but cheap to
		// rule out, keeping the k/f estimator well-defined.
		if _, taken := r.lookup(id); !taken {
			break
		}
		id = rng.Uint64()
	}
	r.ids[node] = id
	i := sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i].id >= id })
	r.sorted = append(r.sorted, ringEntry{})
	copy(r.sorted[i+1:], r.sorted[i:])
	r.sorted[i] = ringEntry{id: id, node: node}
	return id
}

// lookup returns the index of id in the sorted ring and whether it is
// present (otherwise the index is the insertion point).
func (r *Ring) lookup(id uint64) (int, bool) {
	i := sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i].id >= id })
	return i, i < len(r.sorted) && r.sorted[i].id == id
}

// Successor returns the next peer clockwise from node (wrapping), or
// ok=false when node is absent or alone.
func (r *Ring) Successor(node graph.NodeID) (graph.NodeID, bool) {
	id, ok := r.ids[node]
	if !ok || len(r.sorted) < 2 {
		return graph.None, false
	}
	i, _ := r.lookup(id)
	return r.sorted[(i+1)%len(r.sorted)].node, true
}

// Estimator computes density-based size estimates over a Ring. It
// satisfies the core.Estimator contract when bound to a ring via New.
type Estimator struct {
	ring *Ring
	k    int
	rng  *xrand.Rand
}

// New builds a density estimator reading k successors per estimate.
func New(ring *Ring, k int, rng *xrand.Rand) *Estimator {
	if ring == nil {
		panic("idspace: nil ring")
	}
	if k < 1 {
		panic("idspace: k must be >= 1")
	}
	if rng == nil {
		panic("idspace: nil rng")
	}
	return &Estimator{ring: ring, k: k, rng: rng}
}

// Name identifies the estimator in reports.
func (e *Estimator) Name() string { return fmt.Sprintf("id-density(k=%d)", e.k) }

// MutatesOverlay reports false: identifier-density estimation reads its
// own ring, never the overlay graph (core.OverlayMutator).
func (e *Estimator) MutatesOverlay() bool { return false }

// ErrEmptyOverlay is returned when no live peer can initiate.
var ErrEmptyOverlay = errors.New("idspace: empty overlay")

// Estimate walks k successors from a random peer and returns k/f, where
// f is the fraction of the identifier space the walk covered. Each
// successor hop is metered as one walk message.
func (e *Estimator) Estimate(net *overlay.Network) (float64, error) {
	start, ok := net.RandomPeer(e.rng)
	if !ok {
		return 0, ErrEmptyOverlay
	}
	return e.EstimateFrom(net, start)
}

// EstimateFrom walks k successors from the given peer.
func (e *Estimator) EstimateFrom(net *overlay.Network, start graph.NodeID) (float64, error) {
	startID, ok := e.ring.ID(start)
	if !ok {
		return 0, fmt.Errorf("idspace: node %d is not on the ring", start)
	}
	if e.ring.Size() == 1 {
		return 1, nil
	}
	k := e.k
	if k > e.ring.Size()-1 {
		k = e.ring.Size() - 1
	}
	cur := start
	var last uint64
	for i := 0; i < k; i++ {
		next, ok := e.ring.Successor(cur)
		if !ok {
			return 0, fmt.Errorf("idspace: ring broken at node %d", cur)
		}
		net.Send(metrics.KindWalk)
		cur = next
		last, _ = e.ring.ID(cur)
	}
	// Wraparound distance in the 64-bit space; uint64 subtraction is
	// already modular.
	span := last - startID
	if span == 0 {
		return float64(e.ring.Size()), nil
	}
	frac := float64(span) / float64(1<<63) / 2 // span / 2^64
	return float64(k) / frac, nil
}
