// Package overlay models the peer-to-peer overlay that the three size
// estimation algorithms run on: a set of live peers connected by an
// unstructured graph, a metered message-passing surface, and the join /
// leave operations that create the paper's dynamic scenarios.
//
// Per the paper (§IV-A): links are bidirectional, joins wire a node to a
// random set of neighbors under the degree cap, and departures do NOT
// trigger re-linking ("nodes that have lost one or several neighbors do
// not create new links"), which is what degrades connectivity in the
// shrinking experiments.
package overlay

import (
	"fmt"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/xrand"
)

// NodeID aliases the graph node identifier.
type NodeID = graph.NodeID

// FaultPolicy intercepts the metering surface to enforce degraded
// network conditions. The overlay consults it on every Send/SendN;
// protocols consult it for the fate and fidelity of their own payloads.
// It is declared here — rather than in the fault package that implements
// it — so the overlay needs no new dependency and any package can supply
// a policy.
type FaultPolicy interface {
	// OnSend is called for count fresh messages of the kind and returns
	// how many extra messages (retransmissions, duplicates) to meter on
	// top of them.
	OnSend(kind metrics.Kind, count uint64) uint64
	// DropProb is the payload-loss probability fire-and-forget protocols
	// (epidemic push/pull) apply to their own deliveries; request/
	// response traffic retransmits instead and never consults it.
	DropProb() float64
	// ReportScale is the factor by which the given peer misreports the
	// values it sends (1 for honest peers).
	ReportScale(id NodeID) float64
	// Unreachable reports whether the peer sits behind asymmetric
	// (NAT-limited) connectivity: inbound requests to it fail while its
	// own outbound sends still work. Protocols consult it for the peers
	// they target; the benign policy answers false for everyone.
	Unreachable(id NodeID) bool
}

// Transport physically delivers metered messages. It is declared here —
// rather than in the transport package that implements it — for the same
// reason FaultPolicy is: the overlay needs no new dependency, and the
// seam stays one-way. Send/SendN/SendTo meter first and then hand the
// message to the transport; the delivery error is deliberately ignored
// at this surface, so estimator arithmetic is identical whether the
// bytes move in-process, over UDP, or not at all (delivery failures
// surface on the transport's liveness channel and error counters
// instead). A nil transport is the pure simulation.
type Transport interface {
	Deliver(to NodeID, kind metrics.Kind, count uint64) error
}

// Network is an overlay of live peers. It owns the message meter: all
// protocol traffic must be recorded through Send/SendN so that overhead
// comparisons across algorithms are consistent.
type Network struct {
	g       *graph.Graph
	counter *metrics.Counter
	maxDeg  int
	policy  FaultPolicy
	trans   Transport
}

// New wraps an existing topology into a Network with the given degree cap
// for future joins. The counter may be shared across algorithm instances.
func New(g *graph.Graph, maxDeg int, counter *metrics.Counter) *Network {
	if g == nil {
		panic("overlay: nil graph")
	}
	if maxDeg < 1 {
		panic("overlay: maxDeg < 1")
	}
	if counter == nil {
		counter = &metrics.Counter{}
	}
	return &Network{g: g, counter: counter, maxDeg: maxDeg}
}

// Graph exposes the underlying topology (read access for protocols,
// mutation reserved to Join/Leave and test setup).
func (n *Network) Graph() *graph.Graph { return n.g }

// CloneCOW returns a copy-on-write copy of the overlay with a fresh
// message counter: the topology is shared with the receiver until the
// clone mutates it (graph.CloneCOW), so fanning one clone per
// estimation instance costs memory proportional to the churn each
// replay applies, not instances × overlay size. The receiver becomes
// the immutable base — it must not be mutated while clones are alive.
// Clones are independent and may be mutated concurrently.
func (n *Network) CloneCOW() *Network {
	return &Network{g: n.g.CloneCOW(), counter: &metrics.Counter{}, maxDeg: n.maxDeg, trans: n.trans}
}

// View returns a Network sharing n's topology but metering on a fresh
// counter. Parallel static runs read one shared graph concurrently;
// per-run views keep the overhead accounting of each run exact and
// race-free. The view must not be mutated while shared.
func (n *Network) View() *Network {
	return &Network{g: n.g, counter: &metrics.Counter{}, maxDeg: n.maxDeg, trans: n.trans}
}

// Counter returns the message meter.
func (n *Network) Counter() *metrics.Counter { return n.counter }

// MaxDegree returns the join-time degree cap.
func (n *Network) MaxDegree() int { return n.maxDeg }

// Size returns the true current number of live peers — the hidden
// quantity the estimators try to recover.
func (n *Network) Size() int { return n.g.NumAlive() }

// SetFaultPolicy installs (or, with nil, removes) the fault policy
// consulted by Send/SendN. Clones and views never inherit a policy:
// faults are installed per run or per instance by the fault layer.
func (n *Network) SetFaultPolicy(p FaultPolicy) { n.policy = p }

// FaultPolicy returns the installed fault policy, or nil on a benign
// overlay.
func (n *Network) FaultPolicy() FaultPolicy { return n.policy }

// SetTransport installs (or, with nil, removes) the physical transport
// that Send/SendN/SendTo hand metered messages to. Unlike the fault
// policy — which is per run or per instance — the transport is a
// deployment property of the overlay, so clones, COW clones and views
// DO inherit it: the parallel harnesses fan instances over the same
// wire.
func (n *Network) SetTransport(t Transport) { n.trans = t }

// PerMessage reports whether anything on this overlay sees sends one
// message at a time: an installed fault policy (which prices each
// batch it is handed) or a transport (which delivers each one). Without
// either, SendN(kind, a) then SendN(kind, b) meters exactly what
// SendN(kind, a+b) does, so a sweep may batch its sends.
func (n *Network) PerMessage() bool { return n.policy != nil || n.trans != nil }

// Send meters one message of the given kind, plus whatever faults the
// installed policy charges for it, then hands it to the transport (if
// any) as an unaddressed delivery.
func (n *Network) Send(kind metrics.Kind) {
	n.counter.Inc(kind)
	if n.policy != nil {
		n.counter.Add(kind, n.policy.OnSend(kind, 1))
	}
	if n.trans != nil {
		_ = n.trans.Deliver(graph.None, kind, 1)
	}
}

// SendTo meters one message of the given kind addressed to a peer. The
// metering is identical to Send — the address only matters to the
// transport, which can route the frame to the peer's real socket.
func (n *Network) SendTo(to NodeID, kind metrics.Kind) {
	n.counter.Inc(kind)
	if n.policy != nil {
		n.counter.Add(kind, n.policy.OnSend(kind, 1))
	}
	if n.trans != nil {
		_ = n.trans.Deliver(to, kind, 1)
	}
}

// SendN meters count messages of the given kind, plus whatever faults
// the installed policy charges for them, then hands the batch to the
// transport (if any) as one unaddressed delivery.
func (n *Network) SendN(kind metrics.Kind, count uint64) {
	n.counter.Add(kind, count)
	if n.policy != nil && count > 0 {
		n.counter.Add(kind, n.policy.OnSend(kind, count))
	}
	if n.trans != nil && count > 0 {
		_ = n.trans.Deliver(graph.None, kind, count)
	}
}

// RandomPeer returns a uniformly random live peer, or (graph.None, false)
// if the overlay is empty.
func (n *Network) RandomPeer(rng *xrand.Rand) (NodeID, bool) {
	return n.g.RandomAlive(rng)
}

// RandomNeighbor returns a uniformly random neighbor of id.
func (n *Network) RandomNeighbor(id NodeID, rng *xrand.Rand) (NodeID, bool) {
	return n.g.RandomNeighbor(id, rng)
}

// natAttempts bounds the forwarding retries a walk holder spends on
// NAT-unreachable neighbors before falling back to relayed delivery.
const natAttempts = 4

// NATHop resolves one forward walk hop from `from` to its pick `to`
// under the fault policy's asymmetric (NAT-limited) connectivity: a hop
// addressed to an unreachable peer is still sent — and metered as a
// walk message — but times out at the NAT, so the holder redraws
// another neighbor. After natAttempts fated picks in a row the walk
// proceeds to the last pick anyway, modeling relayed delivery through an
// already-established connection (the standard NAT-traversal fallback),
// which bounds the perturbation and guarantees termination. exempt is
// never fated (graph.None exempts no one): a Random Tour's initiator
// sent the tour out, which punched the hole its return rides back
// through. Without a fault policy it returns to with zero extra draws,
// so fault-free streams are untouched.
func (n *Network) NATHop(exempt, from, to NodeID, rng *xrand.Rand) NodeID {
	if n.policy == nil {
		return to
	}
	return n.natHop(exempt, from, to, rng)
}

// natHop is NATHop's fated path, kept out of line so NATHop inlines
// into the walk loops and a benign hop costs one nil check.
func (n *Network) natHop(exempt, from, to NodeID, rng *xrand.Rand) NodeID {
	for i := 0; to != exempt && n.policy.Unreachable(to); i++ {
		if i == natAttempts {
			return to
		}
		n.SendTo(to, metrics.KindWalk) // sent, lost at the NAT
		alt, ok := n.RandomNeighbor(from, rng)
		if !ok {
			return to
		}
		to = alt
	}
	return to
}

// Degree returns the current degree of a live peer.
func (n *Network) Degree(id NodeID) int { return n.g.Degree(id) }

// Alive reports whether id is currently a live peer.
func (n *Network) Alive(id NodeID) bool { return n.g.Alive(id) }

// Join adds a new peer wired to up to target random live peers that are
// below the degree cap, and returns its ID. Target is clamped to [1,
// MaxDegree]. Wiring is best effort on a crowded overlay: it is the
// builders' rule, draw for draw (graph.WireUpTo).
func (n *Network) Join(target int, rng *xrand.Rand) NodeID {
	if target < 1 {
		target = 1
	}
	if target > n.maxDeg {
		target = n.maxDeg
	}
	id := n.g.AddNode()
	n.g.WireUpTo(id, target, n.maxDeg, rng)
	return id
}

// JoinRandomDegree adds a peer with a target degree drawn uniformly from
// [1, MaxDegree], matching the heterogeneous construction of §IV-A.
func (n *Network) JoinRandomDegree(rng *xrand.Rand) NodeID {
	return n.Join(rng.IntRange(1, n.maxDeg), rng)
}

// Leave removes a peer using the paper's rule: incident links vanish and
// the bereaved neighbors are NOT rewired.
func (n *Network) Leave(id NodeID) {
	if !n.g.Alive(id) {
		panic(fmt.Sprintf("overlay: Leave of dead peer %d", id))
	}
	n.g.RemoveNode(id)
}

// LeaveRandom removes a uniformly random live peer and returns its ID,
// or (graph.None, false) if the overlay is empty.
func (n *Network) LeaveRandom(rng *xrand.Rand) (NodeID, bool) {
	id, ok := n.g.RandomAlive(rng)
	if !ok {
		return graph.None, false
	}
	n.Leave(id)
	return id, true
}
