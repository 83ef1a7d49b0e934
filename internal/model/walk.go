package model

import (
	"math"
	"slices"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// Walk is the continuous-time random walk with its timer spelled out:
// a first hop to a uniform neighbour of from, then, while
// t -= Exp(degree of the holder) stays positive, a hop to a uniform
// neighbour of the holder. hop(cur, next) resolves each hop (a NAT
// redraw, a meter, a delay) and returns where the walk goes. An
// isolated start reports false with no hop taken.
//
//detlint:allow testonly used by the samplecollide and latency tests
func Walk(net *overlay.Network, from graph.NodeID, T float64, rng *xrand.Rand, hop func(cur, next graph.NodeID) graph.NodeID) (graph.NodeID, bool) {
	cur, ok := net.RandomNeighbor(from, rng)
	if !ok {
		return from, false
	}
	cur = hop(from, cur)
	t := T
	for {
		t -= rng.Exp(float64(net.Degree(cur)))
		if t <= 0 {
			return cur, true
		}
		next, _ := net.RandomNeighbor(cur, rng)
		cur = hop(cur, next)
	}
}

// Hops is Hops Sampling's configuration as plain values, field for
// field (MaxRounds 0 means 10 000).
type Hops struct {
	GossipTo, GossipFor, GossipUntil, MinHopsReporting int
	RoutedReplies                                      bool
	MaxRounds                                          int
}

// Spread is the bounded gossip from the initiator; it returns each
// reached node's hop count and the rounds run. Each active node sends
// to GossipTo uniform neighbours (a send to a NAT'd peer is metered and
// lost): a fresh target records h+1 and gossips for GossipFor rounds, a
// target that improves re-arms (at most twice in all), and a target
// holding a better count corrects the sender with one message and
// re-arms it. It stops when nobody is active, after GossipUntil rounds
// without a fresh node, or after MaxRounds.
//
//detlint:allow testonly used by the hopssampling tests
func (h Hops) Spread(net *overlay.Network, initiator graph.NodeID, rng *xrand.Rand) (map[graph.NodeID]int32, int) {
	if h.MaxRounds == 0 {
		h.MaxRounds = 10000
	}
	pol := net.FaultPolicy()
	dist := map[graph.NodeID]int32{initiator: 0}
	budget := map[graph.NodeID]int{initiator: h.GossipFor}
	acts := map[graph.NodeID]int{initiator: 1}
	active := []graph.NodeID{initiator}
	quiet, rounds := 0, 0
	for len(active) > 0 && quiet < h.GossipUntil && rounds < h.MaxRounds {
		rounds++
		var next []graph.NodeID
		queued := map[graph.NodeID]bool{}
		enqueue := func(id graph.NodeID) {
			if !queued[id] {
				queued[id] = true
				next = append(next, id)
			}
		}
		arm := func(id graph.NodeID) {
			if acts[id] < 2 {
				acts[id]++
				budget[id] = h.GossipFor
				enqueue(id)
			}
		}
		infected := 0
		for _, id := range active {
			for range h.GossipTo {
				hd := dist[id]
				target, ok := net.RandomNeighbor(id, rng)
				if !ok {
					break
				}
				net.SendTo(target, metrics.KindGossipSpread)
				if pol != nil && pol.Unreachable(target) {
					continue
				}
				td, seen := dist[target]
				switch {
				case !seen:
					dist[target], acts[target], budget[target] = hd+1, 1, h.GossipFor
					infected++
					enqueue(target)
				case hd+1 < td:
					dist[target] = hd + 1
					arm(target)
				case td+1 < hd:
					net.SendTo(id, metrics.KindGossipSpread)
					dist[id] = td + 1
					arm(id)
				}
			}
			if budget[id]--; budget[id] > 0 {
				enqueue(id)
			}
		}
		active = next
		if infected == 0 {
			quiet++
		} else {
			quiet = 0
		}
	}
	return dist, rounds
}

// Collect is the reporting phase over the hop counts in dist: each
// reached node but the initiator, in alive-list order, replies with
// probability 1 at fewer than MinHops hops and GossipTo^-(h-MinHops)
// beyond (divided out one factor at a time), a reply priced at h
// messages when routed. It returns 1 + Σ 1/p, the nodes reached and the
// replies.
//
//detlint:allow testonly used by the hopssampling tests
func (h Hops) Collect(net *overlay.Network, initiator graph.NodeID, dist map[graph.NodeID]int32, rng *xrand.Rand) (est float64, reached, replies int) {
	est = 1
	for _, id := range net.Graph().AliveIDs() {
		d, seen := dist[id]
		if !seen {
			continue
		}
		reached++
		if id == initiator {
			continue
		}
		p := 1.0
		for range int(d) - h.MinHopsReporting {
			p /= float64(h.GossipTo)
		}
		if !rng.Bernoulli(p) {
			continue
		}
		replies++
		reply(net, h.RoutedReplies, d)
		est += 1 / p
	}
	return est, reached, replies
}

// reply meters one reply: d messages back along the path, or one.
func reply(net *overlay.Network, routed bool, d int32) {
	if routed {
		net.SendN(metrics.KindReply, uint64(d))
	} else {
		net.Send(metrics.KindReply)
	}
}

// Poll is polling's flood and reply sweep: a breadth-first flood from
// the initiator that meters every send (a send to a NAT'd peer is
// lost), then, in alive-list order, each reached node but the initiator
// replies with probability p. It returns 1 + replies/p and the hop
// distances.
//
//detlint:allow testonly used by the polling tests
func Poll(net *overlay.Network, initiator graph.NodeID, p float64, routed bool, rng *xrand.Rand) (float64, map[graph.NodeID]int32) {
	pol := net.FaultPolicy()
	dist := map[graph.NodeID]int32{initiator: 0}
	for queue := []graph.NodeID{initiator}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for _, v := range net.Graph().Neighbors(u) {
			net.SendTo(v, metrics.KindGossipSpread)
			if _, seen := dist[v]; !seen && (pol == nil || !pol.Unreachable(v)) {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	total := 1.0
	for _, id := range net.Graph().AliveIDs() {
		d, seen := dist[id]
		if id == initiator || !seen || !rng.Bernoulli(p) {
			continue
		}
		reply(net, routed, d)
		total += 1 / p
	}
	return total, dist
}

// DHT is the DHT density estimate, one probe at a time: a target drawn
// uniformly, the k-th smallest XOR distance from it to any alive
// identifier (sorted, k clamped to the live count), a route from the
// alive node at target mod n halving its distance per hop until within
// that, and k replies. Identifiers are a salted splitmix64 of the node
// id. Fewer than two live nodes read the live count for one message;
// none reads false.
//
//detlint:allow testonly used by the dhtext tests
func DHT(net *overlay.Network, salt uint64, k, probes int, rng *xrand.Rand) (float64, bool) {
	alive := net.Graph().AliveIDs()
	n := len(alive)
	if n == 0 {
		return 0, false
	}
	if k = min(k, n); k < 2 {
		net.Send(metrics.KindWalk)
		return float64(n), true
	}
	id64 := func(id graph.NodeID) uint64 {
		x := salt ^ (uint64(uint32(id)) + 0x9e3779b97f4a7c15)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	sum := 0.0
	for range probes {
		target := rng.Uint64()
		var ds []uint64
		for _, id := range alive {
			ds = append(ds, id64(id)^target)
		}
		slices.Sort(ds)
		dk := ds[k-1]
		d, hops := id64(alive[target%uint64(n)])^target, 0
		for ; d > dk && hops < 64; hops++ {
			net.Send(metrics.KindWalk)
			d >>= 1
		}
		if hops == 0 {
			net.Send(metrics.KindWalk)
		}
		net.SendN(metrics.KindReply, uint64(k))
		sum += float64(k-1) * math.Ldexp(1, 64) / float64(dk)
	}
	return sum / float64(probes), true
}
