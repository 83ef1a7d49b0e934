// Package latency adds the physical-network model the comparative study
// names as future work ("As part of future work, the physical network
// modeling would be an interesting goal and might provide new insights
// on the comparison") and uses it to check the §V conjecture the authors
// could not measure: "HopsSampling probably outperforms the other
// algorithms in terms of delay ... a gossip based broadcast and an
// immediate ACK response ... is very likely to be much shorter than the
// 50 rounds of Aggregation or the wait for 200 equivalent samples of
// Sample&Collide."
//
// Peers get coordinates in a unit square; the delay of a message between
// u and v is a propagation base plus their Euclidean distance. On top of
// that model the package computes per-algorithm estimation latencies:
//
//   - Sample&Collide: walks are sequential (a sample must return before
//     the collision count advances), so the latency is the sum of all
//     hop delays plus each sample's direct report back.
//   - HopsSampling: dissemination is concurrent; a node's poll arrival
//     time is its delay-weighted shortest-path distance from the
//     initiator (computed by Dijkstra — optimistic but tight for an
//     epidemic that retransmits), and the estimation completes when the
//     last probabilistic reply lands back.
//   - Aggregation: rounds are synchronous, so each round lasts one full
//     push-pull RTT of the slowest exchanging pair; the latency is
//     rounds × 2 × a high quantile of edge delays.
package latency

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"p2psize/internal/graph"
	"p2psize/internal/overlay"
	"p2psize/internal/samplecollide"
	"p2psize/internal/stats"
	"p2psize/internal/xrand"
)

// Model assigns a delay to a message between two peers.
type Model interface {
	// Delay returns the one-way message latency between u and v, > 0.
	Delay(u, v graph.NodeID) float64
}

// Euclidean places peers uniformly at random in the unit square and
// prices a message at Base + distance. With Base 0.01 and the square's
// mean distance ≈ 0.52, delays resemble a LAN floor plus wide-area
// spread.
type Euclidean struct {
	base float64
	x, y []float64
}

// NewEuclidean builds coordinates for ids [0, numIDs).
func NewEuclidean(numIDs int, base float64, rng *xrand.Rand) *Euclidean {
	if numIDs < 0 {
		panic("latency: negative numIDs")
	}
	if base < 0 {
		panic("latency: negative base delay")
	}
	if rng == nil {
		panic("latency: nil rng")
	}
	m := &Euclidean{base: base, x: make([]float64, numIDs), y: make([]float64, numIDs)}
	for i := 0; i < numIDs; i++ {
		m.x[i] = rng.Float64()
		m.y[i] = rng.Float64()
	}
	return m
}

// Delay returns base + Euclidean distance between u and v.
func (m *Euclidean) Delay(u, v graph.NodeID) float64 {
	dx := m.x[u] - m.x[v]
	dy := m.y[u] - m.y[v]
	return m.base + math.Sqrt(dx*dx+dy*dy)
}

// ShortestDelays runs Dijkstra over the overlay's links with delays from
// the model and returns per-node arrival times from src (+Inf where
// unreachable).
func ShortestDelays(net *overlay.Network, m Model, src graph.NodeID) []float64 {
	g := net.Graph()
	dist := make([]float64, g.NumIDs())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if !g.Alive(src) {
		return dist
	}
	dist[src] = 0
	pq := &delayHeap{{node: src, at: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(delayItem)
		if item.at > dist[item.node] {
			continue // stale entry
		}
		for _, v := range g.Neighbors(item.node) {
			if d := item.at + m.Delay(item.node, v); d < dist[v] {
				dist[v] = d
				heap.Push(pq, delayItem{node: v, at: d})
			}
		}
	}
	return dist
}

type delayItem struct {
	node graph.NodeID
	at   float64
}

type delayHeap []delayItem

func (h delayHeap) Len() int           { return len(h) }
func (h delayHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h delayHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *delayHeap) Push(x any)        { *h = append(*h, x.(delayItem)) }
func (h *delayHeap) Pop() (out any) {
	old := *h
	n := len(old)
	out = old[n-1]
	*h = old[:n-1]
	return out
}

// ErrEmptyOverlay is returned when no live peer can initiate.
var ErrEmptyOverlay = errors.New("latency: empty overlay")

// SampleCollide returns the wall-clock latency of one Sample&Collide
// estimation (timer T, l collisions) from a random initiator: the walks
// run one after another, each ending with a direct report whose cost is
// the straight-line delay back to the initiator.
func SampleCollide(net *overlay.Network, m Model, T float64, l int, rng *xrand.Rand) (float64, error) {
	if !(T > 0) || math.IsInf(T, 1) {
		return 0, fmt.Errorf("latency: Sample&Collide timer T %g must be positive and finite", T)
	}
	initiator, ok := net.RandomPeer(rng)
	if !ok {
		return 0, ErrEmptyOverlay
	}
	seen := make(map[graph.NodeID]struct{}, 4*l)
	collisions := 0
	elapsed := 0.0
	var timer xrand.Countdown
	for collisions < l {
		sample, walkDelay := timedWalk(net, m, initiator, T, rng, &timer)
		elapsed += walkDelay + m.Delay(sample, initiator)
		if _, dup := seen[sample]; dup {
			collisions++
		} else {
			seen[sample] = struct{}{}
		}
	}
	return elapsed, nil
}

// timedWalk mirrors the Sample&Collide CTRW but accumulates per-hop
// delays instead of metering messages; timer is the walk's clock.
func timedWalk(net *overlay.Network, m Model, initiator graph.NodeID, T float64, rng *xrand.Rand, timer *xrand.Countdown) (graph.NodeID, float64) {
	cur, ok := net.RandomNeighbor(initiator, rng)
	if !ok {
		return initiator, 0
	}
	delay := m.Delay(initiator, cur)
	timer.Reset(T)
	for !timer.Step(rng, float64(net.Degree(cur))) {
		next, _ := net.RandomNeighbor(cur, rng)
		delay += m.Delay(cur, next)
		cur = next
	}
	return cur, delay
}

// HopsSampling returns the wall-clock latency of one HopsSampling poll
// from a random initiator: nodes hear the poll at their delay-weighted
// shortest-path time, repliers are drawn with the minHopsReporting
// probabilities over hop distances, and the estimation completes when
// the last reply reaches the initiator directly.
func HopsSampling(net *overlay.Network, m Model, gossipTo, minHops int, rng *xrand.Rand) (float64, error) {
	initiator, ok := net.RandomPeer(rng)
	if !ok {
		return 0, ErrEmptyOverlay
	}
	arrival := ShortestDelays(net, m, initiator)
	hops := graph.BFSDistances(net.Graph(), initiator)
	g := net.Graph()
	last := 0.0
	for i := 0; i < g.NumAlive(); i++ {
		id := g.AliveAt(i)
		if id == initiator || math.IsInf(arrival[id], 1) || hops[id] < 0 {
			continue
		}
		p := 1.0
		for h := int(hops[id]) - minHops; h > 0; h-- {
			p /= float64(gossipTo)
		}
		if !rng.Bernoulli(p) {
			continue
		}
		if done := arrival[id] + m.Delay(id, initiator); done > last {
			last = done
		}
	}
	return last, nil
}

// Aggregation returns the wall-clock latency of one Aggregation
// estimation: rounds × one synchronous push-pull RTT, where the round
// period accommodates the q-quantile slowest overlay link (q = 0.99
// reproduces a deployment that waits out stragglers; q = 1 is fully
// lock-step).
func Aggregation(net *overlay.Network, m Model, rounds int, quantile float64) (float64, error) {
	g := net.Graph()
	if g.NumAlive() == 0 {
		return 0, ErrEmptyOverlay
	}
	delays := make([]float64, 0, 2*g.NumEdges())
	for i := 0; i < g.NumAlive(); i++ {
		u := g.AliveAt(i)
		for _, v := range g.Neighbors(u) {
			if u < v {
				delays = append(delays, m.Delay(u, v))
			}
		}
	}
	if len(delays) == 0 {
		return 0, errors.New("latency: overlay has no links")
	}
	period := 2 * stats.Quantile(delays, quantile) // push + pull
	return float64(rounds) * period, nil
}

// Compare bundles the three latencies on one overlay with the paper's
// parameters (T=10, l, gossipTo=2, minHops=5, rounds), using independent
// rng streams per algorithm.
type Comparison struct {
	SampleCollide float64
	HopsSampling  float64
	Aggregation   float64
}

// CompareAll measures all three algorithms on the given overlay/model.
func CompareAll(net *overlay.Network, m Model, l, rounds int, rng *xrand.Rand) (Comparison, error) {
	var c Comparison
	var err error
	cfg := samplecollide.Default()
	if c.SampleCollide, err = SampleCollide(net, m, cfg.T, l, rng.Split()); err != nil {
		return c, err
	}
	if c.HopsSampling, err = HopsSampling(net, m, 2, 5, rng.Split()); err != nil {
		return c, err
	}
	if c.Aggregation, err = Aggregation(net, m, rounds, 0.99); err != nil {
		return c, err
	}
	return c, nil
}
