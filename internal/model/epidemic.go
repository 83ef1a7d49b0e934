package model

import (
	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// Epoch is one Aggregation (push-pull averaging) or push-sum epoch:
// members' states in a map (Aggregation uses [0], push-sum holds (sum,
// weight)), a node outside the epoch absent from it.
type Epoch struct {
	PushSum bool
	Rng     *xrand.Rand
	State   map[graph.NodeID][2]float64
	Sent    [metrics.NumKinds]uint64
}

// Start begins the first epoch: a uniform initiator holds 1, or (1, 1).
//
//detlint:allow testonly used by the epidemic, aggregation and pushsum tests
func (e *Epoch) Start(net *overlay.Network) {
	id, _ := net.RandomPeer(e.Rng)
	e.State = map[graph.NodeID][2]float64{id: {1, 1}}
}

// Round is the sharded engine's round as parallel's naiveRound spells
// it, shard after shard. The alive list is shuffled and one round seed
// drawn; shard s visits the s-th of `shards` contiguous segments on
// stream s of that seed, each visitor drawing a uniform neighbour, and
// applies the exchange at once when the neighbour lies in its own
// segment. The others wait for the tournament (schedule is
// parallel.RoundRobinPairs(shards)): meeting {a, b} applies a's
// exchanges with b, then b's with a.
//
//detlint:allow testonly used by the epidemic, aggregation and pushsum tests
func (e *Epoch) Round(net *overlay.Network, shards int, schedule [][][2]int) {
	g, pol := net.Graph(), net.FaultPolicy()
	order := g.AliveIDs()
	n := len(order)
	if n == 0 {
		return
	}
	xrand.Shuffle(e.Rng, order)
	seed := e.Rng.Uint64()
	shards = min(shards, n)
	owner := map[graph.NodeID]int{}
	for s := range shards {
		for _, u := range order[s*n/shards : (s+1)*n/shards] {
			owner[u] = s
		}
	}
	deferred := make([][][]func(), shards)
	for s := range shards {
		rng := xrand.NewStream(seed, uint64(s))
		deferred[s] = make([][]func(), shards)
		for _, u := range order[s*n/shards : (s+1)*n/shards] {
			v, ok := g.RandomNeighbor(u, rng)
			if !ok {
				continue
			}
			if apply := e.visit(pol, u, v, rng); apply == nil {
				continue
			} else if t := owner[v]; t == s {
				apply()
			} else {
				deferred[s][t] = append(deferred[s][t], apply)
			}
		}
	}
	for _, meetings := range schedule {
		for _, m := range meetings {
			for _, apply := range append(deferred[m[0]][m[1]], deferred[m[1]][m[0]]...) {
				apply()
			}
		}
	}
}

// visit draws u's message fates after its pick v (a drop per message
// under a drop probability; a NAT'd v loses the push), meters, and
// returns what is left to apply, nil for nothing.
func (e *Epoch) visit(pol overlay.FaultPolicy, u, v graph.NodeID, rng *xrand.Rand) func() {
	dropP := 0.0
	if pol != nil {
		dropP = pol.DropProb()
	}
	e.Sent[metrics.KindPush]++
	if e.PushSum {
		lost := (dropP > 0 && rng.Bernoulli(dropP)) || (pol != nil && pol.Unreachable(v))
		return e.Push(pol, u, v, lost)
	}
	pushLost, pullLost := dropP > 0 && rng.Bernoulli(dropP), dropP > 0 && rng.Bernoulli(dropP)
	if pushLost || pol != nil && pol.Unreachable(v) {
		return nil
	}
	e.Sent[metrics.KindPull]++
	return func() { e.Exchange(pol, u, v, pullLost) }
}

// scale is the factor by which id misreports its values.
func scale(pol overlay.FaultPolicy, id graph.NodeID) float64 {
	if pol == nil {
		return 1
	}
	return pol.ReportScale(id)
}

// Exchange is Aggregation's push-pull exchange, its push delivered:
// unless neither takes part, both join (absent reads 0), v averages
// u's reported value with its own, and u, unless the pull is lost,
// v's reported value with its own.
//
//detlint:allow testonly used by the aggregation tests
func (e *Epoch) Exchange(pol overlay.FaultPolicy, u, v graph.NodeID, pullLost bool) {
	vu, inU := e.State[u]
	vv, inV := e.State[v]
	if !inU && !inV {
		return
	}
	e.State[u] = vu
	e.State[v] = [2]float64{(scale(pol, u)*vu[0] + vv[0]) / 2}
	if !pullLost {
		e.State[u] = [2]float64{(vu[0] + scale(pol, v)*vv[0]) / 2}
	}
}

// Push is push-sum's push: a member u halves its pair now and returns
// the delivery of the half to v (v joins with (1, 0)), its sum as u
// reports it; nil when u is no member or the push is lost.
//
//detlint:allow testonly used by the pushsum tests
func (e *Epoch) Push(pol overlay.FaultPolicy, u, v graph.NodeID, lost bool) func() {
	su, member := e.State[u]
	if !member {
		return nil
	}
	half := [2]float64{su[0] / 2, su[1] / 2}
	e.State[u] = half
	if lost {
		return nil
	}
	return func() {
		sv, member := e.State[v]
		if !member {
			sv = [2]float64{1, 0}
		}
		e.State[v] = [2]float64{sv[0] + scale(pol, u)*half[0], sv[1] + half[1]}
	}
}
