package epidemic_test

import (
	"math"
	"strings"
	"testing"

	"p2psize/internal/epidemic"
	"p2psize/internal/fault"
	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// reference is a map-and-slice model of one epoch at Shards=1 and
// Workers=1: per-node state and tags in maps, the round's sweep order
// in a slice, every draw spelled out in the order the skeleton makes
// it.
type reference struct {
	rng   *xrand.Rand
	epoch uint32
	state map[graph.NodeID][2]float64 // Aggregation uses [0]; push-sum (sum, weight)
	tag   map[graph.NodeID]uint32
	sent  [metrics.NumKinds]uint64
}

// start begins the first epoch: a uniform initiator takes start.
func (r *reference) start(net *overlay.Network, start [2]float64) {
	id, _ := net.RandomPeer(r.rng)
	r.epoch = 1
	r.state = map[graph.NodeID][2]float64{id: start}
	r.tag = map[graph.NodeID]uint32{id: 1}
}

// order returns the round's sweep order and the shard stream it draws
// from: the alive list, shuffled on the protocol rng, then the stream
// of one round-seed draw.
func (r *reference) order(g *graph.Graph) ([]graph.NodeID, *xrand.Rand) {
	order := make([]graph.NodeID, g.NumAlive())
	g.CopyAlive(order)
	xrand.Shuffle(r.rng, order)
	return order, xrand.NewStream(r.rng.Uint64(), 0)
}

// join enrolls id in the epoch with the given state unless it already
// participates.
func (r *reference) join(id graph.NodeID, joined [2]float64) {
	if r.tag[id] != r.epoch {
		r.state[id], r.tag[id] = joined, r.epoch
	}
}

// aggregationRound is one push-pull round: each visitor draws a
// neighbour, then (under a drop probability) the push's and the pull's
// fates; a lost push cancels the exchange, a lost pull leaves the
// visitor's value alone; a liar's value is scaled as its peer sees it.
func (r *reference) aggregationRound(net *overlay.Network) {
	g, pol := net.Graph(), net.FaultPolicy()
	dropP, scale := 0.0, func(graph.NodeID) float64 { return 1 }
	if pol != nil {
		dropP, scale = pol.DropProb(), pol.ReportScale
	}
	order, rng := r.order(g)
	for _, u := range order {
		v, ok := g.RandomNeighbor(u, rng)
		if !ok {
			continue
		}
		pushLost, pullLost := false, false
		if dropP > 0 {
			pushLost = rng.Bernoulli(dropP)
			pullLost = rng.Bernoulli(dropP)
		}
		if pol != nil && pol.Unreachable(v) {
			pushLost = true
		}
		r.sent[metrics.KindPush]++
		if pushLost {
			continue
		}
		r.sent[metrics.KindPull]++
		if r.tag[u] != r.epoch && r.tag[v] != r.epoch {
			continue
		}
		r.join(u, [2]float64{})
		r.join(v, [2]float64{})
		vu, vv := r.state[u][0], r.state[v][0]
		r.state[v] = [2]float64{(scale(u)*vu + vv) / 2}
		if !pullLost {
			r.state[u] = [2]float64{(vu + scale(v)*vv) / 2}
		}
	}
}

// pushSumRound is one push round: each visitor draws a neighbour and
// (under a drop probability) the push's fate; a participant halves its
// pair and, unless the push is lost, the target — joining with sum 1 —
// receives the half, its sum scaled by a lying sender.
func (r *reference) pushSumRound(net *overlay.Network) {
	g, pol := net.Graph(), net.FaultPolicy()
	dropP := 0.0
	if pol != nil {
		dropP = pol.DropProb()
	}
	order, rng := r.order(g)
	for _, u := range order {
		v, ok := g.RandomNeighbor(u, rng)
		if !ok {
			continue
		}
		lost := dropP > 0 && rng.Bernoulli(dropP)
		if pol != nil && pol.Unreachable(v) {
			lost = true
		}
		r.sent[metrics.KindPush]++
		if r.tag[u] != r.epoch {
			continue
		}
		half := [2]float64{r.state[u][0] / 2, r.state[u][1] / 2}
		r.state[u] = half
		if lost {
			continue
		}
		if pol != nil {
			half[0] *= pol.ReportScale(u)
		}
		r.join(v, [2]float64{1, 0})
		r.state[v] = [2]float64{r.state[v][0] + half[0], r.state[v][1] + half[1]}
	}
}

// TestRoundMatchesReference holds each family's skeleton round to its
// reference model bit for bit — every node's membership (Participant
// against the model's tag), every member's state, and the messages by
// kind — after every round, on a static overlay and on a churned COW
// clone, each with and without a drop+lie+NAT fault policy. The pinned
// hashes (TestRoundStatePinned) only say that a round moved; this names
// the first node that differs.
func TestRoundMatchesReference(t *testing.T) {
	const n, rounds = 2000, 20
	models := map[string]struct {
		start [2]float64
		round func(*reference, *overlay.Network)
	}{
		"aggregation": {[2]float64{1}, (*reference).aggregationRound},
		"pushsum":     {[2]float64{1, 1}, (*reference).pushSumRound},
	}
	overlays := map[string]func() *overlay.Network{
		"static": func() *overlay.Network { return hetNet(n, 40) },
		"churned COW clone": func() *overlay.Network {
			clone := hetNet(n, 41).CloneCOW()
			rng := xrand.New(42)
			for i := 0; i < n/10; i++ {
				clone.LeaveRandom(rng)
				clone.JoinRandomDegree(rng)
			}
			return clone
		},
	}
	for _, f := range families {
		model := models[f.name]
		for oname, mk := range overlays {
			for _, faulty := range []bool{false, true} {
				net := mk()
				if faulty {
					net.SetFaultPolicy(fault.NewInjector(fault.Spec{Drop: 0.1, LieFrac: 0.2, LieScale: 3, NATFrac: 0.2}, xrand.New(43)))
				}
				cfg := epidemic.Config{RoundsPerEpoch: rounds, Shards: 1, Workers: 1}
				p := f.new(cfg, xrand.New(44))
				ref := &reference{rng: xrand.New(44)}
				if err := p.StartEpoch(net); err != nil {
					t.Fatal(err)
				}
				ref.start(net, model.start)
				for r := 1; r <= rounds; r++ {
					if err := p.RunRound(net); err != nil {
						t.Fatal(err)
					}
					model.round(ref, net)
					where := f.name + ", " + oname
					if faulty {
						where += ", drop+lie+NAT"
					}
					s := p.snap()
					if len(s.member) != net.Graph().NumIDs() {
						t.Fatalf("%s, round %d: %d states for %d ids", where, r, len(s.member), net.Graph().NumIDs())
					}
					for id, member := range s.member {
						refMember := ref.tag[graph.NodeID(id)] == ref.epoch
						if member != refMember {
							t.Fatalf("%s, round %d: node %d member %v, reference %v", where, r, id, member, refMember)
						}
						if !member {
							continue
						}
						want := ref.state[graph.NodeID(id)]
						got := s.node(id)
						if !sameBits(got, want[:s.perNode]) {
							t.Fatalf("%s, round %d: node %d holds %v, reference %v", where, r, id, got, want[:s.perNode])
						}
						// -0 marks a node outside the epoch; a member
						// holding it anywhere is one sign flip from
						// leaving.
						for _, w := range got {
							if epidemic.IsNegZero(w) {
								t.Fatalf("%s, round %d: member %d holds -0: %v", where, r, id, got)
							}
						}
					}
					for _, kind := range []metrics.Kind{metrics.KindPush, metrics.KindPull} {
						if got := net.Counter().Count(kind); got != ref.sent[kind] {
							t.Fatalf("%s, round %d: %d %v messages metered, reference %d", where, r, got, kind, ref.sent[kind])
						}
					}
				}
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// overflowingLiars is a fault policy under which every odd node reports
// its values scaled by 1e308: the first lie pushes a value past the
// largest float64, so the epoch's mass overflows to +Inf.
type overflowingLiars struct{ passThrough }

func (*overflowingLiars) ReportScale(id graph.NodeID) float64 {
	if id%2 == 1 {
		return 1e308
	}
	return 1
}

// TestOverflowingEpochIsAnError: an epoch whose initiator ends on a
// ratio that is not a finite positive size — Aggregation reads 1/+Inf =
// 0, push-sum +Inf/w = +Inf — fails the one-shot estimate with an error
// naming the family, where it used to return the ratio as a size. The
// experiments' direct Protocol.Estimate path still reads the raw ratio,
// and an honest epoch on the same overlay still estimates.
func TestOverflowingEpochIsAnError(t *testing.T) {
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			net := hetNet(2000, 45)
			honest := f.new(epidemic.Default(), xrand.New(46))
			if est, err := honest.oneShot.Estimate(net); err != nil || math.Abs(est/2000-1) > 0.05 {
				t.Fatalf("honest epoch: estimate %v, err %v", est, err)
			}
			net.SetFaultPolicy(&overflowingLiars{})
			p := f.new(epidemic.Default(), xrand.New(46))
			est, err := p.oneShot.Estimate(net)
			if err == nil {
				t.Fatalf("overflowing epoch returned the estimate %v", est)
			}
			if !strings.HasPrefix(err.Error(), f.name+": ") {
				t.Fatalf("error %q does not name the family", err)
			}
			if raw, ok := p.Estimate(net); ok && raw > 0 && !math.IsInf(raw, 0) {
				t.Fatalf("direct Estimate reads %v: the epoch did not overflow", raw)
			}
		})
	}
}
