package epidemic_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"p2psize/internal/epidemic"
	"p2psize/internal/fault"
	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/model"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/xrand"
)

// churned is a COW clone of a heterogeneous overlay after n/20 random
// departures and then n/20 random joins: the alive list is no longer in
// id order, as after any churn.
func churned(n int, seed uint64) *overlay.Network {
	net := hetNet(n, seed).CloneCOW()
	rng := xrand.New(seed + 100)
	for range n / 20 {
		net.LeaveRandom(rng)
	}
	for range n / 20 {
		net.JoinRandomDegree(rng)
	}
	return net
}

// TestRoundMatchesReference holds each family's round to the model's
// (internal/model) bit for bit — every node's membership (Participant
// against the model's map), every member's state, and the messages by
// kind — after every round: on a static overlay and a churned COW clone
// at 2000 nodes, each with and without a drop+lie+NAT fault policy, on
// one and four shards. The first node that differs is named. The 20k
// overlay at 16 shards is each family's TestRoundStatePinned.
//
// A third row changes what a round runs on in the middle of one epoch,
// at workers 1, 2 and 8: after round 7 the network's fault policy is
// swapped for another, and after round 13 the epoch moves to a churned
// COW clone, which carries no policy. The callbacks are bound once, so
// a round that read the graph or the policy of an earlier one would
// part from the model here.
func TestRoundMatchesReference(t *testing.T) {
	spec := fault.Spec{Drop: 0.1, LieFrac: 0.2, LieScale: 3, NATFrac: 0.2}
	cases := []struct {
		name    string
		net     func() *overlay.Network
		gen     uint64
		faults  []bool
		shards  []int
		workers []int
		// swap, when set, returns the network round r runs on.
		swap func(net *overlay.Network, r int) *overlay.Network
	}{
		{"static", func() *overlay.Network { return hetNet(2000, 40) }, 44, []bool{false, true}, []int{1, 4}, []int{2}, nil},
		{"churned COW clone", func() *overlay.Network { return churned(2000, 41) }, 44, []bool{false, true}, []int{1, 4}, []int{2}, nil},
		{"swapped mid-epoch", func() *overlay.Network { return hetNet(2000, 42) }, 44, []bool{true}, []int{1, 4}, []int{1, 2, 8},
			func(net *overlay.Network, r int) *overlay.Network {
				switch r {
				case 8:
					net.SetFaultPolicy(fault.NewInjector(fault.Spec{Drop: 0.3, LieFrac: 0.5, LieScale: 0.5, NATFrac: 0.4}, xrand.New(45)))
				case 14:
					net = net.CloneCOW()
					rng := xrand.New(46)
					for range 100 {
						net.LeaveRandom(rng)
						net.JoinRandomDegree(rng)
					}
				}
				return net
			}},
	}
	for _, f := range families {
		for _, c := range cases {
			for _, faulty := range c.faults {
				for _, shards := range c.shards {
					for _, workers := range c.workers {
						where := fmt.Sprintf("%s, %s, %d shards, faults %v, workers %d", f.name, c.name, shards, faulty, workers)
						net := c.net()
						if faulty {
							net.SetFaultPolicy(fault.NewInjector(spec, xrand.New(43)))
						}
						p := f.new(epidemic.Config{RoundsPerEpoch: 50, Shards: shards, Workers: workers}, xrand.New(c.gen))
						ref := &model.Epoch{PushSum: f.name == "pushsum", Rng: xrand.New(c.gen)}
						if err := p.StartEpoch(net); err != nil {
							t.Fatal(err)
						}
						ref.Start(net)
						sent := metrics.Counter{}
						for r := 1; r <= 20; r++ {
							if c.swap != nil {
								if next := c.swap(net, r); next != net {
									sent.Merge(net.Counter())
									net = next
								}
							}
							if err := p.RunRound(net); err != nil {
								t.Fatal(err)
							}
							ref.Round(net, shards, parallel.RoundRobinPairs(shards))
							if err := sameAsModel(p.snap(), ref, net, &sent); err != nil {
								t.Fatalf("%s, round %d: %v", where, r, err)
							}
						}
					}
				}
			}
		}
	}
}

// sameAsModel reports the first node whose membership or state differs
// from the model's, a member holding -0 (the absent marker, one sign
// flip from leaving), or a message count that differs: net's, plus
// those metered on networks the epoch has left (before).
func sameAsModel(s snapshot, ref *model.Epoch, net *overlay.Network, before *metrics.Counter) error {
	if len(s.member) != net.Graph().NumIDs() {
		return fmt.Errorf("%d states for %d ids", len(s.member), net.Graph().NumIDs())
	}
	for id, member := range s.member {
		want, refMember := ref.State[graph.NodeID(id)]
		if member != refMember {
			return fmt.Errorf("node %d member %v, model %v", id, member, refMember)
		}
		for i, w := range s.node(id) {
			if member && (math.Float64bits(w) != math.Float64bits(want[i]) || epidemic.IsNegZero(w)) {
				return fmt.Errorf("node %d holds %v, model %v", id, s.node(id), want[:s.perNode])
			}
		}
	}
	for _, kind := range []metrics.Kind{metrics.KindPush, metrics.KindPull} {
		if got := before.Count(kind) + net.Counter().Count(kind); got != ref.Sent[kind] {
			return fmt.Errorf("%d %v messages metered, model %d", got, kind, ref.Sent[kind])
		}
	}
	return nil
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
