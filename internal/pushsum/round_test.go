package pushsum

import (
	"math"
	"testing"

	"p2psize/internal/epidemic"
	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/model"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/xrand"
)

// churnedNet is a heterogeneous overlay after 5% leaves and 5% joins:
// the alive list is no longer in id order (every leave swap-deletes),
// which is what a round sweep sees after any churn.
func churnedNet(n int, seed uint64) *overlay.Network {
	net := hetNet(n, seed)
	rng := xrand.New(seed + 100)
	for range n / 20 {
		net.LeaveRandom(rng)
	}
	for range n / 20 {
		net.JoinRandomDegree(rng)
	}
	return net
}

// pinnedRounds is long enough for the epoch to reach every node of the
// 20k overlay, so every position of every sweep and every neighbour draw
// lands in the compared state.
const pinnedRounds = 20

// TestRoundStatePinned pins twenty rounds on a churned 20k overlay
// (overlay seed 7, generator 8) to the model's round (internal/model)
// bit for bit at 1, 4 and 16 shards: after every round, each node's
// membership, each member's sum and weight (never the absent weight -0)
// and the push and pull totals.
func TestRoundStatePinned(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		net := churnedNet(20000, 7)
		p := New(Config{RoundsPerEpoch: 50, Shards: shards}, xrand.New(8))
		ref := &model.Epoch{PushSum: true, Rng: xrand.New(8)}
		if err := p.StartEpoch(net); err != nil {
			t.Fatal(err)
		}
		ref.Start(net)
		for r := 1; r <= pinnedRounds; r++ {
			if err := p.RunRound(net); err != nil {
				t.Fatal(err)
			}
			ref.Round(net, shards, parallel.RoundRobinPairs(shards))
			for i, st := range p.State {
				id := graph.NodeID(i)
				want, member := ref.State[id]
				if p.Participant(id) != member {
					t.Fatalf("shards=%d round %d: node %d member %v, model %v", shards, r, id, !member, member)
				}
				for k, v := range [2]float64{st.sum, st.weight} {
					if member && (math.Float64bits(v) != math.Float64bits(want[k]) || epidemic.IsNegZero(v)) {
						t.Fatalf("shards=%d round %d: node %d holds (%v, %v), model %v", shards, r, id, st.sum, st.weight, want)
					}
				}
			}
			for _, kind := range []metrics.Kind{metrics.KindPush, metrics.KindPull} {
				if got := net.Counter().Count(kind); got != ref.Sent[kind] {
					t.Fatalf("shards=%d round %d: %d %v messages, model %d", shards, r, got, kind, ref.Sent[kind])
				}
			}
		}
	}
}
