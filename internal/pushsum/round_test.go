package pushsum

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// churnedNet is a heterogeneous overlay after 5% leaves and 5% joins:
// the alive list is no longer in id order (every leave swap-deletes),
// which is what a round sweep sees after any churn.
func churnedNet(n int, seed uint64) *overlay.Network {
	net := hetNet(n, seed)
	rng := xrand.New(seed + 100)
	for i := 0; i < n/20; i++ {
		net.LeaveRandom(rng)
	}
	for i := 0; i < n/20; i++ {
		net.JoinRandomDegree(rng)
	}
	return net
}

// pinnedRounds is long enough for the epoch to reach every node of the
// 20k overlay, so every position of every sweep and every neighbour draw
// lands in the hashed state (after three rounds a handful of nodes hold
// mass and most of a wrong permutation would go unseen).
const pinnedRounds = 20

// TestRoundStatePinned pins twenty rounds on a churned 20k overlay bit for
// bit — FNV-64a over what a run can observe of each node, whether it is
// a member of the epoch and, for a member, its sum and weight, plus the
// message total — to the output of the engine that mapped positions to
// node IDs inside Visit and visited one node at a time. Key resolution,
// block staging and the representation of membership must move none of
// it, at any shard count. The pins were taken with this hash from the
// epoch driver that still kept a separate epoch-tag vector.
func TestRoundStatePinned(t *testing.T) {
	pins := []struct {
		shards int
		hash   uint64
		msgs   uint64
	}{
		{1, 0x9a139307a4ed61ff, 400000},
		{4, 0x385fb3ac13f0833a, 400000},
		{16, 0x195116046789af05, 400000},
	}
	for _, pin := range pins {
		net := churnedNet(20000, 7)
		p := New(Config{RoundsPerEpoch: 50, Shards: pin.shards}, xrand.New(8))
		if err := p.StartEpoch(net); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < pinnedRounds; r++ {
			p.RunRound(net)
		}
		h := fnv.New64a()
		var b [8]byte
		for i, st := range p.State {
			if !p.Participant(graph.NodeID(i)) {
				h.Write([]byte{0})
				continue
			}
			h.Write([]byte{1})
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(st.sum))
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(st.weight))
			h.Write(b[:])
		}
		if got, msgs := h.Sum64(), net.Counter().Total(); got != pin.hash || msgs != pin.msgs {
			t.Errorf("shards=%d: state %#x msgs %d, pinned %#x and %d", pin.shards, got, msgs, pin.hash, pin.msgs)
		}
	}
}
