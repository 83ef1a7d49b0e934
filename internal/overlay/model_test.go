package overlay_test

import (
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/model"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// TestJoinMatchesModel holds 2 000 joins on the paper's topology, with
// a random departure after every tenth, to the model's Join and
// RemoveNode — adjacency lists in order, the alive list, and the
// generator's next draw — at the inputs joins were once pinned at: 20k
// nodes, seeds 1 and 42.
func TestJoinMatchesModel(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		rng := xrand.New(seed)
		net := overlay.New(graph.Heterogeneous(20000, 10, rng), 10, nil)
		ref, refRng := model.FromGraph(net.Graph()), *rng
		for i := range 2000 {
			net.JoinRandomDegree(rng)
			ref.Join(10, &refRng)
			if i%10 == 9 {
				net.LeaveRandom(rng)
				id, _ := ref.RandomAlive(&refRng)
				ref.RemoveNode(id)
			}
		}
		if err := ref.Diff(net.Graph()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got, want := rng.Uint64(), refRng.Uint64(); got != want {
			t.Fatalf("seed %d: next draw %#x, model %#x", seed, got, want)
		}
		if err := net.Graph().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
