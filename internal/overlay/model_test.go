package overlay_test

import (
	"fmt"
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
// nodes, seeds 1 and 42. The joins run on the built overlay itself and
// on a COW clone of it after a tenth of its peers left (page copies on
// first write, some lists shortened by the departures), whose base
// must not change.
func TestJoinMatchesModel(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		for _, cow := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/cow=%v", seed, cow), func(t *testing.T) {
				rng := xrand.New(seed)
				net := overlay.New(graph.Heterogeneous(20000, 10, rng), 10, nil)
				var trunk *graph.Graph
				var base *model.Graph
				if cow {
					for range 2000 {
						net.LeaveRandom(rng)
					}
					trunk, base = net.Graph(), model.FromGraph(net.Graph())
					net = net.CloneCOW()
				}
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
					t.Fatal(err)
				}
				if got, want := rng.Uint64(), refRng.Uint64(); got != want {
					t.Fatalf("next draw %#x, model %#x", got, want)
				}
				if err := net.Graph().CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if base != nil {
					if err := base.Diff(trunk); err != nil {
						t.Fatalf("base changed under its clone: %v", err)
					}
				}
			})
		}
	}
}
