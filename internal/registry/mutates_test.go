package registry

import (
	"fmt"
	"math"
	"testing"

	"p2psize/internal/core"
	"p2psize/internal/fault"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/xrand"
)

// plainEstimator implements only the bare core.Estimator contract.
type plainEstimator struct{}

func (plainEstimator) Name() string                               { return "plain" }
func (plainEstimator) Estimate(*overlay.Network) (float64, error) { return 1, nil }

func TestUnknownEstimatorIsConservativelyMutating(t *testing.T) {
	if !core.MutatesOverlay(plainEstimator{}) {
		t.Fatal("an estimator without the OverlayMutator declaration must count as mutating")
	}
}

// TestTrunkEveryFamilyOnlyReads: every registered family, plain and
// under the fault layer (drop=0.05), estimates concurrently at eight
// workers, each on its own view of one fresh copy-on-write trunk — the
// layout of every monitoring run, declared mutators included.
// Afterwards the trunk still shares every page with its base, so no
// estimate wrote it, and every estimate and message count equals the
// sequential run's.
func TestTrunkEveryFamilyOnlyReads(t *testing.T) {
	const n = 2000
	drop, err := fault.ParseSpec("drop=0.05")
	if err != nil {
		t.Fatal(err)
	}
	base := testNet(n, 8)
	run := func(workers int) []outcome {
		trunk := base.CloneCOW()
		var ests []core.Estimator
		for _, d := range All() {
			for _, faults := range []fault.Spec{{}, drop} {
				e, err := d.Build(trunk, xrand.New(d.StreamOffset+9), Options{SCL: 20, Rounds: 20, Workers: 1})
				if err != nil {
					t.Fatalf("%s: %v", d.Name, err)
				}
				if faults.Enabled() {
					e = fault.Decorate(e, fault.NewInjector(faults, xrand.New(d.StreamOffset+5009)))
				}
				ests = append(ests, e)
			}
		}
		out, err := parallel.Map(workers, len(ests), func(k int) (outcome, error) {
			return estimate(ests[k], trunk), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if shared, total := trunk.Graph().SharedPages(), trunk.Graph().TotalPages(); shared != total {
			t.Fatalf("workers=%d: the trunk owns %d of its %d pages after the estimates", workers, total-shared, total)
		}
		return out
	}
	want, got := run(1), run(8)
	for k := range want {
		w, g := want[k], got[k]
		if math.Float64bits(g.est) != math.Float64bits(w.est) || fmt.Sprint(g.err) != fmt.Sprint(w.err) || g.msgs != w.msgs {
			t.Fatalf("estimate %d at 8 workers: %v (%v, %v messages), sequentially %v (%v, %v)",
				k, g.est, g.err, &g.msgs, w.est, w.err, &w.msgs)
		}
	}
}
