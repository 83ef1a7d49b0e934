package dhtext

import (
	"fmt"
	"math"
	"testing"

	"p2psize/internal/fault"
	"p2psize/internal/model"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// TestOneSweepMatchesReference: per call, the one-sweep estimate equals
// the model's per-probe estimate bit for bit, meters the same messages
// by kind and leaves the generator in the same place — for k above,
// at and below n, n = 1 and 2, plain and churned overlays, with and without a fault
// policy on the meter.
func TestOneSweepMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, n := range []int{1, 2, 3, bucketK, bucketK + 1, 50, 5000} {
			churned := hetNet(n, seed).CloneCOW()
			rng := xrand.New(seed + 100)
			for i := 0; i < n/5; i++ {
				churned.LeaveRandom(rng)
			}
			for i := 0; i < n/5+1; i++ {
				churned.JoinRandomDegree(rng)
			}
			for i, net := range []*overlay.Network{hetNet(n, seed), churned} {
				for _, faulty := range []bool{false, true} {
					label := fmt.Sprintf("seed=%d/n=%d/churned=%v/faults=%v", seed, n, i == 1, faulty)
					a, b := net.View(), net.View()
					if faulty {
						spec := fault.Spec{Drop: 0.1, NATFrac: 0.2}
						a.SetFaultPolicy(fault.NewInjector(spec, xrand.New(99)))
						b.SetFaultPolicy(fault.NewInjector(spec, xrand.New(99)))
					}
					e, ref := New(xrand.New(seed+7)), xrand.New(seed+7)
					salt := ref.Uint64()
					for call := 0; call < 3; call++ {
						est, err := e.Estimate(a)
						want, ok := model.DHT(b, salt, bucketK, lookups, ref)
						if err != nil || !ok || math.Float64bits(est) != math.Float64bits(want) {
							t.Fatalf("%s/call=%d: one sweep %v (%v), model %v", label, call, est, err, want)
						}
						if math.IsNaN(est) || math.IsInf(est, 0) || est <= 0 {
							t.Fatalf("%s/call=%d: estimate %v", label, call, est)
						}
						if a.Counter().Snapshot() != b.Counter().Snapshot() {
							t.Fatalf("%s/call=%d: messages %v, model %v", label, call, a.Counter(), b.Counter())
						}
						if *e.rng != *ref {
							t.Fatalf("%s/call=%d: generators diverged", label, call)
						}
					}
				}
			}
		}
	}
}
