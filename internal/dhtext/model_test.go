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

// churnedNet returns hetNet(n, seed) on a COW clone after a fifth of
// its peers left and as many and one more joined.
func churnedNet(n int, seed uint64) *overlay.Network {
	net := hetNet(n, seed).CloneCOW()
	rng := xrand.New(seed + 100)
	for i := 0; i < n/5; i++ {
		net.LeaveRandom(rng)
	}
	for i := 0; i < n/5+1; i++ {
		net.JoinRandomDegree(rng)
	}
	return net
}

// matchesModel runs calls estimates of one estimator seeded with seed+7
// on a and of the model on b, and fails at the first call whose
// estimate differs in a bit, whose messages by kind differ, or after
// which the generators differ.
func matchesModel(t *testing.T, label string, a, b *overlay.Network, seed uint64, calls int) {
	t.Helper()
	e, ref := New(xrand.New(seed+7)), xrand.New(seed+7)
	salt := ref.Uint64()
	for call := 0; call < calls; call++ {
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

// TestOneSweepMatchesReference: per call, the one-sweep estimate equals
// the model's per-probe estimate bit for bit, meters the same messages
// by kind and leaves the generator in the same place — for k above,
// at and below n, n = 1 and 2, plain and churned overlays, with and without a fault
// policy on the meter.
func TestOneSweepMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, n := range []int{1, 2, 3, bucketK, bucketK + 1, 50, 5000} {
			for i, net := range []*overlay.Network{hetNet(n, seed), churnedNet(n, seed)} {
				for _, faulty := range []bool{false, true} {
					a, b := net.View(), net.View()
					if faulty {
						spec := fault.Spec{Drop: 0.1, NATFrac: 0.2}
						a.SetFaultPolicy(fault.NewInjector(spec, xrand.New(99)))
						b.SetFaultPolicy(fault.NewInjector(spec, xrand.New(99)))
					}
					matchesModel(t, fmt.Sprintf("seed=%d/n=%d/churned=%v/faults=%v", seed, n, i == 1, faulty), a, b, seed, 3)
				}
			}
		}
	}
}

// TestNarrowSweepMatchesReference holds the sweep's narrowed probes
// (prefixTable) to the model at the sizes where a k-th distance crosses
// 2^(64−prefixBits): rarely at 30k, where a probe narrowed one bit early
// still has identifiers left that it would wrongly refuse, for most
// probes by 100k and for all of them early in a 200k sweep. Plain and
// churned overlays. A probe left in the table would cost a later sweep
// time, never a result (it is offered identifiers its root refuses), so
// the table the sweeps hand back is checked to be empty.
func TestNarrowSweepMatchesReference(t *testing.T) {
	const seed = 4
	for _, n := range []int{30_000, 60_000, 100_000, 200_000} {
		for i, net := range []*overlay.Network{hetNet(n, seed), churnedNet(n, seed)} {
			label := fmt.Sprintf("n=%d/churned=%v", n, i == 1)
			matchesModel(t, label, net.View(), net.View(), seed, 2)
			if tbl, ok := idle.Get(0); !ok || *tbl != (prefixTable{}) {
				t.Fatalf("%s: no table handed back, or probes left in it", label)
			} else {
				idle.Put(tbl)
			}
		}
	}
}
