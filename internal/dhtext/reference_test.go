package dhtext

import (
	"fmt"
	"math"
	"testing"

	"p2psize/internal/fault"
	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// refEstimate is the per-probe estimate, kept verbatim as the reference
// the one-sweep estimate must match: each probe draws its target, then
// re-hashes every alive identifier into its own heap (refKthClosest),
// then routes and meters.
func refEstimate(e *Estimator, net *overlay.Network) (float64, error) {
	g := net.Graph()
	n := g.NumAlive()
	if n == 0 {
		return 0, ErrEmptyOverlay
	}
	k := e.cfg.K
	if k > n {
		k = n
	}
	if k < 2 {
		net.Send(metrics.KindWalk)
		return float64(n), nil
	}
	sum := 0.0
	var scratch []uint64
	for p := 0; p < e.cfg.Probes; p++ {
		target := e.rng.Uint64()
		dk := refKthClosest(e, g, target, k, &scratch)
		d := e.id64(start(g, target, n)) ^ target
		hops := 0
		for d > dk && hops < 64 {
			net.Send(metrics.KindWalk)
			d >>= 1
			hops++
		}
		if hops == 0 {
			net.Send(metrics.KindWalk)
		}
		net.SendN(metrics.KindReply, uint64(k))
		sum += float64(k-1) * math.Ldexp(1, 64) / float64(dk)
	}
	return sum / float64(e.cfg.Probes), nil
}

// refKthClosest is one probe's sweep: the k-th smallest XOR distance
// from target to any alive identifier, through a size-k max-heap.
func refKthClosest(e *Estimator, g *graph.Graph, target uint64, k int, scratch *[]uint64) uint64 {
	h := (*scratch)[:0]
	for i := 0; i < g.NumAlive(); i++ {
		d := e.id64(g.AliveAt(i)) ^ target
		if len(h) < k {
			h = append(h, d)
			siftUp(h, len(h)-1)
		} else if d < h[0] {
			h[0] = d
			siftDown(h, 0)
		}
	}
	*scratch = h
	return h[0]
}

// TestOneSweepMatchesReference: per call, the one-sweep estimate equals
// the per-probe reference bit for bit, meters the same messages by kind
// and leaves the generator in the same place — for 1 and 16 probes, k
// above n, n = 1 and 2, plain and churned overlays, with and without a
// fault policy on the meter.
func TestOneSweepMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, n := range []int{1, 2, 3, 50, 5000} {
			plain := hetNet(n, seed)
			churned := hetNet(n, seed).CloneCOW()
			rng := xrand.New(seed + 100)
			for i := 0; i < n/5; i++ {
				churned.LeaveRandom(rng)
			}
			for i := 0; i < n/5+1; i++ {
				churned.JoinRandomDegree(rng)
			}
			for name, net := range map[string]*overlay.Network{"plain": plain, "cow-churned": churned} {
				for _, cfg := range []Config{Default(), {K: 20, Probes: 1}, {K: 2, Probes: 16}, {K: 60, Probes: 3}} {
					for _, faulty := range []bool{false, true} {
						label := fmt.Sprintf("seed=%d/n=%d/%s/%+v/faults=%v", seed, n, name, cfg, faulty)
						a, b := net.View(), net.View()
						if faulty {
							spec := fault.Spec{Drop: 0.1, NATFrac: 0.2}
							a.SetFaultPolicy(fault.NewInjector(spec, xrand.New(99)))
							b.SetFaultPolicy(fault.NewInjector(spec, xrand.New(99)))
						}
						e, ref := New(cfg, xrand.New(seed+7)), New(cfg, xrand.New(seed+7))
						for call := 0; call < 3; call++ {
							est, err := e.Estimate(a)
							rest, rerr := refEstimate(ref, b)
							if err != rerr || math.Float64bits(est) != math.Float64bits(rest) {
								t.Fatalf("%s/call=%d: one sweep %v (%v), reference %v (%v)", label, call, est, err, rest, rerr)
							}
							if math.IsNaN(est) || math.IsInf(est, 0) || est <= 0 {
								t.Fatalf("%s/call=%d: estimate %v", label, call, est)
							}
							if a.Counter().Snapshot() != b.Counter().Snapshot() {
								t.Fatalf("%s/call=%d: messages %v, reference %v", label, call, a.Counter(), b.Counter())
							}
							if *e.rng != *ref.rng {
								t.Fatalf("%s/call=%d: generators diverged", label, call)
							}
						}
					}
				}
			}
		}
	}
}

// TestDegenerateInputs: a clone all but one peer left, and one emptied,
// give a finite estimate or an error — never a panic or a NaN.
func TestDegenerateInputs(t *testing.T) {
	net := hetNet(300, 43).CloneCOW()
	rng := xrand.New(44)
	e := New(Default(), xrand.New(45))
	for net.Size() > 0 {
		est, err := e.Estimate(net)
		if err != nil || math.IsNaN(est) || math.IsInf(est, 0) || est <= 0 {
			t.Fatalf("n=%d: estimate %v err %v", net.Size(), est, err)
		}
		if net.Size() == 1 {
			net.Leave(net.Graph().AliveAt(0))
		} else {
			net.LeaveRandom(rng)
		}
	}
	if _, err := e.Estimate(net); err != ErrEmptyOverlay {
		t.Fatalf("emptied clone: err %v, want ErrEmptyOverlay", err)
	}
}
