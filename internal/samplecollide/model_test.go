package samplecollide

import (
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/model"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// natPolicy puts every fifth peer behind a NAT and is otherwise benign.
type natPolicy struct{}

func (natPolicy) OnSend(metrics.Kind, uint64) uint64 { return 0 }
func (natPolicy) DropProb() float64                  { return 0 }
func (natPolicy) ReportScale(graph.NodeID) float64   { return 1 }
func (natPolicy) Unreachable(id graph.NodeID) bool   { return id%5 == 0 }

// TestSampleMatchesReference: on heterogeneous, ring and scale-free
// overlays, each with and without NAT-limited peers, Sample returns the
// node of the model's walk with the literal t -= Exp(degree) timer,
// meters the same messages by kind, and leaves the generator where the
// model does — at the paper's T and at a T short enough that most walks
// end on their first hop.
func TestSampleMatchesReference(t *testing.T) {
	overlays := []struct {
		name string
		net  *overlay.Network
	}{
		{"heterogeneous", hetNet(2000, 31)},
		{"ring", overlay.New(graph.Ring(300), 2, nil)},
		{"scale-free", overlay.New(graph.BarabasiAlbert(2000, 3, xrand.New(32)), 10, nil)},
	}
	for _, o := range overlays {
		for _, nat := range []bool{false, true} {
			a, b := o.net.View(), o.net.View()
			if nat {
				a.SetFaultPolicy(natPolicy{})
				b.SetFaultPolicy(natPolicy{})
			}
			for _, T := range []float64{10, 0.05} {
				rng, ref := xrand.New(33), xrand.New(33)
				hop := func(cur, next graph.NodeID) graph.NodeID {
					next = b.NATHop(graph.None, cur, next, ref)
					b.SendTo(next, metrics.KindWalk)
					return next
				}
				e := New(Config{T: T, L: 1}, rng)
				g := o.net.Graph()
				for i := 0; i < 1000; i++ {
					from := g.AliveAt(i % g.NumAlive())
					got, err := e.Sample(a, from)
					if err != nil {
						t.Fatal(err)
					}
					want, _ := model.Walk(b, from, T, ref, hop)
					b.SendTo(from, metrics.KindSampleReturn)
					if got != want {
						t.Fatalf("%s nat=%v T=%g sample %d: got node %d, model %d", o.name, nat, T, i, got, want)
					}
					if *rng != *ref {
						t.Fatalf("%s nat=%v T=%g sample %d: generator left elsewhere than the model's", o.name, nat, T, i)
					}
				}
				if *a.Counter() != *b.Counter() {
					t.Fatalf("%s nat=%v T=%g: metered %v, model %v", o.name, nat, T, a.Counter(), b.Counter())
				}
			}
		}
	}
}
