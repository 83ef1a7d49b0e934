package registry

import (
	"fmt"
	"math"
	"testing"

	"p2psize/internal/fault"
	"p2psize/internal/graph"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// TestDegenerateInputs runs every family on the overlays a run can
// degenerate to — none, one peer, two isolated peers, 50 peers that all
// left — under benign faults and under each fault taken to its limit:
// every message dropped, or all but 1e-16 of them (errors of the spec
// itself: drop stops at fault.MaxDrop), 99 % dropped, every peer
// silent, every peer lying by 1e308. The specs are set directly, as a
// library caller may; ParseSpec of each row's name must agree on which
// are invalid, and an invalid one (ApplyFaults refuses it) runs
// nothing. A valid one decorates the family through fault.Decorate.
// Every estimate returns an error or a finite size >= 0, and never
// panics.
func TestDegenerateInputs(t *testing.T) {
	emptied := testNet(50, 3).CloneCOW()
	for emptied.Size() > 0 {
		emptied.Leave(emptied.Graph().AliveAt(0))
	}
	overlays := map[string]func() *overlay.Network{
		"n=0":        func() *overlay.Network { return overlay.New(graph.New(0), 10, nil) },
		"n=1":        func() *overlay.Network { return overlay.New(graph.NewWithNodes(1), 10, nil) },
		"isolated 2": func() *overlay.Network { return overlay.New(graph.NewWithNodes(2), 10, nil) },
		"all left":   func() *overlay.Network { return emptied.CloneCOW() },
	}
	for _, d := range All() {
		for name, mk := range overlays {
			for _, row := range []struct {
				name string
				spec fault.Spec
			}{
				{"", fault.Spec{}},
				{"drop=1", fault.Spec{Drop: 1}},
				{"drop=0.9999999999999999", fault.Spec{Drop: 0.9999999999999999}},
				{"drop=0.99", fault.Spec{Drop: 0.99}},
				{"silent=1", fault.Spec{SilentFrac: 1}},
				{"lie=1e308@1", fault.Spec{LieScale: 1e308, LieFrac: 1}},
			} {
				t.Run(fmt.Sprintf("%s/%s/%s", d.Name, name, row.name), func(t *testing.T) {
					invalid := row.spec.Validate()
					if parsed, err := fault.ParseSpec(row.name); (err == nil) != (invalid == nil) || err == nil && parsed != row.spec {
						t.Fatalf("ParseSpec(%q) = %+v, %v; the row sets %+v", row.name, parsed, err, row.spec)
					}
					net := mk()
					e, err := d.Build(net, xrand.New(1), Options{SCL: 20, Rounds: 10})
					if err != nil || invalid != nil {
						return
					}
					if row.spec.Enabled() {
						e = fault.Decorate(e, fault.NewInjector(row.spec, xrand.New(2)))
					}
					for range 2 {
						if est, err := e.Estimate(net); err == nil && !(est >= 0 && !math.IsInf(est, 1)) {
							t.Fatalf("estimate %v with no error", est)
						}
					}
				})
			}
		}
	}
}
