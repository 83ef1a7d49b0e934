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
// every message dropped (an error of the spec itself: drop stops short
// of 1), 99 % dropped, every peer silent, every peer lying by 1e308.
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
			for _, spec := range []string{"", "drop=1", "drop=0.99", "silent=1", "lie=1e308@1"} {
				t.Run(fmt.Sprintf("%s/%s/%s", d.Name, name, spec), func(t *testing.T) {
					faults, err := fault.ParseSpec(spec)
					if err != nil {
						return // the spec itself is the error (drop=1)
					}
					net := mk()
					e, err := d.Build(net, xrand.New(1), Options{SCL: 20, Rounds: 10, Faults: faults})
					if err != nil {
						return
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
