package experiments

import (
	"sync/atomic"
	"testing"

	"p2psize/internal/metrics"
	"p2psize/internal/transport"
)

// TestLoopbackTransportIdentity pins the transport seam's whole promise:
// installing a real Transport under every experiment overlay leaves the
// output byte-identical to the transport-free (simulated) path, across
// the same experiment coverage the worker-invariance suite uses — static
// runs per estimator, dynamic shapes, Table I, sharded sweeps, and the
// trace-driven monitors. The overlay meters BEFORE delivery and ignores
// delivery errors, so the frozen experiment checksums cannot depend on
// whether the bytes move in-process, over UDP, or not at all; this test
// is what keeps that a fact rather than an intention.
func TestLoopbackTransportIdentity(t *testing.T) {
	ids := []string{"fig01", "fig03", "fig05", "fig09", "fig12", "fig15", "table1",
		"trace-weibull", "trace-diurnal", "trace-flashcrowd", "trace-ipfs",
		"ext-cyclon",
		"static-new", "trace-ipfs-all"}
	if testing.Short() {
		ids = []string{"fig01", "fig12", "table1", "trace-flashcrowd",
			"fig05", "ext-cyclon", "static-new"}
	}
	lb := &countingTransport{Loopback: transport.NewLoopback()}
	defer lb.Close()
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			base, err := Run(id, idParams(t, id, 8))
			if err != nil {
				t.Fatal(err)
			}
			p := idParams(t, id, 8)
			p.Transport = lb
			wired, err := Run(id, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := figuresEqual(base, wired); err != nil {
				t.Fatalf("transport=nil vs transport=loopback: %v", err)
			}
		})
	}
	if lb.delivered.Load() == 0 {
		t.Fatal("loopback carried no traffic; the seam is not installed")
	}
}

// countingTransport counts what the overlay hands the loopback.
type countingTransport struct {
	*transport.Loopback
	delivered atomic.Uint64
}

func (c *countingTransport) Deliver(to transport.NodeID, kind metrics.Kind, count uint64) error {
	c.delivered.Add(count)
	return c.Loopback.Deliver(to, kind, count)
}
