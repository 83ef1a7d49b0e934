package experiments

import (
	"math"
	"testing"

	"p2psize/internal/metrics"
)

// findSeries returns the named series of a figure, or nil.
func findSeries(fig *Figure, name string) *metrics.Series {
	for _, s := range fig.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

func seriesEqual(t *testing.T, a, b *metrics.Series) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("series %q length %d vs %d", a.Name, a.Len(), b.Len())
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) ||
			math.Float64bits(a.Y[i]) != math.Float64bits(b.Y[i]) {
			t.Fatalf("series %q diverges at point %d", a.Name, i)
		}
	}
}

// TestTraceIPFSLoads checks the embedded IPFS-calibrated trace decodes,
// validates, and matches its documented shape.
func TestTraceIPFSLoads(t *testing.T) {
	tr, err := loadIPFSTrace()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "ipfs" || tr.Initial != 1000 || tr.Horizon != 600 {
		t.Fatalf("trace shape changed: name %q initial %d horizon %g", tr.Name, tr.Initial, tr.Horizon)
	}
	if tr.Joins() < 3000 || tr.Leaves() < 3000 {
		t.Fatalf("trace too quiet: %d joins, %d leaves", tr.Joins(), tr.Leaves())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
