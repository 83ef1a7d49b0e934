package experiments

import (
	"math"
	"strings"
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

// TestEstimatorSubsetKeepsSeries pins the registry's stream-offset
// contract end to end: selecting a subset of the monitored roster
// leaves both the replayed true-size curve and every still-selected
// estimator's series byte-identical to the full-roster run.
func TestEstimatorSubsetKeepsSeries(t *testing.T) {
	full, err := Run("trace-flashcrowd", determinismParams(0))
	if err != nil {
		t.Fatal(err)
	}
	p := determinismParams(0)
	p.Estimators = []string{"sc", "agg"} // aliases resolve too
	sub, err := Run("trace-flashcrowd", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Series) != 3 { // real size + two estimators
		t.Fatalf("subset figure has %d series, want 3", len(sub.Series))
	}
	for _, s := range sub.Series {
		ref := findSeries(full, s.Name)
		if ref == nil {
			t.Fatalf("subset series %q missing from the full run", s.Name)
		}
		seriesEqual(t, ref, s)
	}
}

func TestEstimatorSelectionErrors(t *testing.T) {
	p := determinismParams(0)
	p.Estimators = []string{"no-such-family"}
	if _, err := Run("trace-weibull", p); err == nil || !strings.Contains(err.Error(), "unknown estimator") {
		t.Fatalf("unknown estimator err = %v", err)
	}
	p.Estimators = []string{"idspace"}
	if _, err := Run("trace-weibull", p); err == nil || !strings.Contains(err.Error(), "does not support continuous monitoring") {
		t.Fatalf("snapshot-based estimator err = %v", err)
	}
	// A cadence override for a family outside the roster would silently
	// measure the wrong configuration; it must error instead.
	p = determinismParams(0)
	p.Estimators = []string{"sc", "hops"}
	p.Cadences = map[string]float64{"randomtour": 50}
	if _, err := Run("trace-weibull", p); err == nil || !strings.Contains(err.Error(), "not in the monitored roster") {
		t.Fatalf("orphan cadence override err = %v", err)
	}
}

// TestCadenceMixDeterminismAndTradeoff covers the per-estimator cadence
// plumbing through the experiments layer: a mixed-cadence run is
// byte-identical at workers 1, 2 and 8, and slowing one family's
// cadence cuts its message budget relative to the uniform run while
// leaving the other families' estimates untouched.
func TestCadenceMixDeterminismAndTradeoff(t *testing.T) {
	mixed := func(workers int) Params {
		p := determinismParams(workers)
		p.Cadences = map[string]float64{"aggregation": 5 * p.TraceCadence}
		return p
	}
	base, err := Run("trace-weibull", determinismParams(0))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run("trace-weibull", mixed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := Run("trace-weibull", mixed(workers))
		if err != nil {
			t.Fatal(err)
		}
		if err := figuresEqual(ref, got); err != nil {
			t.Fatalf("workers=1 vs workers=%d under mixed cadences: %v", workers, err)
		}
	}
	// Slowing Aggregation 5x must reduce total traffic (its epochs
	// dominate the budget) ...
	if ref.Messages >= base.Messages {
		t.Fatalf("slowing aggregation kept the message budget: %d vs %d", ref.Messages, base.Messages)
	}
	// ... and must not perturb the other families' series — they keep
	// their own streams and their own views.
	for _, s := range base.Series {
		if strings.Contains(strings.ToLower(s.Name), "aggregation") {
			continue
		}
		got := findSeries(ref, s.Name)
		if got == nil {
			t.Fatalf("series %q missing from the mixed-cadence run", s.Name)
		}
		seriesEqual(t, s, got)
	}
	// The cadence override is documented on the figure.
	found := false
	for _, n := range ref.Notes {
		if strings.Contains(n, "sampled every") {
			found = true
		}
	}
	if !found {
		t.Fatal("mixed-cadence run carries no cadence note")
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
