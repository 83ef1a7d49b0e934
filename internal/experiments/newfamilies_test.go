package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestStaticNewFamiliesAccuracy(t *testing.T) {
	fig, err := staticNew(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d, want Sample&Collide + 3 new families", len(fig.Series))
	}
	// Every family's smoothed-free quality curve should live in a sane
	// band around 100% at this scale; the DHT and push-sum curves are
	// the tight ones, capture-recapture is the noisy one (~1/sqrt(m)).
	tol := map[string]float64{
		"Sample&collide":    30,
		"Push-sum":          10,
		"Capture-recapture": 80,
		"DHT density":       30,
	}
	for _, s := range fig.Series {
		band, ok := tol[s.Name]
		if !ok {
			t.Fatalf("unexpected series %q", s.Name)
		}
		sum := 0.0
		for _, q := range s.Y {
			sum += q
		}
		mean := sum / float64(s.Len())
		if math.Abs(mean-100) > band {
			t.Fatalf("%s mean quality %.1f%% outside 100±%.0f%%", s.Name, mean, band)
		}
	}
	if fig.Messages == 0 {
		t.Fatal("no messages metered")
	}
	found := false
	for _, n := range fig.Notes {
		if strings.Contains(n, "mean overhead") {
			found = true
		}
	}
	if !found {
		t.Fatal("per-family overhead notes missing")
	}
}

// TestTraceIPFSAllSideBySide pins the experiment's design guarantee:
// trace-ipfs-all runs on trace-ipfs's seed stream, so the true-size
// curve and every family the two experiments share are byte-identical —
// the new families land literally side by side with the original
// roster's series.
func TestTraceIPFSAllSideBySide(t *testing.T) {
	p := determinismParams(0)
	ref, err := Run("trace-ipfs", p)
	if err != nil {
		t.Fatal(err)
	}
	all, err := Run("trace-ipfs-all", p)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + len(monitoringRoster); len(all.Series) != want {
		t.Fatalf("trace-ipfs-all has %d series, want %d (truth + full roster)", len(all.Series), want)
	}
	for _, s := range ref.Series {
		got := findSeries(all, s.Name)
		if got == nil {
			t.Fatalf("trace-ipfs series %q missing from trace-ipfs-all", s.Name)
		}
		seriesEqual(t, s, got)
	}
	// And the three new families actually produced usable estimates.
	for _, name := range []string{"push-sum", "capture-recapture", "dht-density"} {
		found := false
		for _, s := range all.Series {
			if !strings.HasPrefix(s.Name, name) {
				continue
			}
			found = true
			usable := 0
			for _, y := range s.Y {
				if !math.IsNaN(y) {
					usable++
				}
			}
			if usable == 0 {
				t.Fatalf("%s produced no usable estimates", s.Name)
			}
		}
		if !found {
			t.Fatalf("no series for family %s", name)
		}
	}
}
