package stats

import (
	"math"
	"testing"
	"testing/quick"

	"p2psize/internal/xrand"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRunningBasics(t *testing.T) {
	var r Running
	if r.n != 0 || r.Mean() != 0 || r.Variance() != 0 {
		t.Fatal("zero value not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.n != 8 {
		t.Fatalf("n = %d", r.n)
	}
	if !almostEqual(r.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %g", r.Mean())
	}
	// Population variance of this classic set is 4; unbiased = 32/7.
	if !almostEqual(r.Variance(), 32.0/7, 1e-12) {
		t.Fatalf("Variance = %g", r.Variance())
	}
	if r.Max() != 9 {
		t.Fatalf("Max = %g", r.Max())
	}
	r.Reset()
	if r.n != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestRunningSingle(t *testing.T) {
	var r Running
	r.Add(3)
	if r.Variance() != 0 || r.StdDev() != 0 {
		t.Fatal("variance of single observation should be 0")
	}
	if r.Max() != 3 {
		t.Fatal("max of single observation")
	}
}

func TestWindowLastK(t *testing.T) {
	w := NewWindow(3)
	if w.Len() != 0 || w.Mean() != 0 {
		t.Fatal("fresh window not empty")
	}
	w.Add(1)
	w.Add(2)
	if w.Len() != 2 || !almostEqual(w.Mean(), 1.5, 1e-12) {
		t.Fatalf("partial window: len=%d mean=%g", w.Len(), w.Mean())
	}
	w.Add(3)
	w.Add(4) // evicts 1
	if w.Len() != 3 || !almostEqual(w.Mean(), 3, 1e-12) {
		t.Fatalf("full window: len=%d mean=%g", w.Len(), w.Mean())
	}
	vals := w.Values()
	if len(vals) != 3 || vals[0] != 2 || vals[1] != 3 || vals[2] != 4 {
		t.Fatalf("Values = %v", vals)
	}
	w.Reset()
	if w.Len() != 0 {
		t.Fatal("Reset did not clear window")
	}
}

func TestWindowLast10RunsSemantics(t *testing.T) {
	// The paper's last10runs heuristic: after 25 estimates, the smoothed
	// value is the mean of estimates 16..25.
	w := NewWindow(10)
	for i := 1; i <= 25; i++ {
		w.Add(float64(i))
	}
	if !almostEqual(w.Mean(), 20.5, 1e-12) {
		t.Fatalf("last10 mean = %g, want 20.5", w.Mean())
	}
}

func TestWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWindow(0) did not panic")
		}
	}()
	NewWindow(0)
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Fatalf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	// Input must not be reordered.
	if xs[0] != 5 {
		t.Fatal("Quantile modified its input")
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Fatalf("Quantile single = %g", got)
	}
	if got := Quantile([]float64{1, 2}, 0.5); !almostEqual(got, 1.5, 1e-12) {
		t.Fatalf("interpolated median = %g", got)
	}
}

func TestMedianMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	if Median(xs) != 3 {
		t.Fatalf("Median = %g", Median(xs))
	}
	if !almostEqual(Mean(xs), 22, 1e-12) {
		t.Fatalf("Mean = %g", Mean(xs))
	}
	if Mean(nil) != 0 {
		t.Fatal("empty degenerate case")
	}
}

func TestQualityPct(t *testing.T) {
	if got := QualityPct(95000, 100000); !almostEqual(got, 95, 1e-12) {
		t.Fatalf("QualityPct = %g", got)
	}
	if QualityPct(5, 0) != 0 {
		t.Fatal("QualityPct with zero truth should be 0")
	}
}

func TestQuantileProperties(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%40 + 1
		rng := xrand.New(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		q0, q5, q1 := Quantile(xs, 0), Quantile(xs, 0.5), Quantile(xs, 1)
		// Monotone in q, bounded by min/max.
		return q0 <= q5 && q5 <= q1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowMeanMatchesValues(t *testing.T) {
	check := func(seed uint64, kRaw, nRaw uint8) bool {
		k := int(kRaw)%10 + 1
		n := int(nRaw) % 50
		rng := xrand.New(seed)
		w := NewWindow(k)
		for i := 0; i < n; i++ {
			w.Add(rng.Float64())
		}
		return almostEqual(w.Mean(), Mean(w.Values()), 1e-9)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Values returns a copy of the held observations in insertion order
// (oldest first).
func (w *Window) Values() []float64 {
	n := w.Len()
	out := make([]float64, 0, n)
	if w.full {
		out = append(out, w.buf[w.next:]...)
	}
	out = append(out, w.buf[:w.next]...)
	return out
}

// Mean returns the arithmetic mean of xs (0 if empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
