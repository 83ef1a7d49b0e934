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
	if r.N() != 0 || r.Mean() != 0 || r.Variance() != 0 {
		t.Fatal("zero value not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d", r.N())
	}
	if !almostEqual(r.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %g", r.Mean())
	}
	// Population variance of this classic set is 4; unbiased = 32/7.
	if !almostEqual(r.Variance(), 32.0/7, 1e-12) {
		t.Fatalf("Variance = %g", r.Variance())
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("Min/Max = %g/%g", r.Min(), r.Max())
	}
	r.Reset()
	if r.N() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestRunningSingle(t *testing.T) {
	var r Running
	r.Add(3)
	if r.Variance() != 0 || r.StdDev() != 0 {
		t.Fatal("variance of single observation should be 0")
	}
	if r.Min() != 3 || r.Max() != 3 {
		t.Fatal("min/max of single observation")
	}
}

func TestRunningMergeMatchesSequential(t *testing.T) {
	check := func(seed uint64, split uint8) bool {
		rng := xrand.New(seed)
		n := 100
		k := int(split) % n
		var all, left, right Running
		for i := 0; i < n; i++ {
			x := rng.Norm(5, 3)
			all.Add(x)
			if i < k {
				left.Add(x)
			} else {
				right.Add(x)
			}
		}
		left.Merge(&right)
		return left.N() == all.N() &&
			almostEqual(left.Mean(), all.Mean(), 1e-9) &&
			almostEqual(left.Variance(), all.Variance(), 1e-9) &&
			left.Min() == all.Min() && left.Max() == all.Max()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRunningMergeEmpty(t *testing.T) {
	var a, b Running
	a.Add(1)
	a.Merge(&b) // merge empty into non-empty
	if a.N() != 1 {
		t.Fatal("merge with empty changed N")
	}
	b.Merge(&a) // merge non-empty into empty
	if b.N() != 1 || b.Mean() != 1 {
		t.Fatal("merge into empty failed")
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

func TestMedianMeanStdDev(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	if Median(xs) != 3 {
		t.Fatalf("Median = %g", Median(xs))
	}
	if !almostEqual(Mean(xs), 22, 1e-12) {
		t.Fatalf("Mean = %g", Mean(xs))
	}
	if Mean(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("empty/single degenerate cases")
	}
	if s := StdDev([]float64{2, 4}); !almostEqual(s, math.Sqrt2, 1e-12) {
		t.Fatalf("StdDev = %g", s)
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
