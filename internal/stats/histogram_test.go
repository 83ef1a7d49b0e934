package stats

import (
	"testing"
	"testing/quick"

	"p2psize/internal/xrand"
)

func TestIntHistogramBasics(t *testing.T) {
	var h IntHistogram
	if h.total != 0 || h.Max() != -1 || h.Mean() != 0 {
		t.Fatal("zero value not empty")
	}
	for _, v := range []int{1, 3, 3, 7} {
		h.Add(v)
	}
	if h.total != 4 {
		t.Fatalf("total = %d", h.total)
	}
	if h.Count(3) != 2 || h.Count(1) != 1 || h.Count(0) != 0 || h.Count(100) != 0 {
		t.Fatal("counts wrong")
	}
	if h.Max() != 7 {
		t.Fatalf("Max = %d", h.Max())
	}
	if !almostEqual(h.Mean(), 3.5, 1e-12) {
		t.Fatalf("Mean = %g", h.Mean())
	}
	if h.Count(-1) != 0 {
		t.Fatal("negative Count should be 0")
	}
}

func TestIntHistogramAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var h IntHistogram
	h.Add(-1)
}

func TestIntHistogramNonZero(t *testing.T) {
	var h IntHistogram
	h.Add(2)
	h.Add(2)
	h.Add(5)
	values, counts := h.NonZero()
	if len(values) != 2 || values[0] != 2 || values[1] != 5 {
		t.Fatalf("values = %v", values)
	}
	if counts[0] != 2 || counts[1] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestIntHistogramCCDF(t *testing.T) {
	var h IntHistogram
	for _, v := range []int{1, 2, 2, 4} {
		h.Add(v)
	}
	values, frac := h.CCDF()
	// P(X>=1)=1, P(X>=2)=0.75, P(X>=4)=0.25
	want := map[int]float64{1: 1, 2: 0.75, 4: 0.25}
	for i, v := range values {
		if !almostEqual(frac[i], want[v], 1e-12) {
			t.Fatalf("CCDF(%d) = %g, want %g", v, frac[i], want[v])
		}
	}
	var empty IntHistogram
	if v, f := empty.CCDF(); v != nil || f != nil {
		t.Fatal("empty CCDF should be nil")
	}
}

func TestIntHistogramCCDFMonotone(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		rng := xrand.New(seed)
		var h IntHistogram
		for i := 0; i < int(nRaw)+1; i++ {
			h.Add(rng.Intn(20))
		}
		_, frac := h.CCDF()
		for i := 1; i < len(frac); i++ {
			if frac[i] > frac[i-1] {
				return false
			}
		}
		return len(frac) == 0 || almostEqual(frac[0], 1, 1e-12) == (h.Count(0) > 0 || frac[0] == 1)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Count returns the number of occurrences of v (0 if never seen).
func (h *IntHistogram) Count(v int) int {
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v]
}
