package xrand

import (
	"math"
	"testing"
)

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntRange(5, 4) did not panic")
		}
	}()
	New(1).IntRange(5, 4)
}

func TestUint64nPowerOfTwoPath(t *testing.T) {
	r := New(205)
	for i := 0; i < 10000; i++ {
		if v := r.Uint64n(16); v >= 16 {
			t.Fatalf("Uint64n(16) = %d", v)
		}
	}
	// Tiny modulus exercises the rejection threshold loop.
	counts := make([]int, 3)
	for i := 0; i < 90000; i++ {
		counts[r.Uint64n(3)]++
	}
	for v, c := range counts {
		if f := float64(c) / 90000; math.Abs(f-1.0/3) > 0.01 {
			t.Fatalf("Uint64n(3) value %d frequency %g", v, f)
		}
	}
}

func TestSampleKPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"k<0": func() { New(1).SampleK(5, -1) },
		"k>n": func() { New(1).SampleK(5, 6) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
	if got := New(2).SampleK(5, 0); len(got) != 0 {
		t.Fatalf("SampleK(5,0) = %v", got)
	}
}

// A NaN parameter is not positive, so each distribution panics on it
// as it does on zero, instead of returning NaN draws.
func TestExpRejectsNaN(t *testing.T) {
	mustPanic(t, "Exp(NaN)", func() { New(1).Exp(math.NaN()) })
}

func TestWeibullRejectsNaN(t *testing.T) {
	mustPanic(t, "Weibull(NaN, 1)", func() { New(1).Weibull(math.NaN(), 1) })
	mustPanic(t, "Weibull(1, NaN)", func() { New(1).Weibull(1, math.NaN()) })
}

func TestParetoRejectsNaN(t *testing.T) {
	mustPanic(t, "Pareto(NaN, 1)", func() { New(1).Pareto(math.NaN(), 1) })
	mustPanic(t, "Pareto(1, NaN)", func() { New(1).Pareto(1, math.NaN()) })
}

func TestLogNormalRejectsNaN(t *testing.T) {
	mustPanic(t, "LogNormal(0, NaN)", func() { New(1).LogNormal(0, math.NaN()) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	fn()
}
