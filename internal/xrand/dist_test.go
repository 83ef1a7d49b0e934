package xrand

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestExpMean(t *testing.T) {
	r := New(101)
	for _, lambda := range []float64{0.5, 1, 2, 10} {
		sum := 0.0
		const draws = 200000
		for i := 0; i < draws; i++ {
			v := r.Exp(lambda)
			if v < 0 {
				t.Fatalf("Exp(%g) returned negative %g", lambda, v)
			}
			sum += v
		}
		mean := sum / draws
		want := 1 / lambda
		if math.Abs(mean-want) > 0.05*want {
			t.Fatalf("Exp(%g) mean = %g, want ~%g", lambda, mean, want)
		}
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestNormMoments(t *testing.T) {
	r := New(107)
	const draws = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < draws; i++ {
		v := r.Norm(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Norm mean = %g, want ~10", mean)
	}
	if math.Abs(variance-4) > 0.2 {
		t.Fatalf("Norm variance = %g, want ~4", variance)
	}
}

func TestSampleKDistinct(t *testing.T) {
	check := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%50 + 1
		k := int(kRaw) % (n + 1)
		s := New(seed).SampleK(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// refSampleK is SampleK with the map-based seen set it had before the
// flat bitset.
func refSampleK(r *Rand, n, k int) []int {
	seen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := seen[t]; dup {
			t = j
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	refShuffle(r, out)
	return out
}

// TestSampleKReference: the bitset draws the sample the map drew, in
// the same order, and leaves the generator where the map left it, for
// k of 0, 1, n/2 and n on either side of a bitset word.
func TestSampleKReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 63, 64, 65, 1000, 4097} {
		for _, k := range []int{0, min(1, n), n / 2, n} {
			for seed := uint64(1); seed <= 5; seed++ {
				got, want := New(seed), New(seed)
				if g, w := got.SampleK(n, k), refSampleK(want, n, k); !slices.Equal(g, w) {
					t.Fatalf("SampleK(%d, %d) seed %d = %v, reference %v", n, k, seed, g, w)
				}
				if *got != *want {
					t.Fatalf("SampleK(%d, %d) seed %d: generator state differs from the reference's", n, k, seed)
				}
			}
		}
	}
}

func TestSampleKFull(t *testing.T) {
	s := New(1).SampleK(10, 10)
	seen := make([]bool, 10)
	for _, v := range s {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("SampleK(10,10) missed %d", i)
		}
	}
}

func TestSampleKUniform(t *testing.T) {
	// Each of 10 items should appear in a size-3 sample with prob 3/10.
	r := New(117)
	counts := make([]int, 10)
	const draws = 50000
	for i := 0; i < draws; i++ {
		for _, v := range r.SampleK(10, 3) {
			counts[v]++
		}
	}
	for i, c := range counts {
		f := float64(c) / draws
		if math.Abs(f-0.3) > 0.02 {
			t.Fatalf("item %d inclusion frequency %g, want ~0.3", i, f)
		}
	}
}

func TestWeibullMean(t *testing.T) {
	r := New(107)
	for _, c := range []struct{ shape, scale float64 }{
		{0.5, 100}, {1, 50}, {2, 10},
	} {
		sum := 0.0
		const draws = 200000
		for i := 0; i < draws; i++ {
			v := r.Weibull(c.shape, c.scale)
			if v < 0 {
				t.Fatalf("Weibull(%g,%g) returned negative %g", c.shape, c.scale, v)
			}
			sum += v
		}
		mean := sum / draws
		want := c.scale * math.Gamma(1+1/c.shape)
		if math.Abs(mean-want) > 0.05*want {
			t.Fatalf("Weibull(%g,%g) mean = %g, want ~%g", c.shape, c.scale, mean, want)
		}
	}
}

func TestLogNormalMean(t *testing.T) {
	r := New(109)
	mu, sigma := 2.0, 0.5
	sum := 0.0
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := r.LogNormal(mu, sigma)
		if v <= 0 {
			t.Fatalf("LogNormal returned non-positive %g", v)
		}
		sum += v
	}
	mean := sum / draws
	want := math.Exp(mu + sigma*sigma/2)
	if math.Abs(mean-want) > 0.05*want {
		t.Fatalf("LogNormal(%g,%g) mean = %g, want ~%g", mu, sigma, mean, want)
	}
}

func TestParetoMeanAndSupport(t *testing.T) {
	r := New(111)
	xm, alpha := 10.0, 2.5
	sum := 0.0
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := r.Pareto(xm, alpha)
		if v < xm {
			t.Fatalf("Pareto(%g,%g) returned %g below the minimum", xm, alpha, v)
		}
		sum += v
	}
	mean := sum / draws
	want := alpha * xm / (alpha - 1)
	if math.Abs(mean-want) > 0.05*want {
		t.Fatalf("Pareto(%g,%g) mean = %g, want ~%g", xm, alpha, mean, want)
	}
}

func TestHeavyTailPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Weibull":   func() { New(1).Weibull(0, 1) },
		"LogNormal": func() { New(1).LogNormal(0, 0) },
		"Pareto":    func() { New(1).Pareto(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with invalid parameters did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Intn(1000003)
	}
	_ = sink
}

// BenchmarkUint64nMixed draws under the degree mix of the walks and
// the gossip rounds: bounds 1–10, four of them powers of two, drawn in
// advance in a table too long for a branch predictor to learn.
func BenchmarkUint64nMixed(b *testing.B) {
	pre := New(2)
	bounds := make([]uint8, 1<<16)
	for i := range bounds {
		bounds[i] = uint8(1 + pre.Intn(10))
	}
	r := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drawSink += r.Uint64n(uint64(bounds[i&(len(bounds)-1)]))
	}
}

// drawSink keeps the benchmarked draws live.
var drawSink uint64

// BenchmarkShuffleInt32 shuffles a million-key sweep order, the engine's
// per-round serial shuffle at 1M nodes.
func BenchmarkShuffleInt32(b *testing.B) {
	s := make([]int32, 1<<20)
	for i := range s {
		s[i] = int32(i)
	}
	r := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Shuffle(r, s)
	}
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Exp(7.2)
	}
	_ = sink
}
