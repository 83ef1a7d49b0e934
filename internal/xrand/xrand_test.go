package xrand

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: streams diverged: %d != %d", i, x, y)
		}
	}
}

func TestSeedSeparation(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("nearby seeds produced %d identical 64-bit draws out of 1000", same)
	}
}

func TestReseed(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after reseed, draw %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(3)
	s := r.Split()
	// The parent and child streams must not be identical.
	same := 0
	for i := 0; i < 512; i++ {
		if r.Uint64() == s.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split stream repeated parent %d times", same)
	}
}

func TestSplitDeterminism(t *testing.T) {
	a := New(9).Split()
	b := New(9).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

// Generators built back to back are handed to estimators that draw on
// different cores; none may share a cache line with another.
func TestHeapGeneratorsOwnTheirCacheLine(t *testing.T) {
	r := New(1)
	gens := []*Rand{r, New(2), NewStream(3, 0), NewStream(3, 1), r.Split(), r.Split()}
	lines := make(map[uintptr]int)
	for i, g := range gens {
		line := uintptr(unsafe.Pointer(g)) / cacheLine
		if j, taken := lines[line]; taken {
			t.Fatalf("generators %d and %d share cache line %#x", j, i, line*cacheLine)
		}
		lines[line] = i
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(11)
	for _, n := range []uint64{1, 2, 3, 7, 8, 1000, 1 << 40} {
		for i := 0; i < 2000; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared test over 10 buckets; threshold is the 99.9% quantile of
	// chi2 with 9 degrees of freedom (27.88).
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.88 {
		t.Fatalf("Intn not uniform: chi2 = %.2f (counts %v)", chi2, counts)
	}
}

func TestIntRange(t *testing.T) {
	r := New(13)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.IntRange(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("IntRange(3,7) = %d", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 7; v++ {
		if !seen[v] {
			t.Fatalf("IntRange never produced %d", v)
		}
	}
	if got := r.IntRange(5, 5); got != 5 {
		t.Fatalf("IntRange(5,5) = %d", got)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(17)
	sum := 0.0
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
		sum += f
	}
	if mean := sum / 100000; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %g, want ~0.5", mean)
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	r := New(19)
	for i := 0; i < 200000; i++ {
		if f := r.Float64Open(); f <= 0 || f > 1 {
			t.Fatalf("Float64Open out of (0,1]: %g", f)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(23)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(29)
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.25) {
			hits++
		}
	}
	rate := float64(hits) / draws
	if math.Abs(rate-0.25) > 0.01 {
		t.Fatalf("Bernoulli(0.25) rate = %g", rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		p := New(seed).Perm(int(n))
		if len(p) != int(n) {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestShuffleOfIdentityIsPerm: shuffling an identity prefix in place
// draws and yields exactly what Perm does, so a caller may keep the
// index buffer (CYCLON's exchanges do).
func TestShuffleOfIdentityIsPerm(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for n := 0; n <= 20; n++ {
			a, b := New(seed), New(seed)
			want := a.Perm(n)
			got := make([]int, n)
			for i := range got {
				got[i] = i
			}
			Shuffle(b, got)
			if !slices.Equal(got, want) || *a != *b {
				t.Fatalf("seed %d n %d: Shuffle of the identity %v, Perm %v", seed, n, got, want)
			}
		}
	}
}

func TestShuffleFairness(t *testing.T) {
	// Over many shuffles of [0,1,2], each of the 6 permutations should
	// appear with frequency ~1/6.
	r := New(37)
	counts := map[[3]int]int{}
	const draws = 60000
	for i := 0; i < draws; i++ {
		a := [3]int{0, 1, 2}
		Shuffle(r, a[:])
		counts[a]++
	}
	if len(counts) != 6 {
		t.Fatalf("saw %d distinct permutations, want 6", len(counts))
	}
	for p, c := range counts {
		freq := float64(c) / draws
		if math.Abs(freq-1.0/6) > 0.01 {
			t.Fatalf("permutation %v frequency %g, want ~1/6", p, freq)
		}
	}
}

func TestUint64BitBalance(t *testing.T) {
	// Every bit position should be set roughly half the time.
	r := New(41)
	const draws = 20000
	var ones [64]int
	for i := 0; i < draws; i++ {
		v := r.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<b) != 0 {
				ones[b]++
			}
		}
	}
	for b, c := range ones {
		f := float64(c) / draws
		if f < 0.47 || f > 0.53 {
			t.Fatalf("bit %d set with frequency %g", b, f)
		}
	}
}

// TestSeedStream: seeding a generator in place gives NewStream's state,
// whatever state the generator held before.
func TestSeedStream(t *testing.T) {
	r := New(99)
	for s := uint64(0); s < 100; s++ {
		r.SeedStream(s/3, s)
		if *r != *NewStream(s/3, s) {
			t.Fatalf("SeedStream(%d, %d) differs from NewStream", s/3, s)
		}
		r.Uint64()
	}
}

func TestNewStreamDeterministicAndDistinct(t *testing.T) {
	a := NewStream(1, 7)
	b := NewStream(1, 7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same (seed, stream) diverged at draw %d", i)
		}
	}
	// Distinct streams, distinct seeds, and the additive-collision case
	// NewStream exists to prevent: (seed+1, s) vs (seed, s+1).
	pairs := [][2]*Rand{
		{NewStream(1, 0), NewStream(1, 1)},
		{NewStream(1, 0), NewStream(2, 0)},
		{NewStream(2, 7), NewStream(1, 8)},
		{NewStream(1, 0), New(1)},
	}
	for pi, p := range pairs {
		same := 0
		for i := 0; i < 64; i++ {
			if p[0].Uint64() == p[1].Uint64() {
				same++
			}
		}
		if same > 2 {
			t.Fatalf("pair %d: %d/64 identical draws; streams correlated", pi, same)
		}
	}
}
