// Package xrand provides a deterministic, splittable pseudo-random number
// generator and the sampling distributions used throughout the simulator.
//
// The simulator must be reproducible: every experiment is parameterized by
// a single seed, and re-running it yields byte-identical series. The
// standard library's global math/rand source is deliberately avoided; each
// simulation component owns an independent *Rand stream derived from the
// experiment seed via Split, so adding randomness to one component never
// perturbs the draws seen by another.
//
// The core generator is PCG-XSL-RR 128/64 (the permuted congruential
// generator of O'Neill, same family as Go's math/rand/v2 PCG), implemented
// on top of math/bits 128-bit arithmetic.
package xrand

import "math/bits"

// 128-bit LCG multiplier used by PCG-XSL-RR 128/64.
const (
	mulHi = 0x2360ed051fc65da4
	mulLo = 0x4385df649fccf645

	incHi = 0x5851f42d4c957f2d
	incLo = 0x14057b7ef767814f
)

// Rand is a PCG-XSL-RR 128/64 pseudo-random number generator.
// It is not safe for concurrent use; derive per-goroutine streams
// with Split instead of sharing one instance.
type Rand struct {
	hi, lo uint64
}

// cacheLine is the granule at which cores invalidate each other's
// writes on the machines the simulator runs on.
const cacheLine = 64

// alloc returns a heap generator that shares its cache line with no
// other: the state heads an object one line long, so two generators
// are never less than a line apart. A bare 16-byte Rand shares its
// line with up to three neighbours — typically the generators of the
// estimators built right after it — and once the owners draw on
// different cores the line bounces between them at every draw, by an
// amount that depends on where the heap happened to put them in that
// process.
func alloc(hi, lo uint64) *Rand {
	p := &struct {
		Rand
		_ [cacheLine - 16]byte
	}{Rand: Rand{hi: hi, lo: lo}}
	return &p.Rand
}

// New returns a generator seeded with seed. Two generators built from the
// same seed produce identical streams.
func New(seed uint64) *Rand {
	r := alloc(0, 0)
	r.Seed(seed)
	return r
}

// Seed resets the generator to the deterministic state derived from seed.
func (r *Rand) Seed(seed uint64) {
	// Mix the seed through SplitMix64 twice so that close seeds
	// (0, 1, 2, ...) yield unrelated initial states.
	r.hi = splitmix64(seed)
	r.lo = splitmix64(seed + 0x9e3779b97f4a7c15)
	// Advance a few steps so the first outputs are already well mixed.
	r.Uint64()
	r.Uint64()
}

// NewStream returns a generator for the (seed, stream) pair. Unlike
// additive seeding (New(seed + i), where streams of nearby experiments
// can collide), both words are mixed through SplitMix64 independently, so
// every pair yields an unrelated state. Parallel experiment runs derive
// one stream per run index this way: the draws of run i are fixed by
// (seed, i) alone, independent of worker count and scheduling.
func NewStream(seed, stream uint64) *Rand {
	r := alloc(0, 0)
	r.SeedStream(seed, stream)
	return r
}

// SeedStream resets r to NewStream(seed, stream)'s state in place, so a
// generator on the stack costs no allocation per stream.
func (r *Rand) SeedStream(seed, stream uint64) {
	r.hi = splitmix64(seed ^ splitmix64(stream+0x632be59bd9b4e019))
	r.lo = splitmix64(seed + 0x9e3779b97f4a7c15 + splitmix64(stream))
	r.Uint64()
	r.Uint64()
}

// splitmix64 is the finalizer of the SplitMix64 generator; it is used only
// for seeding and splitting.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	// state = state*mul + inc  (128-bit arithmetic)
	hi, lo := bits.Mul64(r.lo, mulLo)
	hi += r.hi*mulLo + r.lo*mulHi
	lo, c := bits.Add64(lo, incLo, 0)
	hi, _ = bits.Add64(hi, incHi, c)
	r.hi, r.lo = hi, lo
	// XSL-RR output permutation.
	return bits.RotateLeft64(hi^lo, -int(hi>>58))
}

// Split returns a new generator whose stream is statistically independent
// of r's. It draws entropy from r, so Split is itself deterministic.
func (r *Rand) Split() *Rand {
	hi := splitmix64(r.Uint64())
	s := alloc(hi, splitmix64(r.Uint64()))
	s.Uint64()
	return s
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
//
// A power-of-two n keeps the low bits of one Uint64; any other n takes
// the high word of that draw times n (Lemire's multiply-shift), redrawn
// while the low word falls under (2⁶⁴ − n) mod n to avoid modulo bias.
// Both candidates come from the same draw and the power-of-two one is
// selected without a data-dependent branch (a conditional move), so a
// loop over mixed small bounds — node degrees — pays no misprediction;
// the values are the ones a test-and-branch on n would return.
// The redraw is out of line: it needs a low word under n, which happens
// with probability n/2⁶⁴ — next to never at the bounds the simulator
// draws.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	x := r.Uint64()
	hi, lo := bits.Mul64(x, n)
	pow2 := n&(n-1) == 0
	if lo < n && !pow2 {
		return r.redraw(hi, lo, n)
	}
	if pow2 {
		hi = x & (n - 1)
	}
	return hi
}

// redraw finishes Uint64n's rejection step for a bound n that is not a
// power of two, given the first draw's product words.
func (r *Rand) redraw(hi, lo, n uint64) uint64 {
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(r.Uint64(), n)
	}
	return hi
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// IntRange returns a uniform int in [lo, hi] inclusive. It panics if hi < lo.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in the open interval (0, 1],
// suitable for passing to math.Log without a zero-argument hazard.
func (r *Rand) Float64Open() float64 {
	return openUnit(r.Uint64())
}

// openUnit maps a draw onto (0, 1] the way Float64Open does.
func openUnit(x uint64) float64 {
	return (float64(x>>11) + 1) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Shuffle permutes s in place by Fisher–Yates: for i = len(s)−1 down
// to 1 it swaps s[i] with s[r.Intn(i+1)]. It is the one shuffle in the
// simulator — the round engine's sweep orders, SampleK and Perm all use
// it — and it swaps the elements itself, with no call per element.
func Shuffle[T any](r *Rand, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	Shuffle(r, p)
	return p
}
