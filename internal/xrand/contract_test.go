package xrand

import (
	"math/bits"
	"slices"
	"testing"
)

// refUint64n is the bounded-draw contract spelled out: a power-of-two
// bound keeps the low bits of one Uint64, any other bound takes the
// high word of x·n (Lemire) and redraws while the low word falls under
// (2⁶⁴ − n) mod n. It also returns how many Uint64 draws it consumed.
func refUint64n(r *Rand, n uint64) (v uint64, draws int) {
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1), 1
	}
	for {
		draws++
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= -n%n {
			return hi, draws
		}
	}
}

// contractBounds mixes the degree bounds the walks draw (1–10), powers
// of two whose low word often falls under n (2⁶², 2⁶³), and bounds
// whose rejection rate is a quarter to a half (3·2⁶², 2⁶³+1).
var contractBounds = []uint64{
	1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1000, 1 << 20, 1<<20 + 1,
	1 << 62, 1 << 63, 3 << 62, 1<<63 + 1, 1<<64 - 1,
}

// TestUint64nContract: on a cloned generator, Uint64n returns the
// reference's value and leaves the generator exactly where the
// reference did, so it consumed the same draws.
func TestUint64nContract(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := New(seed)
		for i := 0; i < 500; i++ {
			for _, n := range contractBounds {
				ref := *r
				got := r.Uint64n(n)
				want, _ := refUint64n(&ref, n)
				if got != want {
					t.Fatalf("seed %d draw %d: Uint64n(%#x) = %#x, reference %#x", seed, i, n, got, want)
				}
				if *r != ref {
					t.Fatalf("seed %d draw %d: Uint64n(%#x) left the generator elsewhere than the reference", seed, i, n)
				}
			}
		}
	}
}

// TestUint64nRejectionRedraws covers the rejection path where it is
// frequent: at 2⁶³+1 about half the first draws are redrawn, at 3·2⁶²
// about a quarter. Each call must match the reference's value and
// generator state, and the redraws must actually have happened.
func TestUint64nRejectionRedraws(t *testing.T) {
	for _, n := range []uint64{1<<63 + 1, 3 << 62} {
		r := New(77)
		const calls = 4000
		redraws := 0
		for i := 0; i < calls; i++ {
			ref := *r
			got := r.Uint64n(n)
			want, draws := refUint64n(&ref, n)
			if got != want || *r != ref {
				t.Fatalf("Uint64n(%#x) call %d = %#x, reference %#x (same generator state: %v)", n, i, got, want, *r == ref)
			}
			redraws += draws - 1
		}
		if redraws < calls/8 {
			t.Fatalf("Uint64n(%#x): %d redraws in %d calls; the rejection path went untested", n, redraws, calls)
		}
	}
}

// refShuffle is Fisher–Yates spelled out: for i = n−1 down to 1, swap
// element i with element Intn(i+1).
func refShuffle[T any](r *Rand, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// TestShuffleContract: Shuffle permutes a slice the way the explicit
// Fisher–Yates does and leaves the generator where it left it, on
// int32 and int slices alike.
func TestShuffleContract(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 1000} {
		for seed := uint64(1); seed <= 5; seed++ {
			a32, b32 := make([]int32, n), make([]int32, n)
			a, b := make([]int, n), make([]int, n)
			for i := range n {
				a32[i], b32[i] = int32(i), int32(i)
				a[i], b[i] = i, i
			}
			r, ref := New(seed), New(seed)
			Shuffle(r, a32)
			refShuffle(ref, b32)
			Shuffle(r, a)
			refShuffle(ref, b)
			if !slices.Equal(a32, b32) || !slices.Equal(a, b) {
				t.Fatalf("n=%d seed %d: Shuffle differs from the explicit Fisher–Yates", n, seed)
			}
			if *r != *ref {
				t.Fatalf("n=%d seed %d: Shuffle left the generator elsewhere than the reference", n, seed)
			}
		}
	}
}
