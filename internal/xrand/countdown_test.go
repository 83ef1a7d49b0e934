package xrand

import (
	"math"
	"testing"
)

// negLogTol is what TestNegLogBound holds negLog to: an eighth of the
// negLogErr that Countdown's bound assumes.
const negLogTol = 0x1p-43

// checkNegLog fails if negLog(x) is farther than negLogTol from the
// exact −ln of the same draw.
func checkNegLog(t *testing.T, x uint64) {
	t.Helper()
	got, want := negLog(x), -math.Log(openUnit(x))
	if d := math.Abs(got - want); !(d <= negLogTol) {
		t.Fatalf("negLog(m=%d) = %.17g, −ln = %.17g: off by %g > 2⁻⁴³", x>>11+1, got, want, d)
	}
}

// drawOf returns a draw whose Float64Open value is m/2⁵³, with arbitrary
// low bits that openUnit discards.
func drawOf(m, low uint64) uint64 { return (m-1)<<11 | low&(1<<11-1) }

// TestNegLogBound holds the table-driven −ln to within 2⁻⁴³ of
// −math.Log(Float64Open) on the edge inputs — m = 1 and 2⁵³, every
// power of two and its neighbours, every m below 2¹², and both sides
// of every table boundary 2ᵏ·(1 + j/256) — and on random draws.
func TestNegLogBound(t *testing.T) {
	for m := uint64(1); m < 1<<12; m++ {
		checkNegLog(t, drawOf(m, m))
	}
	for k := 0; k <= 53; k++ {
		p := uint64(1) << k
		for _, m := range []uint64{p - 1, p, p + 1} {
			if m >= 1 && m <= 1<<53 {
				checkNegLog(t, drawOf(m, 0))
			}
		}
		if k < 8 {
			continue // boundaries below 2⁸ are not integers; covered above
		}
		for j := uint64(0); j < 256; j++ {
			edge := p + j<<(k-8)
			for _, m := range []uint64{edge - 1, edge, edge + 1} {
				if m <= 1<<53 {
					checkNegLog(t, drawOf(m, 1<<11-1))
				}
			}
		}
	}
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	r := New(43)
	for i := 0; i < n; i++ {
		checkNegLog(t, r.Uint64())
	}
}

// walkBoth runs one walk from T under a Countdown on r and the literal
// timer, t -= ref.Exp(λ) until t <= 0, on ref (a generator in r's
// state), with step i's rate from
// rate(i), and fails on the first step whose decisions differ or if the
// generators end apart. With force, every step goes through the exact
// replay: an infinite bound can decide nothing. It returns the steps
// taken and how many of them the replay decided.
func walkBoth(t *testing.T, c *Countdown, r, ref *Rand, T float64, rate func(i int) float64, force bool) (steps, replays int) {
	t.Helper()
	c.Reset(T)
	lit := T
	for i := 0; ; i++ {
		lambda := rate(i)
		if force {
			c.slack = math.Inf(1)
		}
		lit -= ref.Exp(lambda)
		got, want := c.Step(r, lambda), lit <= 0
		if len(c.hist) == 0 { // the fast path leaves this step's draw
			replays++
		} else if force {
			t.Fatalf("T=%g step %d: forced step did not replay", T, i)
		}
		if got != want {
			t.Fatalf("T=%g step %d (λ=%g): Countdown says expired=%v, literal loop %v (t=%g)", T, i, lambda, got, want, lit)
		}
		if got {
			if *r != *ref {
				t.Fatalf("T=%g: Countdown left the generator elsewhere than the literal loop", T)
			}
			return i + 1, replays
		}
	}
}

// intRate draws the walks' rates: node degrees 1–64.
func intRate(r *Rand) float64 { return float64(1 + r.Intn(64)) }

// fracRate draws a rate in (0, 1].
func fracRate(r *Rand) float64 { return r.Float64Open() }

// TestCountdownContract: over a million walks with rates in 1–64 and in
// (0, 1] and T ∈ {10⁻³, 10, 10⁶}, every Countdown decision and the
// generator's final state equal the literal loop's — once on the fast
// path and once with the exact replay forced on every step. Knife-edge
// walks, whose T is the exact sum of their first k decrements give or
// take two ulps, put the exact timer within ulps of zero, where only the
// replay can decide; on those the replay must actually have run.
func TestCountdownContract(t *testing.T) {
	scale := 1
	if testing.Short() {
		scale = 10
	}
	cases := []struct {
		T     float64
		walks int
		rate  func(*Rand) float64
	}{
		{1e-3, 400_000, intRate},
		{1e-3, 400_000, fracRate},
		{10, 3_000, intRate},
		{10, 200_000, fracRate},
		{1e6, 1, intRate}, // ≈ 1.4·10⁷ steps: the rounding slack's case
		{1e6, 10, fracRate},
	}
	for _, mode := range []struct {
		name  string
		force bool
	}{{"fast", false}, {"replay", true}} {
		t.Run(mode.name, func(t *testing.T) {
			var c Countdown
			r, ref, rates := New(7), New(7), New(8)
			walks, steps, replays := 0, 0, 0
			for _, tc := range cases {
				if testing.Short() && tc.T == 1e6 && tc.walks == 1 {
					continue
				}
				rate := func(int) float64 { return tc.rate(rates) }
				for w := 0; w < tc.walks/scale; w++ {
					s, rp := walkBoth(t, &c, r, ref, tc.T, rate, mode.force)
					walks, steps, replays = walks+1, steps+s, replays+rp
				}
			}
			if !testing.Short() && walks < 1_000_000 {
				t.Fatalf("%d walks, want at least 10⁶", walks)
			}
			if !mode.force && replays > 10 {
				t.Fatalf("%d of %d steps replayed on random walks; the bound is too loose to decide", replays, steps)
			}
			edgeReplays := 0
			for w := 0; w < 20_000/scale; w++ {
				_, rp := knifeEdgeWalk(t, &c, r, ref, rates, w, mode.force)
				edgeReplays += rp
			}
			if edgeReplays == 0 {
				t.Fatal("no knife-edge walk reached the exact replay")
			}
		})
	}
}

// knifeEdgeWalk runs walk w with T set to the exact sum of its first
// k = 1 + w%40 decrements, moved by w%5 − 2 ulps, so the literal timer
// ends step k within a few ulps of zero.
func knifeEdgeWalk(t *testing.T, c *Countdown, r, ref, rates *Rand, w int, force bool) (steps, replays int) {
	t.Helper()
	draw := intRate
	if w%2 == 1 {
		draw = fracRate
	}
	k := 1 + w%40
	lambdas := make([]float64, k)
	ahead := *r
	T := 0.0
	for i := range lambdas {
		lambdas[i] = draw(rates)
		T += ahead.Exp(lambdas[i])
	}
	for j := w%5 - 2; j != 0; {
		if j < 0 {
			T, j = math.Nextafter(T, 0), j+1
		} else {
			T, j = math.Nextafter(T, math.Inf(1)), j-1
		}
	}
	rate := func(i int) float64 {
		if i < k {
			return lambdas[i]
		}
		return draw(rates)
	}
	return walkBoth(t, c, r, ref, T, rate, force)
}

// TestCountdownStepRejectsBadRate: like Exp, Step panics on a rate that
// is not positive, NaN included, and draws nothing first.
func TestCountdownStepRejectsBadRate(t *testing.T) {
	for _, lambda := range []float64{0, -1, math.NaN()} {
		var c Countdown
		c.Reset(10)
		r := New(1)
		before := *r
		mustPanic(t, "Countdown.Step", func() { c.Step(r, lambda) })
		if *r != before {
			t.Fatalf("Step(%g) drew before panicking", lambda)
		}
	}
}

func BenchmarkCountdownStep(b *testing.B) {
	r := New(1)
	var c Countdown
	c.Reset(10)
	for i := 0; i < b.N; i++ {
		if c.Step(r, 7.2) {
			c.Reset(10)
		}
	}
}
