package xrand

import "math"

// Countdown is a timer that exponential draws count down to zero: the
// Sample&Collide walk's clock. Reset(T) starts it at T, and each
// Step(r, λ) draws the one Uint64 that r.Exp(λ) would draw and reports
// whether the timer has run out — exactly what the literal loop
//
//	t := T
//	for { t -= r.Exp(λ); if t <= 0 { break } … }
//
// reports at the same step, with the generator left where that loop
// leaves it.
//
// The walk only reads the timer's sign, so a Step estimates −ln(U)
// without math.Log (negLog) and carries a running bound on how far the
// estimate can be from the exact timer. The sign is decided from the
// estimate whenever it lies farther from zero than the bound; otherwise
// the draws since the timer was last known exactly are replayed through
// Exp's own expression, and the exact timer decides. The bound grows by
// about 10⁻¹²/λ a step, so at T = 10 over degrees 1–10 the replay runs
// about once in 10¹⁰ walks.
//
// A Countdown keeps its draw history between walks at its high-water
// length, at most histCap draws: a longer walk settles the timer
// exactly every histCap steps, paying math.Log for each draw again. The
// zero value is ready for Reset. It is not safe for concurrent use.
type Countdown struct {
	t     float64 // the estimated timer
	slack float64 // bound on |t − the exact timer|
	exact float64 // the exact timer before the first draw in hist
	hist  []draw  // draws since the timer was last known exactly
}

// draw is one Step's Uint64 and rate, kept for the exact replay.
type draw struct {
	x      uint64
	lambda float64
}

// negLogErr bounds |negLog(x) − (−math.Log(openUnit(x)))| over every
// draw x; TestNegLogBound holds the measured error to an eighth of it.
// roundSlack bounds, relative to |t| + d, the rounding a step adds to
// the distance between the estimated and the exact timer: the exact
// step rounds d = −ln(U)/λ and t − d once each, the estimate rounds
// 1/λ, d and t − d, and each rounding is at most 2⁻⁵³ of its result.
const (
	negLogErr  = 0x1p-40
	roundSlack = 0x1p-50
)

// histCap bounds the draw history (16 bytes a draw). A walk at T = 10
// takes about 10 hops per unit of mean degree, so only walks hundreds
// of times longer than the simulator's ever reach it.
const histCap = 1 << 12

// firstHist is the history's first capacity: a walk at T = 10 over
// mean degree up to about a dozen fits, so most countdowns allocate
// once rather than along append's doubling chain.
const firstHist = 128

// Reset starts the countdown at T.
func (c *Countdown) Reset(T float64) {
	c.t, c.slack, c.exact = T, 0, T
	if c.hist == nil {
		c.hist = make([]draw, 0, firstHist)
	}
	c.hist = c.hist[:0]
}

// Step subtracts Exp(lambda) from the timer and reports whether it is
// now ≤ 0. It draws one Uint64 from r, and panics unless lambda > 0,
// as Exp does.
func (c *Countdown) Step(r *Rand, lambda float64) (expired bool) {
	if !(lambda > 0) {
		panic("xrand: Countdown.Step with non-positive lambda")
	}
	x := r.Uint64()
	if len(c.hist) == histCap {
		c.settle()
	}
	c.hist = append(c.hist, draw{x, lambda})
	inv := 1 / lambda
	d := negLog(x) * inv
	c.slack += negLogErr*inv + roundSlack*(math.Abs(c.t)+d)
	c.t -= d
	if c.t > c.slack {
		return false
	}
	if c.t < -c.slack {
		return true
	}
	// The bound cannot decide (a NaN or infinite estimate never can):
	// the exact timer does.
	c.settle()
	return c.t <= 0
}

// settle recomputes the timer exactly from the recorded draws — the
// literal loop's arithmetic, step for step — and restarts the estimate
// from it.
func (c *Countdown) settle() {
	t := c.exact
	for _, s := range c.hist {
		t -= exp(s.x, s.lambda)
	}
	c.t, c.slack, c.exact = t, 0, t
	c.hist = c.hist[:0]
}

// negLog estimates −ln(openUnit(x)) = 53·ln 2 − ln m, m = x>>11 + 1,
// to within negLogErr. Writing m = 2ᵏ·f with f in [1, 2), it picks
// c = 1 + (j + ½)/256 from f's top eight mantissa bits j, so that
// r = (f − c)/c lies within ±2⁻⁹, and sums (53 − k)·ln 2, ln c from a
// table, and ln(1 + r) by its degree-4 Taylor polynomial, whose
// truncation error is under |r|⁵/5 ≈ 6·10⁻¹⁵. f − c is exact, and it
// is read straight off the mantissa bits: f − c = (low44 − 2⁴³)·2⁻⁵².
func negLog(x uint64) float64 {
	b := math.Float64bits(float64(int64(x>>11) + 1)) // exact: m ≤ 2⁵³
	j := b >> 44 & 0xff
	r := float64(int64(b&(1<<44-1))-1<<43) * logScaledInv[j]
	p := r * (1 + r*(-1.0/2+r*(1.0/3+r*(-1.0/4))))
	return float64(1076-int64(b>>52))*math.Ln2 - (logCenter[j] + p)
}

// logCenter[j] = ln c_j and logScaledInv[j] = 2⁻⁵²/c_j for the 256
// centres c_j = 1 + (j + ½)/256 that negLog reduces its argument to.
var logCenter, logScaledInv = logTables()

func logTables() (ln, inv [256]float64) {
	for j := range ln {
		c := 1 + (float64(j)+0.5)/256
		ln[j] = math.Log(c)
		inv[j] = 0x1p-52 / c
	}
	return ln, inv
}
