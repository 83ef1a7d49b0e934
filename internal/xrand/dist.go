package xrand

import "math"

// Exp returns an exponentially distributed value with rate lambda
// (mean 1/lambda), −ln(U)/lambda for one U = Float64Open() draw. It
// panics unless lambda > 0, so a NaN panics too.
//
// The churn-trace generators draw inter-arrival times and session
// lengths with it. A loop that only asks when a sum of Exp draws runs
// past a bound — the Sample&Collide walk timer — uses Countdown, which
// makes the same draws and decisions without a math.Log per draw.
func (r *Rand) Exp(lambda float64) float64 {
	if !(lambda > 0) {
		panic("xrand: Exp with non-positive lambda")
	}
	return exp(r.Uint64(), lambda)
}

// exp is Exp's value for the draw x.
func exp(x uint64, lambda float64) float64 {
	return -math.Log(openUnit(x)) / lambda
}

// Weibull returns a Weibull-distributed value with the given shape k and
// scale lambda, via inverse-transform sampling. Shapes below 1 give the
// heavy-tailed session lengths measured in deployed peer-to-peer systems
// (many very short sessions, a few very long ones). It panics unless both
// parameters are positive (a NaN is not).
func (r *Rand) Weibull(shape, scale float64) float64 {
	if !(shape > 0) || !(scale > 0) {
		panic("xrand: Weibull with non-positive shape or scale")
	}
	return scale * math.Pow(-math.Log(r.Float64Open()), 1/shape)
}

// LogNormal returns exp(Norm(mu, sigma)): a log-normally distributed
// value with log-mean mu and log-stddev sigma. It panics unless sigma > 0,
// so a NaN panics too.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	if !(sigma > 0) {
		panic("xrand: LogNormal with non-positive sigma")
	}
	return math.Exp(r.Norm(mu, sigma))
}

// Pareto returns a Pareto-distributed value with minimum xm and tail
// index alpha (P(X > x) = (xm/x)^alpha for x >= xm), via inverse-
// transform sampling. It panics unless both parameters are positive (a
// NaN is not).
func (r *Rand) Pareto(xm, alpha float64) float64 {
	if !(xm > 0) || !(alpha > 0) {
		panic("xrand: Pareto with non-positive xm or alpha")
	}
	return xm / math.Pow(r.Float64Open(), 1/alpha)
}

// Norm returns a normally distributed value with the given mean and
// standard deviation, via the Marsaglia polar method.
func (r *Rand) Norm(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// SampleK returns k distinct values drawn uniformly from [0, n), in
// uniformly shuffled order, by Floyd's algorithm over a flat bitset of
// the values seen (n/8 bytes). It panics if k > n or k < 0.
func (r *Rand) SampleK(n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: SampleK with k outside [0, n]")
	}
	seen := make([]uint64, (n+63)/64)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if seen[t>>6]&(1<<(t&63)) != 0 {
			t = j
		}
		seen[t>>6] |= 1 << (t & 63)
		out = append(out, t)
	}
	Shuffle(r, out)
	return out
}
