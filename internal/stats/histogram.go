package stats

// IntHistogram counts occurrences of small non-negative integers, such as
// node degrees. The zero value is ready to use.
type IntHistogram struct {
	counts []int
	total  int
}

// Add increments the count for v. Negative values panic.
func (h *IntHistogram) Add(v int) {
	if v < 0 {
		panic("stats: IntHistogram.Add with negative value")
	}
	for v >= len(h.counts) {
		h.counts = append(h.counts, 0)
	}
	h.counts[v]++
	h.total++
}

// Max returns the largest value with a nonzero count (-1 if empty).
func (h *IntHistogram) Max() int {
	for v := len(h.counts) - 1; v >= 0; v-- {
		if h.counts[v] > 0 {
			return v
		}
	}
	return -1
}

// Mean returns the mean observed value (0 if empty).
func (h *IntHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	sum := 0.0
	for v, c := range h.counts {
		sum += float64(v) * float64(c)
	}
	return sum / float64(h.total)
}

// NonZero returns the (value, count) pairs with count > 0 in increasing
// value order — the format of the paper's log-log degree plot (Fig 7).
func (h *IntHistogram) NonZero() (values, counts []int) {
	for v, c := range h.counts {
		if c > 0 {
			values = append(values, v)
			counts = append(counts, c)
		}
	}
	return values, counts
}

// CCDF returns, for each distinct observed value v, the fraction of
// observations >= v. No run reads it; it ships for the tests that
// verify power-law tails.
//
//detlint:allow testonly used by the stats and graph tests
func (h *IntHistogram) CCDF() (values []int, frac []float64) {
	values, counts := h.NonZero()
	if h.total == 0 {
		return nil, nil
	}
	frac = make([]float64, len(values))
	cum := 0
	for i := len(values) - 1; i >= 0; i-- {
		cum += counts[i]
		frac[i] = float64(cum) / float64(h.total)
	}
	return values, frac
}
