// Package prefetch asks the CPU to start fetching cache lines that a
// loop is about to read, without waiting for them and without reading
// them: PREFETCHT0 on amd64, PRFM PLDL1KEEP on arm64, nothing on other
// architectures.
//
// A hint is only a hint. It loads no value, so it cannot change what a
// program computes, and it never faults: a nil, stale or unmapped
// address is dropped by the hardware. That is what lets a caller hint
// an address it has only computed — an element of a slice it has not
// bounds-checked, a record it has not read — while another goroutine
// writes the line. Go has no prefetch intrinsic and drops loads whose
// value is unused, so the hint is a few lines of assembly behind one
// call per batch.
package prefetch

import "unsafe"

// batchCap is how many addresses one Batch holds: eight keys of four
// lines each, the most a round-engine hint group asks for.
const batchCap = 32

// Batch collects addresses to hint together, so that one call into the
// assembly serves a whole group of them. The zero value is empty.
type Batch struct {
	addrs [batchCap]uintptr
	n     int
}

// Add queues addr. Past batchCap queued addresses each new one
// overwrites the oldest; a lost hint costs time, never a result.
func (b *Batch) Add(addr uintptr) {
	b.addrs[b.n&(batchCap-1)] = addr
	b.n++
}

// Flush hints every queued address and empties the batch.
func (b *Batch) Flush() {
	if n := min(b.n, batchCap); n > 0 {
		hint(&b.addrs[0], n)
	}
	b.n = 0
}

// Addr returns the address of s[i] without reading it and without a
// bounds check: an index outside s yields an address outside s, which
// is harmless to hint and must not be used for anything else.
func Addr[T any](s []T, i int) uintptr {
	var zero T
	return uintptr(unsafe.Pointer(unsafe.SliceData(s))) + uintptr(i)*unsafe.Sizeof(zero)
}
