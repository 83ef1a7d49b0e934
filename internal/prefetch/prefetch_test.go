package prefetch

import (
	"testing"
	"unsafe"
)

// TestHintNeverFaults hints addresses no program may read: nil, the
// first page, one past the end of a slice, a kernel-half address, the
// top of the address space and a misaligned one. A hint that loaded
// its address would crash the test binary; every one must return.
func TestHintNeverFaults(t *testing.T) {
	s := make([]uint64, 3)
	addrs := []uintptr{
		0,
		1,
		4095,
		Addr(s, len(s)),
		Addr(s, -1),
		Addr(s, 1<<40),
		1 << 63,
		^uintptr(0),
		^uintptr(0) - 4096,
		uintptr(unsafe.Pointer(&s[0])) + 3,
	}
	for _, a := range addrs {
		hint(&a, 1)
	}
	hint(&addrs[0], len(addrs))
	hint(nil, 0)
	hint(nil, -1)

	var b Batch
	for i := 0; i < 3*batchCap+5; i++ {
		b.Add(addrs[i%len(addrs)])
	}
	b.Flush()
	if b.n != 0 {
		t.Fatalf("Flush left %d addresses queued", b.n)
	}
	b.Flush() // empty
}

// TestBatchKeepsTheLatestAddresses pins Add's overflow rule: past
// batchCap queued addresses the oldest are the ones overwritten.
func TestBatchKeepsTheLatestAddresses(t *testing.T) {
	var b Batch
	for i := range batchCap + 3 {
		b.Add(uintptr(i))
	}
	for i, a := range b.addrs {
		want := uintptr(i)
		if i < 3 {
			want += batchCap
		}
		if a != want {
			t.Fatalf("slot %d holds %d, want %d", i, a, want)
		}
	}
}

// TestAddrIsTheElementAddress holds Addr to &s[i] wherever that is
// defined, for element types of several sizes.
func TestAddrIsTheElementAddress(t *testing.T) {
	u32 := make([]uint32, 10)
	f64 := make([]float64, 10)
	type rec struct{ a [13]int32 }
	recs := make([]rec, 10)
	for i := range 10 {
		if Addr(u32, i) != uintptr(unsafe.Pointer(&u32[i])) ||
			Addr(f64, i) != uintptr(unsafe.Pointer(&f64[i])) ||
			Addr(recs, i) != uintptr(unsafe.Pointer(&recs[i])) {
			t.Fatalf("Addr(s, %d) is not &s[%d]", i, i)
		}
	}
	if Addr[uint64](nil, 5) != 40 {
		t.Fatal("Addr of a nil slice does not offset from zero")
	}
}

func BenchmarkBatchFlush(b *testing.B) {
	s := make([]uint64, 1<<20)
	var bt Batch
	for i := 0; i < b.N; i++ {
		for j := range 8 {
			bt.Add(Addr(s, (i*8+j)*4099&(len(s)-1)))
		}
		bt.Flush()
	}
}
