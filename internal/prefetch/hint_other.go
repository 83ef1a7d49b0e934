//go:build !amd64 && !arm64

package prefetch

// hint does nothing where no assembly is written: a hint never changes
// a result, so dropping every one only costs time.
func hint(addrs *uintptr, n int) {}
