//go:build amd64 || arm64

package prefetch

// hint issues one prefetch for each of the n addresses at addrs.
//
//go:noescape
func hint(addrs *uintptr, n int)
