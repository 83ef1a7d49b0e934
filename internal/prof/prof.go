// Package prof gives the command-line tools the -cpuprofile and
// -memprofile flags of a go test binary, so a performance claim can
// point at a pprof file of one real run (go tool pprof -top <file>)
// instead of a throw-away harness.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile paths; empty means off.
type Flags struct {
	cpu, mem *string
}

// Register declares -cpuprofile and -memprofile on fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile of the run to this file"),
		mem: fs.String("memprofile", "", "write an allocation profile to this file when the run ends"),
	}
}

// Start begins CPU profiling if asked to and returns the function that
// ends it and writes the allocation profile. Call stop exactly once, on
// every exit path that should leave profiles behind.
func (f *Flags) Start() (stop func(), err error) {
	var cpu *os.File
	if *f.cpu != "" {
		if cpu, err = os.Create(*f.cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "-cpuprofile:", err)
			}
		}
		if *f.mem != "" {
			if err := writeHeap(*f.mem); err != nil {
				fmt.Fprintln(os.Stderr, "-memprofile:", err)
			}
		}
	}, nil
}

// writeHeap writes the "allocs" profile (every allocation since the
// program started, which -sample_index=inuse_space narrows to the live
// heap) after a collection, so the figures are up to date.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
