// Package prof gives the command-line tools the -cpuprofile and
// -memprofile flags of a go test binary, so a performance claim can
// point at a pprof file of one real run (go tool pprof -top <file>)
// instead of a throw-away harness, and -exectrace, whose file
// (go tool trace <file>) shows what each goroutine of the worker pool
// was doing when: per-shard visit spans, the serial prefix between them.
package prof

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags holds the three output paths; empty means off.
type Flags struct {
	cpu, mem, exec *string
}

// Register declares -cpuprofile, -memprofile and -exectrace on fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu:  fs.String("cpuprofile", "", "write a CPU profile of the run to this file"),
		mem:  fs.String("memprofile", "", "write an allocation profile to this file when the run ends"),
		exec: fs.String("exectrace", "", "write a runtime execution trace of the run to this file"),
	}
}

// Start begins CPU profiling and execution tracing if asked to and
// returns the function that ends them and writes the allocation
// profile. Call stop exactly once, on every exit path that should leave
// profiles behind.
func (f *Flags) Start() (stop func(), err error) {
	stopCPU, err := record("-cpuprofile", *f.cpu, pprof.StartCPUProfile, pprof.StopCPUProfile)
	if err != nil {
		return nil, err
	}
	stopExec, err := record("-exectrace", *f.exec, trace.Start, trace.Stop)
	if err != nil {
		stopCPU()
		return nil, err
	}
	return func() {
		stopExec()
		stopCPU()
		if *f.mem != "" {
			if err := writeHeap(*f.mem); err != nil {
				fmt.Fprintln(os.Stderr, "-memprofile:", err)
			}
		}
	}, nil
}

// record opens path and starts a recorder streaming into it; the
// returned function ends the recording and closes the file. An empty
// path records nothing.
func record(name, path string, start func(io.Writer) error, end func()) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	out, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := start(out); err != nil {
		out.Close()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return func() {
		end()
		if err := out.Close(); err != nil {
			fmt.Fprintln(os.Stderr, name+":", err)
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
