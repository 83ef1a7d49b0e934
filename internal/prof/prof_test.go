package prof

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem, exec := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof"), filepath.Join(dir, "exec.trace")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem, "-exectrace", exec}); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, p := range []string{cpu, mem, exec} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("%s: missing or empty (%v)", p, err)
		}
	}
}

func TestOffByDefault(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
}

func TestUnwritablePathIsAnError(t *testing.T) {
	for _, name := range []string{"-cpuprofile", "-exectrace"} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		f := Register(fs)
		if err := fs.Parse([]string{name, filepath.Join(t.TempDir(), "no", "such", "dir", "x")}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Start(); err == nil {
			t.Fatalf("Start accepted an unwritable %s path", name)
		}
	}
}

// TestFailedStartLeavesNothingRunning: when the second recorder cannot
// start, the first is stopped again, so a later Start does not find the
// CPU profiler still on.
func TestFailedStartLeavesNothingRunning(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Register(fs)
	args := []string{"-cpuprofile", filepath.Join(dir, "cpu.pprof"), "-exectrace", filepath.Join(dir, "no", "such", "dir", "x")}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Start(); err == nil {
		t.Fatal("Start accepted an unwritable -exectrace path")
	}
	*f.exec = ""
	stop, err := f.Start()
	if err != nil {
		t.Fatalf("the failed Start left the CPU profiler running: %v", err)
	}
	stop()
}
