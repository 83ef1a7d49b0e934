package main

import (
	"context"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs the command itself, not the tests, when mainArgsEnv
// carries a command line: how a test sees the exit status and stderr of
// a real run.
func TestMain(m *testing.M) {
	if args := os.Getenv(mainArgsEnv); args != "" {
		os.Args = append([]string{"figures"}, strings.Fields(args)...)
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mainArgsEnv names the variable through which a test hands the child
// process it starts the command line to run.
const mainArgsEnv = "FIGURES_TEST_MAIN_ARGS"

// runMain runs the command with args in a child process and returns its
// exit status and combined output; a run past a minute fails the test.
func runMain(t *testing.T, args string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"=-out "+t.TempDir()+" -only fig01 "+args)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case ctx.Err() != nil:
		t.Fatalf("figures %s did not return within a minute", args)
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	}
	t.Fatal(err)
	return 0, ""
}

// TestRemovedFlagsExit2: the shard count and the shuffle mode are the
// engine's to derive, not options, -scale 1 is the paper's full scale,
// and a custom roster, cadence mix, fault scenario or trace file is a
// run of p2psize -trace; naming any of their flags is an unknown flag,
// rejected before any experiment runs.
func TestRemovedFlagsExit2(t *testing.T) {
	for _, args := range []string{
		"-shards 4", "-shuffle global", "-full",
		"-faults drop=0.1", "-estimators sc", "-cadences 5", "-tracefile x.csv",
	} {
		if code, out := runMain(t, args); code != 2 || !strings.Contains(out, "flag provided but not defined") {
			t.Errorf("%s: exit status %d, want 2 with an unknown-flag error; output:\n%s", args, code, out)
		}
	}
}

// TestScaleBelowOneExits2: -scale 0 or a negative scale is a usage
// error, not a silent run at the paper's full scale.
func TestScaleBelowOneExits2(t *testing.T) {
	for _, scale := range []string{"0", "-3"} {
		code, out := runMain(t, "-scale "+scale)
		if code != 2 || !strings.Contains(out, "-scale "+scale+" must be at least 1") {
			t.Errorf("-scale %s: exit status %d, want 2 with a usage error; output:\n%s", scale, code, out)
		}
	}
}
