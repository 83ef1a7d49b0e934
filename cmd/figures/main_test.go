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

// TestRemovedFlagsExit2: the shard count and the shuffle mode are the
// engine's to derive, not options; naming either is an unknown flag,
// rejected before any experiment runs.
func TestRemovedFlagsExit2(t *testing.T) {
	for _, args := range []string{"-shards 4", "-shuffle global"} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, os.Args[0])
		cmd.Env = append(os.Environ(), mainArgsEnv+"=-out "+t.TempDir()+" -only fig01 "+args)
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined") {
			t.Errorf("%s: err %v, want exit status 2 with an unknown-flag error; output:\n%s", args, err, out)
		}
	}
}
