package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"p2psize"
	"p2psize/internal/registry"
)

// TestDefaultRoster: with no roster flag the command runs the paper's
// three candidates, one per counting family, and "all" is the whole
// catalog.
func TestDefaultRoster(t *testing.T) {
	for spec, want := range map[string][]string{
		candidates: {"samplecollide", "hopssampling", "aggregation"},
		"all":      registry.Names(),
		"default":  registry.DefaultSet(),
	} {
		ds, err := registry.Parse(spec)
		if err != nil {
			t.Fatalf("-estimators %q: %v", spec, err)
		}
		var got []string
		for _, d := range ds {
			got = append(got, d.Name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("-estimators %q = %v, want %v", spec, got, want)
		}
	}
}

// TestListMarksSnapshot: -estimators list marks idspace, and only
// idspace, as snapshot-based, and names what "default" selects.
func TestListMarksSnapshot(t *testing.T) {
	code, out, stderr := runMain(t, "-estimators list")
	if code != 0 {
		t.Fatalf("exit status %d; stderr:\n%s", code, stderr)
	}
	lines := strings.Split(out, "\n")
	if f := strings.Fields(lines[0]); len(f) != 5 || f[3] != "snapshot" {
		t.Fatalf("header %q: want a snapshot column", lines[0])
	}
	for _, d := range registry.All() {
		i := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, d.Name+" ") })
		if i < 0 {
			t.Fatalf("%s missing from the list:\n%s", d.Name, out)
		}
		want := fmt.Sprintf(" %-9v ", d.Name == "idspace")
		if !strings.Contains(lines[i], want) {
			t.Errorf("%s: line %q, want snapshot %q", d.Name, lines[i], want)
		}
	}
	if want := "-estimators default: " + strings.Join(registry.DefaultSet(), ", "); !strings.Contains(out, want) {
		t.Errorf("list output lacks %q:\n%s", want, out)
	}
}

// TestGzippedTraceReplays: -trace reads a gzipped CSV or JSON trace
// file (t.csv.gz, t.json.gz) to the plain file's report, -save-trace
// x.csv.gz and x.json.gz write gzip streams that replay to the same
// report, and a spec that is neither a workload nor such a file is
// still an unknown trace.
func TestGzippedTraceReplays(t *testing.T) {
	tr, err := p2psize.GenerateTrace(p2psize.TraceOptions{Nodes: 300, Horizon: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for form, write := range map[string]func(io.Writer) error{"csv": tr.WriteCSV, "json": tr.WriteJSON} {
		var plain, zipped bytes.Buffer
		if err := write(&plain); err != nil {
			t.Fatal(err)
		}
		zw := gzip.NewWriter(&zipped)
		if _, err := zw.Write(plain.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "t."+form)
		if err := os.WriteFile(path, plain.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+".gz", zipped.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		args := "-estimators sc,dht -cadence 20 -workers 1 -trace "
		code, want, stderr := runMain(t, args+path)
		if code != 0 {
			t.Fatalf("%s: exit status %d; stderr:\n%s", path, code, stderr)
		}
		code, got, stderr := runMain(t, args+path+".gz")
		if code != 0 || got != want {
			t.Errorf("%s.gz: exit status %d, report\n%s\nwant the plain file's\n%s\nstderr:\n%s", path, code, got, want, stderr)
		}
		saved := filepath.Join(dir, "x."+form+".gz")
		if code, _, stderr := runMain(t, args+path+" -save-trace "+saved); code != 0 {
			t.Fatalf("-save-trace %s: exit status %d; stderr:\n%s", saved, code, stderr)
		}
		b, err := os.ReadFile(saved)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Errorf("-save-trace %s starts % x, want the gzip magic 1f 8b", saved, b[:min(len(b), 2)])
		}
		code, got, stderr = runMain(t, args+saved)
		if code != 0 || got != want {
			t.Errorf("%s: exit status %d, report\n%s\nwant the plain file's\n%s\nstderr:\n%s", saved, code, got, want, stderr)
		}
	}
	code, _, stderr := runMain(t, "-nodes 200 -trace weibull.gz")
	if code != 1 || !strings.Contains(stderr, `unknown trace "weibull.gz"`) {
		t.Errorf("-trace weibull.gz: exit status %d, stderr %q; want an unknown-trace error", code, stderr)
	}
}

// TestErrLine: an error line carries the command's prefix exactly once,
// and the static loop's run error names its estimator exactly once.
func TestErrLine(t *testing.T) {
	for _, c := range []struct {
		err  error
		want string
	}{
		{errors.New(`unknown topology "mesh"`), `p2psize: unknown topology "mesh"`},
		{errors.New("p2psize: NewNetwork: need at least 1 node"), "p2psize: NewNetwork: need at least 1 node"},
		{fmt.Errorf("-trace: %w", errors.New("p2psize: bad file")), "p2psize: -trace: p2psize: bad file"},
		{errors.New("registry: p2psize: x"), "p2psize: registry: p2psize: x"},
	} {
		if got := errLine(c.err); got != c.want {
			t.Errorf("errLine(%q) = %q, want %q", c.err, got, c.want)
		}
	}

	// The failure -nodes 1 -estimators tour hits: a lone peer has no
	// neighbour to tour through.
	net, err := p2psize.NewNetwork(p2psize.NetworkOptions{Nodes: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	roster, err := registry.Parse("tour")
	if err != nil {
		t.Fatal(err)
	}
	specs, err := selectEstimators(roster, p2psize.EstimatorConfig{Tours: 10, Workers: 1}, net, p2psize.FaultOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p2psize.RunParallel(specs[0].make, net, 1, 1)
	if err == nil {
		t.Fatal("a tour on a lone peer succeeded")
	}
	line := errLine(err)
	if strings.Count(line, "p2psize:") != 1 || strings.Count(line, specs[0].name) != 1 {
		t.Fatalf("error line %q: want one %q prefix and one %q", line, "p2psize:", specs[0].name)
	}
}

// TestValidateModes: the flag combinations each mode accepts, run as
// command lines. A rejected row exits 2 with its error; an accepted row
// exits 0, and when prints is set it runs at -workers 1 and 8: both
// runs print that line, and the same bytes. A flag the chosen mode
// would ignore is rejected; -nodes beside a trace file is not, since
// the file's population overrides it by design.
func TestValidateModes(t *testing.T) {
	tr, err := p2psize.GenerateTrace(p2psize.TraceOptions{Nodes: 200, Horizon: 50, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "t.csv")
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	const weibull = "-trace weibull -horizon 100 "
	for _, c := range []struct {
		name, args string
		want       string // substring of the error; "" = accepted
		prints     string // a line an accepted run prints; "" = not checked
	}{
		{name: "static", args: "-runs 1"},
		{name: "monitoring", args: weibull + "-faults drop=0.05,silent=0.1"},
		{name: "partition without -trace", args: "-runs 1 -faults partition=0.5@0.4-0.6", want: "needs a timeline"},
		{name: "partition on a trace", args: weibull + "-faults partition=0.5@40-60", prints: "partition folded onto trace"},
		{name: "sybils while monitoring", args: weibull + "-faults sybil=0.1", want: "sybil inflation conflicts"},
		{name: "sybils, static", args: "-runs 1 -faults sybil=0.1"},
		{name: "NaN horizon", args: "-trace weibull -horizon NaN", want: "-horizon NaN must be positive and finite"},
		{name: "infinite horizon", args: "-trace flashcrowd -horizon +Inf", want: "-horizon +Inf"},
		{name: "negative horizon", args: "-trace weibull -horizon -5", want: "-horizon -5"},
		{name: "NaN horizon, static", args: "-runs 1 -horizon NaN", want: "-horizon applies only to monitoring"},
		{name: "-runs under -trace", args: weibull + "-runs 3", want: "-runs counts static estimations"},
		{name: "-cadence, static", args: "-runs 1 -cadence 5", want: "-cadence applies only to monitoring"},
		{name: "-alpha, static", args: "-runs 1 -alpha 0.5", want: "-alpha applies only to monitoring"},
		{name: "-restart-jump, static", args: "-runs 1 -restart-jump 0.5", want: "-restart-jump applies only to monitoring"},
		{name: "-save-trace, static", args: "-runs 1 -save-trace " + file + ".json", want: "-save-trace applies only to monitoring"},
		{name: "-window without -policy window, static", args: "-runs 1 -window 5", want: "-window sets the length of -policy window"},
		{name: "-window without -policy window", args: weibull + "-window 5", want: "-window sets the length of -policy window"},
		{name: "-alpha without -policy ewma", args: weibull + "-policy window -alpha 0.5", want: "-alpha sets the weight of -policy ewma"},
		{name: "-policy ewma, static", args: "-runs 1 -policy ewma", want: "-policy ewma needs -trace"},
		{name: "-restart-jump without smoothing", args: weibull + "-restart-jump 0", want: "-restart-jump needs smoothing state"},
		{name: "-window 0, static", args: "-runs 1 -policy window -window 0", want: "-window 0 must be at least 1"},
		{name: "window smoothing, static", args: "-runs 3 -policy window -window 2", prints: "sample&collide(l=200)/last2runs"},
		{name: "ewma smoothing", args: weibull + "-policy ewma -alpha 0.5 -restart-jump 0.5"},
		{name: "-nodes beside a trace file", args: "-trace " + file},
	} {
		args := "-nodes 300 -estimators sc,hops,agg " + c.args + " -workers "
		code, out, stderr := runMain(t, args+"1")
		switch {
		case c.want != "":
			if code != 2 || strings.Count(stderr, "p2psize:") != 1 || !strings.Contains(stderr, c.want) {
				t.Errorf("%s: exit status %d, stderr %q; want 2 and one p2psize: error naming %q", c.name, code, stderr, c.want)
			}
			continue
		case code != 0 || !strings.Contains(out, c.prints):
			t.Errorf("%s: exit status %d, output lacks %q:\n%s\nstderr:\n%s", c.name, code, c.prints, out, stderr)
			continue
		case c.prints == "":
			continue
		}
		if code, got, stderr := runMain(t, args+"8"); code != 0 || got != out {
			t.Errorf("%s: -workers 8: exit status %d, output\n%s\nwant the -workers 1 output\n%s\nstderr:\n%s", c.name, code, got, out, stderr)
		}
	}
}

// TestParseTopology: every topology the library prints parses back, the
// short aliases still work, and a small-world run exits 0.
func TestParseTopology(t *testing.T) {
	for topo := p2psize.Heterogeneous; topo <= p2psize.SmallWorld; topo++ {
		if got, err := parseTopology(topo.String()); err != nil || got != topo {
			t.Errorf("parseTopology(%q) = %v, err %v; want %v", topo.String(), got, err, topo)
		}
	}
	for alias, want := range map[string]p2psize.Topology{
		"het": p2psize.Heterogeneous, "HOM": p2psize.Homogeneous,
		"scalefree": p2psize.ScaleFree, "ba": p2psize.ScaleFree,
	} {
		if got, err := parseTopology(alias); err != nil || got != want {
			t.Errorf("parseTopology(%q) = %v, err %v; want %v", alias, got, err, want)
		}
	}
	if _, err := parseTopology("mesh"); err == nil || !strings.Contains(err.Error(), `"mesh"`) {
		t.Errorf("parseTopology(\"mesh\"): err = %v", err)
	}

	// main exits through os.Exit on any error, which fails this test
	// binary; returning is exit status 0.
	args, cmdLine, stdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = args, cmdLine, stdout }()
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	os.Args = []string{"p2psize", "-topology", "small-world", "-nodes", "1000", "-runs", "1"}
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	os.Stdout = devNull
	main()
}

// TestMain runs the command itself, not the tests, when mainArgsEnv
// carries a command line: how a test sees the exit status and stderr of
// a real run.
func TestMain(m *testing.M) {
	if args := os.Getenv(mainArgsEnv); args != "" {
		os.Args = append([]string{"p2psize"}, strings.Fields(args)...)
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mainArgsEnv names the variable through which a test hands the child
// process it starts the command line to run.
const mainArgsEnv = "P2PSIZE_TEST_MAIN_ARGS"

// runMain runs the command with args in a child process and returns its
// exit status, stdout and stderr. A child still running after a minute
// is killed and fails the test: a command line that never returns.
func runMain(t *testing.T, args string) (code int, stdout, stderr string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+args)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case ctx.Err() != nil:
		t.Fatalf("p2psize %s did not return within a minute", args)
	case err == nil:
		return 0, out.String(), errOut.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), out.String(), errOut.String()
	}
	t.Fatal(err)
	return 0, "", ""
}

// TestNonFiniteHorizonExits2: -horizon NaN under -trace is a usage
// error — exit status 2 and one "p2psize:" line — not the panic a NaN
// schedule used to end in.
func TestNonFiniteHorizonExits2(t *testing.T) {
	code, _, stderr := runMain(t, "-nodes 200 -estimators sc -trace weibull -horizon NaN")
	if code != 2 {
		t.Fatalf("exit status %d, want 2; stderr:\n%s", code, stderr)
	}
	if strings.Count(stderr, "p2psize:") != 1 || !strings.Contains(stderr, "-horizon NaN") {
		t.Fatalf("stderr %q: want one p2psize: error naming -horizon NaN", stderr)
	}
}

// TestBadTimerFails: a Sample&Collide timer that is negative, NaN or
// infinite is an error naming SCTimer. -T +Inf used to walk forever,
// and -T NaN or -T -3 ran silently with the default T = 10.
func TestBadTimerFails(t *testing.T) {
	for _, T := range []string{"+Inf", "NaN", "-3"} {
		code, _, stderr := runMain(t, "-nodes 1000 -estimators sc -runs 1 -T "+T)
		if code == 0 {
			t.Errorf("-T %s: exit status 0; stderr:\n%s", T, stderr)
			continue
		}
		if strings.Count(stderr, "p2psize:") != 1 || !strings.Contains(stderr, "SCTimer "+T) {
			t.Errorf("-T %s: stderr %q: want one p2psize: error naming SCTimer %s", T, stderr, T)
		}
	}
}

// TestNegativeKnobFails: a negative integer knob is an error naming
// its option. -rounds -5 used to run silently with the paper's 50.
func TestNegativeKnobFails(t *testing.T) {
	code, _, stderr := runMain(t, "-nodes 500 -estimators agg -rounds -5 -runs 1")
	if code == 0 {
		t.Fatalf("exit status 0; stderr:\n%s", stderr)
	}
	if strings.Count(stderr, "p2psize:") != 1 || !strings.Contains(stderr, "Rounds -5") {
		t.Fatalf("stderr %q: want one p2psize: error naming Rounds -5", stderr)
	}
}

// TestRemovedFlagsExit2: the shard count and the shuffle mode are the
// engine's to derive, not options, the live-cluster mode is a library
// call (p2psize.RunCluster), not a mode of the command, -estimators is
// the one roster flag, and -policy window is the one smoothing flag;
// naming any of their flags is an unknown flag.
func TestRemovedFlagsExit2(t *testing.T) {
	for _, args := range []string{
		"-shards 4", "-shuffle global",
		"-cluster 4", "-cluster-addrs a:1", "-tolerance 0.1", "-teardown",
		"-algo all", "-smooth",
	} {
		code, _, stderr := runMain(t, "-nodes 200 -estimators agg -runs 1 "+args)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
			t.Errorf("%s: exit status %d, want 2 with an unknown-flag error; stderr:\n%s", args, code, stderr)
		}
	}
}

// TestRosterSlotChangesNothing: a family's numbers do not depend on the
// families beside it. Every rotation of a roster puts each family in
// every slot, first and last included, and each family's numbers must
// be bit-equal to its run alone: monitored (the raw series and message
// count of RunMonitor on the instances runMonitor builds, every
// monitoring family) and static (the estimates and message count of
// RunParallel, every family). The roster comes from selectEstimators,
// at workers 1 and 8, fault-free and under drop=0.2.
func TestRosterSlotChangesNothing(t *testing.T) {
	const nodes, seed = 300, 5
	net, err := p2psize.NewNetwork(p2psize.NetworkOptions{Nodes: nodes, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := p2psize.GenerateTrace(p2psize.TraceOptions{Nodes: nodes, Horizon: 60, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	drop, err := p2psize.ParseFaults("drop=0.2")
	if err != nil {
		t.Fatal(err)
	}
	all := registry.All()
	monitoring := slices.DeleteFunc(slices.Clone(all), func(d registry.Descriptor) bool { return d.Snapshot })
	for _, f := range []p2psize.FaultOptions{{}, drop} {
		for _, workers := range []int{1, 8} {
			cfg := p2psize.EstimatorConfig{Tours: 3, Workers: 1}
			monitor := func(order []registry.Descriptor) []string {
				specs, err := selectEstimators(order, cfg, nil, f, seed)
				if err != nil {
					t.Fatal(err)
				}
				res, err := p2psize.RunMonitor(net, tr, instances(specs), p2psize.MonitorOptions{Cadence: 10, ReplaySeed: seed, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				out := make([]string, len(order))
				for k := range order {
					out[k] = fmt.Sprintf("raw %x, %v messages a time unit", bits(res.RawEstimates(k)), res.Tracking(k).MsgsPerTimeUnit)
				}
				return out
			}
			static := func(order []registry.Descriptor) []string {
				specs, err := selectEstimators(order, cfg, net, f, seed)
				if err != nil {
					t.Fatal(err)
				}
				out := make([]string, len(order))
				for k, spec := range specs {
					net.ResetMessages()
					vals, err := p2psize.RunParallel(spec.make, net, 2, workers)
					out[k] = fmt.Sprintf("estimates %x (%v), %d messages", bits(vals), err, net.Messages())
				}
				return out
			}
			for mode, c := range map[string]struct {
				roster []registry.Descriptor
				run    func([]registry.Descriptor) []string
			}{"monitored": {monitoring, monitor}, "static": {all, static}} {
				alone := map[string]string{}
				for _, d := range c.roster {
					alone[d.Name] = c.run([]registry.Descriptor{d})[0]
				}
				for k := range c.roster {
					order := append(slices.Clone(c.roster[k:]), c.roster[:k]...)
					for slot, got := range c.run(order) {
						if d := order[slot]; got != alone[d.Name] {
							t.Fatalf("faults %q, workers %d, %s: %s in slot %d of %d reads\n%s\nalone\n%s",
								f, workers, mode, d.Name, slot, len(order), got, alone[d.Name])
						}
					}
				}
			}
		}
	}
}

// bits returns the bit patterns of vals, so NaNs compare equal to
// themselves.
func bits(vals []float64) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = math.Float64bits(v)
	}
	return out
}
