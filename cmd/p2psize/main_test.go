package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	"p2psize"
	"p2psize/internal/registry"
)

// TestRosterSpec: the two roster flags resolve to one registry spec, and
// every spelling the pre-registry -algo accepted is a registry selector.
func TestRosterSpec(t *testing.T) {
	for _, c := range []struct {
		estSel, algo string
		want         []string
	}{
		{"", "all", []string{"samplecollide", "hopssampling", "aggregation"}},
		{"", "everything", []string{"samplecollide", "hopssampling", "aggregation", "randomtour", "polling"}},
		{"", "Everything", []string{"samplecollide", "hopssampling", "aggregation", "randomtour", "polling"}},
		{"", "sc", []string{"samplecollide"}},
		{"", "samplecollide", []string{"samplecollide"}},
		{"", "sample-collide", []string{"samplecollide"}},
		{"", "hops", []string{"hopssampling"}},
		{"", "hopssampling", []string{"hopssampling"}},
		{"", "agg", []string{"aggregation"}},
		{"", "aggregation", []string{"aggregation"}},
		{"", "tour", []string{"randomtour"}},
		{"", "randomtour", []string{"randomtour"}},
		{"", "poll", []string{"polling"}},
		{"", "polling", []string{"polling"}},
		{"", "dht", []string{"dht"}}, // any registry name passes through
		{"poll,sc", "agg", []string{"polling", "samplecollide"}},
		{" default ", "everything", registry.DefaultSet()},
		{"all", "sc", registry.Names()}, // -estimators all is the whole catalog, unlike -algo all
	} {
		ds, err := registry.Parse(rosterSpec(c.estSel, c.algo))
		if err != nil {
			t.Fatalf("-estimators %q -algo %q: %v", c.estSel, c.algo, err)
		}
		var got []string
		for _, d := range ds {
			got = append(got, d.Name)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("-estimators %q -algo %q = %v, want %v", c.estSel, c.algo, got, c.want)
		}
	}
	_, err := registry.Parse(rosterSpec("", "bogus"))
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) ||
		!strings.Contains(err.Error(), strings.Join(registry.Names(), ", ")) {
		t.Fatalf("unknown -algo: err = %v, want the catalog listed", err)
	}
}

// TestAlgoMatchesEstimators: one request, one answer — -algo X builds
// the very estimators the equivalent -estimators spec builds.
func TestAlgoMatchesEstimators(t *testing.T) {
	net, err := p2psize.NewNetwork(p2psize.NetworkOptions{Nodes: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := p2psize.EstimatorConfig{SCL: 50, Tours: 10, Rounds: 20, Workers: 1}
	build := func(estSel, algo string) []estimatorSpec {
		roster, err := registry.Parse(rosterSpec(estSel, algo))
		if err != nil {
			t.Fatal(err)
		}
		specs, err := selectEstimators(roster, cfg, net, 1)
		if err != nil {
			t.Fatal(err)
		}
		return specs
	}
	byAlgo, byEst := build("", "all"), build("sc,hops,agg", "")
	if len(byAlgo) != 3 || len(byEst) != 3 {
		t.Fatalf("rosters of %d and %d specs, want 3 and 3", len(byAlgo), len(byEst))
	}
	for i := range byAlgo {
		if byAlgo[i].name != byEst[i].name {
			t.Fatalf("slot %d: -algo builds %q, -estimators %q", i, byAlgo[i].name, byEst[i].name)
		}
		for run := 0; run < 2; run++ {
			a, err := byAlgo[i].make(run).Estimate(net)
			if err != nil {
				t.Fatal(err)
			}
			e, err := byEst[i].make(run).Estimate(net)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(a) != math.Float64bits(e) {
				t.Fatalf("%s run %d: -algo estimates %v, -estimators %v", byAlgo[i].name, run, a, e)
			}
		}
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
	specs, err := selectEstimators(roster, p2psize.EstimatorConfig{Tours: 10, Workers: 1}, net, 1)
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

func TestValidateModes(t *testing.T) {
	parse := func(spec string) p2psize.FaultOptions {
		f, err := p2psize.ParseFaults(spec)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, c := range []struct {
		name          string
		trace, faults string
		horizon       float64 // 0 = the flag's default
		want          string  // substring of the error; "" = accepted
	}{
		{name: "static"},
		{name: "monitoring", trace: "weibull", faults: "drop=0.05,silent=0.1"},
		{name: "partition without -trace", faults: "partition=0.5@0.4-0.6", want: "needs a timeline"},
		{name: "partition on a trace", trace: "weibull", faults: "partition=0.5@0.4-0.6"},
		{name: "sybils while monitoring", trace: "weibull", faults: "sybil=0.1", want: "sybil inflation conflicts"},
		{name: "sybils, static", faults: "sybil=0.1"},
		{name: "NaN horizon", trace: "weibull", horizon: math.NaN(), want: "-horizon NaN must be positive and finite"},
		{name: "infinite horizon", trace: "flashcrowd", horizon: math.Inf(1), want: "-horizon +Inf"},
		{name: "negative horizon", trace: "weibull", horizon: -5, want: "-horizon -5"},
		{name: "NaN horizon, static", horizon: math.NaN()},
	} {
		horizon := c.horizon
		if horizon == 0 {
			horizon = 1000
		}
		err := validateModes(c.trace, horizon, parse(c.faults))
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
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
// exit status and stderr. A child still running after a minute is
// killed and fails the test: a command line that never returns.
func runMain(t *testing.T, args string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+args)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case ctx.Err() != nil:
		t.Fatalf("p2psize %s did not return within a minute", args)
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

// TestNonFiniteHorizonExits2: -horizon NaN under -trace is a usage
// error — exit status 2 and one "p2psize:" line — not the panic a NaN
// schedule used to end in.
func TestNonFiniteHorizonExits2(t *testing.T) {
	code, stderr := runMain(t, "-nodes 200 -estimators sc -trace weibull -horizon NaN")
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
		code, stderr := runMain(t, "-nodes 1000 -algo sc -runs 1 -T "+T)
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
	code, stderr := runMain(t, "-nodes 500 -algo agg -rounds -5 -runs 1")
	if code == 0 {
		t.Fatalf("exit status 0; stderr:\n%s", stderr)
	}
	if strings.Count(stderr, "p2psize:") != 1 || !strings.Contains(stderr, "Rounds -5") {
		t.Fatalf("stderr %q: want one p2psize: error naming Rounds -5", stderr)
	}
}

// TestRemovedFlagsExit2: the shard count and the shuffle mode are the
// engine's to derive, not options, and the live-cluster mode is a
// library call (p2psize.RunCluster), not a mode of the command; naming
// any of their flags is an unknown flag.
func TestRemovedFlagsExit2(t *testing.T) {
	for _, args := range []string{
		"-shards 4", "-shuffle global",
		"-cluster 4", "-cluster-addrs a:1", "-tolerance 0.1", "-teardown",
	} {
		code, stderr := runMain(t, "-nodes 200 -algo agg -runs 1 "+args)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
			t.Errorf("%s: exit status %d, want 2 with an unknown-flag error; stderr:\n%s", args, code, stderr)
		}
	}
}
