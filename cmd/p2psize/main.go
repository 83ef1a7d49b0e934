// Command p2psize runs decentralized size estimations on a simulated
// peer-to-peer overlay and reports accuracy and message overhead.
//
// Examples:
//
//	p2psize -nodes 100000 -estimators sc -l 200 -runs 10
//	p2psize -nodes 100000 -estimators hops -runs 10 -policy window
//	p2psize -nodes 100000 -estimators agg -rounds 50
//	p2psize -nodes 100000 -runs 5
//
// With -trace the command switches from repeated static estimations to
// continuous monitoring: the overlay evolves under a churn trace
// (generated, or loaded from a .json/.csv file) and every selected
// algorithm is sampled each -cadence time units, reporting tracking
// error, staleness and message budget.
//
//	p2psize -nodes 100000 -trace weibull -horizon 1000
//	p2psize -nodes 50000 -estimators sc -trace flashcrowd -policy window -restart-jump 0.5
//	p2psize -trace measured.csv.gz -cadence 5
//
// -estimators selects algorithms from the estimator registry by name or
// alias: a list ("sc,hops,agg", the paper's three candidates and the
// flag's default), "all" (every registered family) or "default" (the
// registry's monitoring roster). -cadence accepts a per-estimator spec in
// monitoring mode, a base tick plus name=value overrides, so cheap
// estimators can sample often while expensive ones sample rarely in the
// same run:
//
//	p2psize -estimators sc,poll,agg -trace weibull -cadence 5,agg=50
//	p2psize -estimators list
//
// -faults runs every selected algorithm under a degraded-network
// scenario: message-level faults (drop/delay/dup/lie) decorate each
// estimator with a deterministic fault injector, silent=/sybil=
// reshape the overlay before estimating, and -trace partition replays
// a partition-and-heal churn workload:
//
//	p2psize -nodes 100000 -estimators all -faults drop=0.05,delay=2x
//	p2psize -estimators sc,hops -trace partition -policy window
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"p2psize"
	"p2psize/internal/core"
	"p2psize/internal/epidemic"
	"p2psize/internal/hopssampling"
	"p2psize/internal/monitor"
	"p2psize/internal/parallel"
	"p2psize/internal/prof"
	"p2psize/internal/registry"
	"p2psize/internal/samplecollide"
	"p2psize/internal/xrand"
)

func main() {
	var (
		nodes    = flag.Int("nodes", 10000, "overlay size")
		topology = flag.String("topology", "heterogeneous", "heterogeneous (het) | homogeneous (hom) | scale-free (scalefree, ba) | ring | small-world")
		maxDeg   = flag.Int("maxdeg", 0, "degree cap (0 = paper default)")
		l        = flag.Int("l", samplecollide.DefaultL, "Sample&Collide collision target")
		timer    = flag.Float64("T", samplecollide.DefaultT, "Sample&Collide walk timer")
		mle      = flag.Bool("mle", false, "use the MLE refinement for Sample&Collide")
		rounds   = flag.Int("rounds", epidemic.DefaultRounds, "Aggregation rounds per estimation")
		minHops  = flag.Int("minhops", hopssampling.DefaultMinHops, "HopsSampling minHopsReporting")
		runs     = flag.Int("runs", 5, "estimations per algorithm")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		workers  = flag.Int("workers", 0, "worker pool size (0 = all CPUs, 1 = sequential): estimation runs, or under -trace the estimators due at a tick, after the one replay has advanced; output is identical at any setting")

		estSel = flag.String("estimators", candidates, "select algorithms from the estimator registry (comma-separated names/aliases, \"all\", \"default\", or \"list\" to print the catalog)")

		faults = flag.String("faults", "", "fault scenario every selected algorithm runs under, e.g. \"drop=0.05,delay=2x,lie=10@0.05\"; silent=/sybil= reshape the overlay, partition@lo-hi folds onto the -trace timeline")

		traceSpec = flag.String("trace", "", "monitor under churn: weibull | lognormal | exponential | pareto | diurnal | flashcrowd | partition, or a trace file (.json/.csv, optionally .gz)")
		horizon   = flag.Float64("horizon", 1000, "trace duration in simulated time units (generated traces)")
		cadence   = flag.String("cadence", fmt.Sprint(defaultCadence), "monitor sampling spec: a base tick and/or per-estimator name=value overrides, e.g. \"10\", \"5,agg=50\", \"hops=1,agg=10\"")
		policy    = flag.String("policy", "none", "smoothing: none | window (static runs: the lastKruns heuristic) | ewma (needs -trace)")
		window    = flag.Int("window", core.LastK, "window smoothing length")
		alpha     = flag.Float64("alpha", monitor.DefaultAlpha, "EWMA smoothing weight")
		restart   = flag.Float64("restart-jump", 0, "restart smoothing when a raw estimate jumps by this relative fraction (0 = off)")
		saveTrace = flag.String("save-trace", "", "write the trace to this path (.json or .csv, optionally .gz) before monitoring")
	)
	profiles := prof.Register(flag.CommandLine)
	flag.Parse()
	stop, err := profiles.Start()
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer stop()

	if strings.EqualFold(strings.TrimSpace(*estSel), "list") {
		listEstimators()
		return
	}
	topo, err := parseTopology(*topology)
	if err != nil {
		fatal(err)
	}
	cfg := p2psize.EstimatorConfig{
		SCTimer: *timer, SCL: *l, SCMLE: *mle,
		// Random Tour cost is Θ(N) per tour: average 10 in one-shot runs,
		// but 3 per sample when monitoring.
		Tours:   10,
		MinHops: *minHops,
		Rounds:  *rounds,
	}
	if *traceSpec != "" {
		cfg.Tours = 3
	}
	fopts, err := p2psize.ParseFaults(*faults)
	if err != nil {
		fatal(err)
	}
	pol, err := parsePolicy(*policy)
	if err != nil {
		fatal(err)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateModes(set, *traceSpec, pol, *window, *horizon, fopts); err != nil {
		fatalUsage(err)
	}

	roster, err := registry.Parse(*estSel)
	if err != nil {
		fatal(err)
	}
	// Split the CPU budget between the fan-out (static runs, or the
	// roster's instances under -trace) and the sweep inside each
	// Aggregation round, as the experiments layer does.
	width := *runs
	if *traceSpec != "" {
		width = len(roster)
	}
	_, cfg.Workers = parallel.Split(*workers, width)

	if *traceSpec != "" {
		baseCadence, perCadence, err := registry.ParseCadenceSpec(*cadence)
		if err != nil {
			fatal(err)
		}
		if baseCadence == 0 {
			baseCadence = defaultCadence
		}
		cadences, err := registry.MonitoringCadences(roster, perCadence)
		if err != nil {
			fatal(err)
		}
		specs, err := selectEstimators(roster, cfg, nil, fopts, *seed)
		if err != nil {
			fatal(err)
		}
		if err := runMonitor(monitorOpts{
			traceSpec: *traceSpec, topo: topo, maxDeg: *maxDeg, nodes: *nodes,
			horizon: *horizon, cadence: baseCadence, cadences: cadences,
			policy: pol, window: *window, alpha: *alpha, restart: *restart,
			saveTrace: *saveTrace, seed: *seed, workers: *workers,
			faults: fopts,
		}, specs); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("building %s overlay with %d nodes (seed %d)...\n", topo, *nodes, *seed)
	net, err := p2psize.NewNetwork(p2psize.NetworkOptions{
		Nodes: *nodes, Topology: topo, MaxDegree: *maxDeg, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("overlay ready: %d peers, average degree %.2f, connected=%v\n\n",
		net.Size(), net.AvgDegree(), net.IsConnected())

	// Error is judged against the honest population: silent peers still
	// count (alive, just unresponsive), sybils never do. The adversary
	// moves in before the estimators are built, so snapshot-based
	// families (id-density) see the degraded overlay — sybil records
	// registered, silent peers' records lingering.
	honest := float64(net.Size())
	if fopts.SilentFrac > 0 || fopts.SybilFrac > 0 {
		silenced, sybils, err := net.ApplyAdversary(fopts, *seed+4000)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("adversary in place: %d peers silenced, %d sybils joined (%.0f honest peers)\n\n",
			silenced, sybils, honest)
	}

	// The registry path hands the overlay to the factories so snapshot-
	// based families (id-density) can derive their state from it.
	specs, err := selectEstimators(roster, cfg, net, fopts, *seed)
	if err != nil {
		fatal(err)
	}

	for _, spec := range specs {
		net.ResetMessages()
		// Every run builds its own estimator from a run-indexed seed, so
		// the values are byte-identical at any -workers setting.
		vals, err := p2psize.RunParallel(spec.make, net, *runs, *workers)
		if err != nil {
			fatal(err) // the run loop's error already names the estimator
		}
		name := spec.name
		if pol == p2psize.WindowSmoothing {
			vals = p2psize.SmoothLastK(vals, *window)
			name += fmt.Sprintf("/last%druns", *window)
		}
		reportRun(name, vals, honest, net)
	}
}

// topologyAliases are the short spellings -topology accepts beside each
// topology's String() name.
var topologyAliases = map[string]p2psize.Topology{
	"het": p2psize.Heterogeneous, "hom": p2psize.Homogeneous,
	"scalefree": p2psize.ScaleFree, "ba": p2psize.ScaleFree,
}

func parseTopology(s string) (p2psize.Topology, error) {
	name := strings.ToLower(s)
	for t := p2psize.Heterogeneous; t <= p2psize.SmallWorld; t++ {
		if name == t.String() {
			return t, nil
		}
	}
	if t, ok := topologyAliases[name]; ok {
		return t, nil
	}
	return 0, fmt.Errorf("unknown topology %q", s)
}

// estimatorSpec names an algorithm and builds one independent estimator
// per run index (see selectEstimators for its streams).
type estimatorSpec struct {
	name string
	make func(run int) p2psize.Estimator
}

// defaultCadence is -cadence's default, and the base tick of a spec
// that names none.
const defaultCadence = 10

// candidates is -estimators' default: the paper's three candidates, one
// per counting family (§IV).
const candidates = "sc,hops,agg"

// listEstimators prints the registry catalog (-estimators list).
func listEstimators() {
	fmt.Printf("%-28s %-22s %-9s %s\n", "name (aliases)", "class", "snapshot", "summary")
	for _, in := range p2psize.Estimators() {
		name := in.Name
		if len(in.Aliases) > 0 {
			name += " (" + strings.Join(in.Aliases, ", ") + ")"
		}
		fmt.Printf("%-28s %-22s %-9v %s\n", name, in.Class, in.Snapshot, in.Summary)
	}
	fmt.Printf("\n-estimators default: %s\n", strings.Join(p2psize.DefaultEstimators(), ", "))
	fmt.Printf("no -estimators flag: %s\n", candidates)
}

// selectEstimators builds the roster's per-run factories through the
// registry (net lets snapshot-based families build their state), under
// the scenario's message-level faults if it has any. Every stream is
// keyed by family, never by roster slot, so a family's numbers do not
// depend on the families beside it: run r draws its estimator seed from
// the (seed+1000+StreamOffset, r) stream and its fault seed from the
// (seed+5000+StreamOffset, r) stream. Runs never share a stream,
// whatever the worker scheduling. A monitored instance is run 0.
func selectEstimators(roster []registry.Descriptor, cfg p2psize.EstimatorConfig, net *p2psize.Network, f p2psize.FaultOptions, seed uint64) ([]estimatorSpec, error) {
	specs := make([]estimatorSpec, 0, len(roster))
	for _, d := range roster {
		// Validate the configuration once, eagerly — a bad option or a
		// family that needs an overlay must fail here, not mid-run. The
		// probe instance also supplies the display name: construction can
		// be expensive (id-density builds its ring from the whole
		// overlay), so it must not be repeated just for a label.
		probe, err := p2psize.NewEstimatorByName(d.Name, cfg, net)
		if err != nil {
			return nil, err
		}
		name, seedBase, faultBase := d.Name, seed+1000+d.StreamOffset, seed+5000+d.StreamOffset
		mk := func(run int) p2psize.Estimator {
			c := cfg
			c.Seed = xrand.NewStream(seedBase, uint64(run)).Uint64()
			e, err := p2psize.NewEstimatorByName(name, c, net)
			if err == nil && f.MessageFaults() {
				e, err = p2psize.ApplyFaults(e, f, xrand.NewStream(faultBase, uint64(run)).Uint64())
			}
			if err != nil {
				fatal(err) // unreachable: validated above, and the spec at parse time
			}
			return e
		}
		specs = append(specs, estimatorSpec{name: probe.Name(), make: mk})
	}
	if f.MessageFaults() {
		fmt.Printf("fault scenario: %s\n\n", f)
	}
	return specs, nil
}

func reportRun(name string, vals []float64, truth float64, net *p2psize.Network) {
	var sum, sumAbsErr float64
	for _, v := range vals {
		sum += v
		sumAbsErr += math.Abs(v/truth-1) * 100
	}
	mean := sum / float64(len(vals))
	fmt.Printf("%s\n", name)
	fmt.Printf("  estimates: %s\n", formatVals(vals))
	fmt.Printf("  mean %.0f (true %.0f), mean |error| %.1f%%\n",
		mean, truth, sumAbsErr/float64(len(vals)))
	fmt.Printf("  messages: %d total (%.0f per estimation)\n",
		net.Messages(), float64(net.Messages())/float64(len(vals)))
	byKind := net.MessagesByKind()
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("    %-14s %d\n", k, byKind[k])
	}
	fmt.Println()
}

func formatVals(vals []float64) string {
	parts := make([]string, 0, len(vals))
	for _, v := range vals {
		parts = append(parts, fmt.Sprintf("%.0f", v))
	}
	if len(parts) > 8 {
		parts = append(parts[:8], "...")
	}
	return strings.Join(parts, " ")
}

// validateModes is the single chokepoint for flag combinations the
// command cannot honor: every one is rejected here, before any work
// starts, through one usage-error path. set holds the flags the command
// line names (flag.Visit): a flag the chosen mode would ignore is an
// error, not a silent no-op. -nodes beside a trace file is not one: the
// file's population overrides it by design.
func validateModes(set map[string]bool, traceSpec string, pol p2psize.SmoothingPolicy, window int, horizon float64, f p2psize.FaultOptions) error {
	monitoring := traceSpec != ""
	if monitoring && set["runs"] {
		return errors.New("-runs counts static estimations; under -trace, -cadence sets how often each algorithm estimates")
	}
	if !monitoring {
		for _, name := range []string{"horizon", "cadence", "alpha", "restart-jump", "save-trace"} {
			if set[name] {
				return fmt.Errorf("-%s applies only to monitoring; add -trace", name)
			}
		}
	}
	switch {
	case monitoring && (!(horizon > 0) || math.IsInf(horizon, 1)):
		return fmt.Errorf("-horizon %g must be positive and finite", horizon)
	case !monitoring && pol == p2psize.EWMASmoothing:
		return errors.New("-policy ewma needs -trace; static runs smooth with -policy window")
	case set["window"] && pol != p2psize.WindowSmoothing:
		return errors.New("-window sets the length of -policy window; add it")
	case set["alpha"] && pol != p2psize.EWMASmoothing:
		return errors.New("-alpha sets the weight of -policy ewma; add it")
	case pol == p2psize.WindowSmoothing && window < 1:
		return fmt.Errorf("-window %d must be at least 1", window)
	case set["restart-jump"] && pol == p2psize.NoSmoothing:
		return errors.New("-restart-jump needs smoothing state to discard; use -policy window or -policy ewma")
	case !monitoring && f.PartitionFrac > 0:
		return fmt.Errorf("-faults: a partition needs a timeline to split and heal across; add -trace (the partition@lo-hi window folds onto any trace workload)")
	case monitoring && f.SybilFrac > 0:
		return fmt.Errorf("-faults: sybil inflation conflicts with the trace's population accounting in monitoring mode; use cmd/figures -only robustness-adversary")
	}
	return nil
}

// stopProfiles ends -cpuprofile/-memprofile/-exectrace; fatal calls it because
// os.Exit skips main's deferred call.
var stopProfiles = func() {}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, errLine(err))
	os.Exit(1)
}

func fatalUsage(err error) {
	fmt.Fprintln(os.Stderr, errLine(err))
	fmt.Fprintln(os.Stderr, "run p2psize -h for usage")
	os.Exit(2)
}

// errLine is the line fatal and fatalUsage print for err: the command's
// prefix once, also for the library's errors, which carry it already.
func errLine(err error) string {
	return "p2psize: " + strings.TrimPrefix(err.Error(), "p2psize: ")
}
