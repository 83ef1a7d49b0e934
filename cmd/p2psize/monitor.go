package main

// Continuous-monitoring mode (-trace): build or load a churn trace,
// replay it against the overlay, and sample every selected algorithm on
// a cadence, reporting per-estimator tracking metrics.

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"p2psize"
)

type monitorOpts struct {
	traceSpec string
	topo      p2psize.Topology
	maxDeg    int
	nodes     int
	horizon   float64
	cadence   float64
	// cadences holds the -cadence name=value overrides per roster slot
	// (registry.MonitoringCadences); 0 samples every cadence time units.
	cadences  []float64
	policy    p2psize.SmoothingPolicy
	window    int
	alpha     float64
	restart   float64
	saveTrace string
	seed      uint64
	workers   int
	// faults is the -faults scenario; message-level faults are already
	// baked into the specs. Applied here: overlay surgery (silent peers)
	// and partition@lo-hi clauses, which fold onto the trace timeline
	// whatever the workload. Sybil inflation is rejected upstream (it
	// conflicts with the trace's population accounting).
	faults p2psize.FaultOptions
}

// buildTrace generates a named synthetic workload or loads a trace file
// (.json/.csv, optionally .gz). Generated workloads derive everything
// else from the option set; the initial population of a loaded trace
// overrides -nodes.
func buildTrace(o monitorOpts) (*p2psize.Trace, error) {
	if ext, _ := traceFormat(o.traceSpec); ext == ".json" || ext == ".csv" {
		return p2psize.ReadTraceFile(o.traceSpec)
	}
	base := p2psize.TraceOptions{
		Nodes:   o.nodes,
		Horizon: o.horizon,
		Seed:    o.seed + 1000,
		Name:    o.traceSpec,
		// Per-session streams on the worker pool: ~3x faster on large
		// traces, byte-identical at every worker count.
		Workers: o.workers,
	}
	switch strings.ToLower(o.traceSpec) {
	case "exponential", "exp":
		base.Sessions = p2psize.ExponentialSessions
	case "weibull":
		base.Sessions = p2psize.WeibullSessions
	case "lognormal":
		base.Sessions = p2psize.LogNormalSessions
	case "pareto":
		base.Sessions = p2psize.ParetoSessions
	case "diurnal":
		base.Sessions = p2psize.LogNormalSessions
		base.MeanSession = o.horizon / 2
		base.DiurnalAmplitude = 0.8
	case "flashcrowd":
		base.Sessions = p2psize.ExponentialSessions
		base.MeanSession = o.horizon / 2
		tr, err := p2psize.GenerateTrace(base)
		if err != nil {
			return nil, err
		}
		if err := tr.AddFlashCrowd(0.3*o.horizon, o.nodes/2, 0, o.seed+1001); err != nil {
			return nil, err
		}
		if err := tr.AddMassFailure(0.7*o.horizon, 0.25, o.seed+1002); err != nil {
			return nil, err
		}
		return tr, nil
	case "partition":
		base.Sessions = p2psize.ExponentialSessions
		base.MeanSession = o.horizon / 2
		tr, err := p2psize.GenerateTrace(base)
		if err != nil {
			return nil, err
		}
		// Canned window: half the peers split off the monitored component
		// for the middle fifth of the horizon, then the survivors rejoin.
		// A -faults partition@lo-hi clause overrides it (folded onto the
		// trace by runMonitor, like on any other workload).
		if o.faults.PartitionFrac > 0 {
			return tr, nil
		}
		if err := tr.AddPartitionHeal(0.4*o.horizon, 0.6*o.horizon, 0.5, o.seed+1001); err != nil {
			return nil, err
		}
		return tr, nil
	default:
		return nil, fmt.Errorf("unknown trace %q (want weibull, lognormal, exponential, pareto, diurnal, flashcrowd, partition or a .json/.csv file)", o.traceSpec)
	}
	return p2psize.GenerateTrace(base)
}

// traceFormat is the naming rule of both -trace files and -save-trace:
// a trailing ".gz" (any case) marks a gzip stream, and the extension
// before it, lower-cased, names the form.
func traceFormat(path string) (ext string, gzipped bool) {
	name := strings.ToLower(path)
	base := strings.TrimSuffix(name, ".gz")
	return filepath.Ext(base), base != name
}

// saveTrace writes tr to path in the form traceFormat reads off the
// name: CSV for ".csv", JSON for any other name, gzipped under ".gz".
func saveTrace(tr *p2psize.Trace, path string) error {
	ext, gzipped := traceFormat(path)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var w io.Writer = f
	var zw *gzip.Writer
	if gzipped {
		zw = gzip.NewWriter(f)
		w = zw
	}
	if ext == ".csv" {
		err = tr.WriteCSV(w)
	} else {
		err = tr.WriteJSON(w)
	}
	if zw != nil && err == nil {
		err = zw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func parsePolicy(s string) (p2psize.SmoothingPolicy, error) {
	switch strings.ToLower(s) {
	case "none", "oneshot":
		return p2psize.NoSmoothing, nil
	case "window", "lastk":
		return p2psize.WindowSmoothing, nil
	case "ewma":
		return p2psize.EWMASmoothing, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want none, window or ewma)", s)
	}
}

func runMonitor(o monitorOpts, specs []estimatorSpec) error {
	tr, err := buildTrace(o)
	if err != nil {
		return err
	}
	// A partition fault clause composes onto ANY trace workload (generated
	// or loaded): the spec's lo-hi window is relative to the trace's own
	// horizon. Folded before -save-trace so the written trace is the one
	// that actually ran.
	if f := o.faults; f.PartitionFrac > 0 {
		h := tr.Horizon()
		if err := tr.AddPartitionHeal(f.PartitionLo*h, f.PartitionHi*h, f.PartitionFrac, o.seed+1004); err != nil {
			return err
		}
		fmt.Printf("partition folded onto trace %q: %.0f%% of peers split at t=%g, heal at t=%g\n",
			tr.Name(), f.PartitionFrac*100, f.PartitionLo*h, f.PartitionHi*h)
	}
	if o.saveTrace != "" {
		if err := saveTrace(tr, o.saveTrace); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", o.saveTrace)
	}

	n := tr.InitialNodes()
	fmt.Printf("building %s overlay with %d nodes (seed %d)...\n", o.topo, n, o.seed)
	net, err := p2psize.NewNetwork(p2psize.NetworkOptions{
		Nodes: n, Topology: o.topo, MaxDegree: o.maxDeg, Seed: o.seed,
	})
	if err != nil {
		return err
	}
	if o.faults.SilentFrac > 0 {
		silenced, _, err := net.ApplyAdversary(o.faults, o.seed+4000)
		if err != nil {
			return err
		}
		fmt.Printf("adversary in place: %d peers silenced\n", silenced)
	}
	fmt.Printf("trace %q: %d joins, %d leaves over horizon %g; sampling every %g time units\n\n",
		tr.Name(), tr.Joins(), tr.Leaves(), tr.Horizon(), o.cadence)

	ests := instances(specs)
	res, err := p2psize.RunMonitor(net, tr, ests, p2psize.MonitorOptions{
		Cadence:     o.cadence,
		Cadences:    o.cadences,
		Policy:      o.policy,
		Window:      o.window,
		Alpha:       o.alpha,
		RestartJump: o.restart,
		ReplaySeed:  o.seed + 1003,
		Workers:     o.workers,
	})
	if err != nil {
		return err
	}

	times := res.Times()
	truth := res.TrueSizes()
	fmt.Printf("%8s %10s", "time", "true")
	for _, name := range res.Names() {
		fmt.Printf(" %22s", truncate(name, 22))
	}
	fmt.Println()
	step := max(1, len(times)/20) // at most ~20 rows
	for i := 0; i < len(times); i += step {
		fmt.Printf("%8.0f %10.0f", times[i], truth[i])
		for k := range res.Names() {
			fmt.Printf(" %22.0f", res.Estimates(k)[i])
		}
		fmt.Println()
	}
	fmt.Printf("\n%s", res)
	// The monitor replays the trace on one clone of net, so net itself
	// still holds the initial topology, only its meter accumulated.
	fmt.Printf("\ntotal message cost: %d across %d estimators\n", net.Messages(), len(ests))
	return nil
}

// instances builds one monitoring instance per spec: its family's run
// 0 (see selectEstimators).
func instances(specs []estimatorSpec) []p2psize.Estimator {
	ests := make([]p2psize.Estimator, len(specs))
	for k, spec := range specs {
		ests[k] = spec.make(0)
	}
	return ests
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
