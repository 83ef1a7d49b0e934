package main

// Metric names. The end-to-end list and the per-layer ledger are
// defined once, here; BENCHMARK.json repeats them and a test holds the
// two together.

import (
	"fmt"
	"slices"
	"strings"

	"p2psize/internal/stats"
)

// metricDef describes one metric the way BENCHMARK.json does.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare (and the driver) call it a
	// regression. Per-layer metrics have none.
	Bound float64
	// Slack is an absolute amount the metric must worsen by as well;
	// it keeps a relative bound from firing on a tiny baseline.
	Slack float64
	// Exact marks a metric that is a pure function of the seed: two
	// runs of one program at one seed read the same, so -compare can
	// hold it to a tight rule. Across seeds it moves with the inputs by
	// more than any bound the driver accepts (and one of the two is
	// normally 0), so the driver's contract carries the failed-operation
	// count in its own fields and BENCHMARK.json lists the other five.
	Exact bool
}

// endToEnd lists what a user of the system sees, on every workload.
var endToEnd = []metricDef{
	// From the moment the parent starts the child to the measured call:
	// process start, overlay build, trace generation and compositors,
	// estimator construction.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Wall time of the measured call.
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Metered protocol messages plus replayed join/leave events, both
	// exact counts, per second of run_s: host speed in simulated events,
	// comparable across resized workloads.
	{Name: "sim_events_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	// MemStats.TotalAlloc delta over the measured call.
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	// VmHWM of the child process.
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	// Roster-mean MAPE of the served estimates: worse by more than 10 %
	// and by more than half a point is a regression.
	{Name: "est_mape_pct", Unit: "%", Better: "lower", Bound: 0.10, Slack: 0.5, Exact: true},
	// Failed over attempted operations: any increase is a regression.
	{Name: "ops_failed_share", Unit: "share", Better: "lower", Exact: true},
}

// driverEndToEnd is the part of endToEnd the driver's result line and
// BENCHMARK.json carry.
func driverEndToEnd() []metricDef {
	var out []metricDef
	for _, def := range endToEnd {
		if !def.Exact {
			out = append(out, def)
		}
	}
	return out
}

// endToEndValues derives the end-to-end metrics of one untraced rep.
func endToEndValues(r repResult) map[string]float64 {
	const mb = 1 << 20
	return map[string]float64{
		"setup_s":          r.SetupS,
		"run_s":            r.RunS,
		"sim_events_per_s": float64(r.Messages+r.Events) / r.RunS,
		"alloc_mb":         float64(r.AllocBytes) / mb,
		"peak_rss_mb":      float64(r.PeakRSSKB) * 1024 / mb,
		"est_mape_pct":     r.MAPE,
		"ops_failed_share": float64(r.Failed) / float64(max(r.Attempted, 1)),
	}
}

var (
	// registryFamilies are the nine estimator families by canonical
	// registry name.
	registryFamilies = []string{
		"samplecollide", "randomtour", "hopssampling", "aggregation", "idspace",
		"polling", "pushsum", "capturerecapture", "dht",
	}
	// engineFamilies are the three users of parallel.RoundEngine.
	engineFamilies = []string{"aggregation", "pushsum", "cyclon"}
	// clusterFamilies is the cluster workload's roster.
	clusterFamilies = []string{"samplecollide", "hopssampling", "aggregation"}
	// experimentClasses are the suite's experiment classes.
	experimentClasses = []string{"static", "dynamic", "trace", "ext", "robustness", "table"}
	// namedExperiments get a ledger row of their own: the slowest static,
	// dynamic and trace experiment.
	namedExperiments = []string{"fig06", "fig16", "trace-flashcrowd"}
)

// perLayer is the ledger: every per-layer metric, in print order. A
// metric's unit is spelled by its name's suffix.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: betterOf(n)})
		}
	}
	add("ns", "xrand.uint64_ns", "xrand.intn_ns")

	add("s", "graph.build_s")
	add("B", "graph.bytes_per_node")
	add("ns", "graph.walk_step_ns.100k", "graph.walk_step_ns.1m", "graph.alive_at_ns.1m",
		"graph.neighbors_scan_ns_per_node")
	add("us", "graph.clone_cow_us")
	add("ns", "graph.mutate_cold_ns", "graph.mutate_warm_ns")
	add("share", "graph.cow_owned_pages_share")

	add("ns", "overlay.send_ns", "overlay.send_fault_ns", "overlay.send_loopback_ns",
		"overlay.join_ns", "overlay.leave_ns", "overlay.random_peer_ns", "metrics.counter_add_ns")
	add("%", "fault.decorate_overhead_pct")

	add("ns", "transport.frame_encode_ns", "transport.frame_decode_ns")
	add("B", "transport.frame_bytes")
	add("1/s", "transport.udp_oneway_per_s")
	add("us", "transport.udp_rtt_us_p50", "transport.udp_rtt_us_p99")
	add("count", "transport.udp_retransmits")

	add("s", "cluster.bootstrap_s", "cluster.wire_s", "cluster.estimate_s")
	add("1/s", "cluster.frames_per_s")
	for _, f := range clusterFamilies {
		add("ms", "cluster."+f+".sample_ms")
	}

	add("ns", "parallel.map_task_overhead_ns")
	for _, f := range engineFamilies {
		for _, mode := range []string{"seq", "shard"} {
			for _, tier := range []string{"100k", "1m"} {
				add("ns", fmt.Sprintf("parallel.%s.round_ns_per_node.%s.%s", f, mode, tier))
			}
		}
		add("x", "parallel."+f+".shard_speedup.1m")
		add("count", "parallel."+f+".round_allocs")
	}

	for _, f := range registryFamilies {
		add("ms", "family."+f+".estimate_ms_p50")
		add("count", "family."+f+".msgs_per_estimate")
		add("ns", "family."+f+".ns_per_msg")
		add("share", "family."+f+".busy_share")
	}

	add("s", "trace.generate_s")
	add("1/s", "trace.generate_events_per_s")
	add("s", "trace.new_player_s")
	add("us", "trace.replay_us_per_event")
	add("MB/s", "trace.read_csv_mb_per_s")
	add("s", "monitor.self_s")
	add("share", "monitor.replay_share")
	add("count", "monitor.groups")
	add("us", "churn.runner_step_us")

	for _, c := range experimentClasses {
		add("s", "experiments.class."+c+".wall_s")
	}
	add("share", "experiments.sched_efficiency", "experiments.slowest_id_share")
	for _, id := range namedExperiments {
		add("s", "experiments."+id+".wall_s")
	}

	add("%", "trace_overhead_pct")
	return defs
}

// betterOf gives the direction in which a per-layer metric improves:
// rates, speed-ups and efficiency up, every cost down.
func betterOf(name string) string {
	for _, s := range []string{"_per_s", "speedup", "efficiency"} {
		if strings.Contains(name, s) {
			return "higher"
		}
	}
	return "lower"
}

// summary condenses one metric's per-rep values.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) summary {
	if len(values) == 0 {
		return summary{Unit: unit}
	}
	return summary{
		Unit: unit, Values: values,
		Median: stats.Median(values), Min: slices.Min(values), Max: slices.Max(values),
	}
}
