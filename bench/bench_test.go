package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// toyRep runs one in-process rep at toy scale.
func toyRep(t *testing.T, w workload, seed uint64, traced bool) repResult {
	t.Helper()
	r := runRep(repRequest{workload: w, seed: seed, sz: toySizes, workers: 2, traced: traced, started: time.Now()})
	if r.Error != "" {
		t.Fatalf("%s seed %d traced %v: %s", w.name, seed, traced, r.Error)
	}
	return r
}

// TestWorkloadsAtToyScale runs every workload untraced, traced and on a
// second seed, and checks what the benchmark promises about them.
func TestWorkloadsAtToyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads; skipped in -short")
	}
	measured := make(map[string]bool) // ledger rows some traced rep measured
	for _, w := range workloads {
		plain := toyRep(t, w, 1, false)
		traced := toyRep(t, w, 1, true)
		other := toyRep(t, w, 2, false)

		values := endToEndValues(plain)
		for _, def := range endToEnd {
			v, ok := values[def.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, %v", w.name, def.Name, v, ok)
			}
		}
		if len(values) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end values for %d metrics", w.name, len(values), len(endToEnd))
		}
		if plain.Attempted < 1 || plain.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, plain.Failed, plain.Attempted)
		}

		// The decorators must not change what the monitor does: same
		// replay groups, same outputs, same work.
		if traced.Checksum != plain.Checksum || traced.Groups != plain.Groups ||
			traced.Messages != plain.Messages || traced.Events != plain.Events {
			t.Errorf("%s: traced rep (%s, %d groups, %d msgs, %d events) differs from untraced (%s, %d, %d, %d)",
				w.name, traced.Checksum, traced.Groups, traced.Messages, traced.Events,
				plain.Checksum, plain.Groups, plain.Messages, plain.Events)
		}
		if other.Checksum == plain.Checksum {
			t.Errorf("%s: seeds 1 and 2 produced the same checksum %s", w.name, plain.Checksum)
		}

		checkSpans(t, w.name, traced.Spans)
		for name, v := range traced.Layers {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: layer metric %s = %v", w.name, name, v)
			}
			measured[name] = true
		}
	}
	measured["trace_overhead_pct"] = true // derived by the parent from two reps
	// Between them the five traced reps measure the whole ledger, and
	// nothing outside it.
	for _, def := range perLayer {
		if !measured[def.Name] {
			t.Errorf("no traced rep measured ledger row %s", def.Name)
		}
		delete(measured, def.Name)
	}
	for name := range measured {
		t.Errorf("a traced rep measured %s, which the ledger does not list", name)
	}
}

// checkSpans verifies the trace is a forest: IDs dense, every parent an
// earlier span that encloses its child's start.
func checkSpans(t *testing.T, workload string, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Errorf("%s: traced rep recorded no spans", workload)
	}
	for i, s := range spans {
		if s.ID != i+1 || s.Workload != workload || s.EndNS < s.StartNS {
			t.Errorf("%s: malformed span %+v at index %d", workload, s, i)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent >= s.ID {
			t.Errorf("%s: span %d (%s) has parent %d", workload, s.ID, s.Name, s.Parent)
			continue
		}
		if p := spans[s.Parent-1]; s.StartNS < p.StartNS || s.StartNS > p.EndNS {
			t.Errorf("%s: span %d (%s) starts outside its parent %d (%s)", workload, s.ID, s.Name, p.ID, p.Name)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 60},  // overlaps 2
		{ID: 4, Parent: 1, StartNS: 35, EndNS: 38},  // inside both
		{ID: 5, Parent: 1, StartNS: 80, EndNS: 120}, // runs past the parent
		{ID: 6, Parent: 2, StartNS: 10, EndNS: 40},  // grandchild: not the parent's business
	}
	if got := covered(0, 100, children(spans, 1)); got != 70 {
		t.Errorf("children cover %d ns, want 70", got)
	}
	if got := selfTime(spans, spans[0]); got != 30 {
		t.Errorf("self time %d ns, want 30", got)
	}
	if got := selfTime(spans, spans[1]); got != 0 {
		t.Errorf("self time of a fully covered span %d ns, want 0", got)
	}
	if got := selfTime(spans, spans[2]); got != 30 {
		t.Errorf("self time of a leaf %d ns, want its duration 30", got)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNamesAndCounts(t *testing.T) {
	seen := make(map[string]bool)
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
	}
	for _, def := range endToEnd {
		check("end-to-end", def.Name)
	}
	for _, def := range perLayer {
		check("per-layer", def.Name)
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(endToEnd); n != 7 || len(driverEndToEnd()) > 16 {
		t.Errorf("%d end-to-end metrics, want 7", n)
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128 fit", n)
	}
	if len(suiteIDs) != 33 {
		t.Errorf("the frozen suite list has %d ids, want 33", len(suiteIDs))
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the names the program
// emits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(keys))
	}
	if !reflect.DeepEqual(file.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", file.Command, file.Paths)
	}
	if file.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, the measured phases are sized to %d", file.RunSeconds, nominalSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the program has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, the program has %q: %q", i, file.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics listed, the program emits %d", kind, len(listed), len(defs))
			return
		}
		for i, def := range defs {
			m := listed[i]
			if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better {
				t.Errorf("%s metric %d is %+v, the program emits %+v", kind, i, m, def)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != def.Bound || def.Bound <= 0 || def.Bound > 0.25):
				t.Errorf("%s metric %s: bound %v, the program uses %v", kind, m.Name, m.Bound, def.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s metric %s has a bound", kind, m.Name)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, driverEndToEnd(), true)
	compare("per_layer", file.PerLayer, perLayer, false)
}

func TestGoldenCoversEveryWorkload(t *testing.T) {
	var golden map[string]goldenEntry
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if e, ok := golden[w.name]; !ok || e.Checksum == "" {
			t.Errorf("golden.json has no entry for %s", w.name)
		}
	}
	if len(golden) != len(workloads) {
		t.Errorf("golden.json has %d entries for %d workloads", len(golden), len(workloads))
	}
}

func TestCompareMetric(t *testing.T) {
	sum := func(vs ...float64) summary { return summarize("", vs) }
	lower := metricDef{Name: "run_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim_events_per_s", Better: "higher", Bound: 0.10}
	mape := metricDef{Name: "est_mape_pct", Better: "lower", Bound: 0.10, Slack: 0.5, Exact: true}
	failed := metricDef{Name: "ops_failed_share", Better: "lower", Exact: true}
	cases := []struct {
		name string
		def  metricDef
		a, b summary
		want string
	}{
		{"within the bound", lower, sum(10, 10.1, 10.2), sum(10.5, 10.6, 10.7), verdictOK},
		{"slower than the bound", lower, sum(10, 10.1, 10.2), sum(11.5, 11.6, 11.7), verdictRegressed},
		{"faster", lower, sum(10, 10.1, 10.2), sum(8, 8.1, 8.2), verdictOK},
		{"too noisy to tell", lower, sum(9, 10, 11.5), sum(10, 11.6, 12), verdictUnresolved},
		{"noisy but better on every run", lower, sum(9, 10, 11.5), sum(6, 7, 8.5), verdictOK},
		{"rate dropped", higher, sum(100, 101, 102), sum(85, 86, 87), verdictRegressed},
		{"rate rose", higher, sum(100, 101, 102), sum(120, 121, 122), verdictOK},
		{"error up 30% but only 0.3 points", mape, sum(1.0), sum(1.3), verdictOK},
		{"error up 0.8 points but only 4%", mape, sum(20), sum(20.8), verdictOK},
		{"error up 20% and 4 points", mape, sum(20), sum(24), verdictRegressed},
		{"no failures either side", failed, sum(0), sum(0), verdictOK},
		{"a first failure", failed, sum(0), sum(0.01), verdictRegressed},
	}
	for _, c := range cases {
		if got := compareMetric(c.def, c.a, c.b).Verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestGateCatchesDisagreeingReps(t *testing.T) {
	rep := func(checksum string) repResult {
		return repResult{RunS: 1, SetupS: 1, outcome: outcome{Checksum: checksum, Attempted: 10}}
	}
	w := workloadResult{Name: "w"}
	w.add(rep("aa"))
	w.add(rep("aa"))
	w.finish()
	if !w.Correct || w.Failed != 0 {
		t.Errorf("agreeing reps: correct %v, failed %d, problems %v", w.Correct, w.Failed, w.Problems)
	}
	w = workloadResult{Name: "w"}
	w.add(rep("aa"))
	w.add(rep("bb"))
	w.finish()
	if w.Correct || w.Failed != w.Attempted {
		t.Errorf("disagreeing reps: correct %v, %d of %d failed", w.Correct, w.Failed, w.Attempted)
	}
	w = workloadResult{Name: "w"}
	w.add(repResult{Error: "boom"})
	w.finish()
	if w.Correct {
		t.Error("a rep that failed outright passed the gate")
	}
}

// TestDriverLine checks the last line of the driver's contract: exactly
// four keys, and exactly the metrics BENCHMARK.json lists for the mode.
func TestDriverLine(t *testing.T) {
	w := workloadResult{Name: "w"}
	w.add(repResult{RunS: 2, SetupS: 1, AllocBytes: 1 << 20, PeakRSSKB: 2048, outcome: outcome{Checksum: "aa", Messages: 10, Attempted: 4}})
	w.add(repResult{Traced: true, RunS: 2.1, outcome: outcome{Checksum: "aa", Messages: 10, Attempted: 4}, Layers: map[string]float64{"xrand.uint64_ns": 2}})
	w.finish()
	for _, traced := range []bool{false, true} {
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(w.driverLine(traced)), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 {
			t.Errorf("traced %v: result line has keys %v", traced, line)
		}
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := driverEndToEnd()
		if traced {
			defs = perLayer
		}
		if len(metrics) != len(defs) {
			t.Errorf("traced %v: %d metrics, want %d", traced, len(metrics), len(defs))
		}
		for _, def := range defs {
			if m, ok := metrics[def.Name]; !ok || m.Value == nil || m.Unit != def.Unit {
				t.Errorf("traced %v: metric %s is %+v", traced, def.Name, m)
			}
		}
	}
	if string(mustField(t, w.driverLine(false), "attempted")) != "4" {
		t.Errorf("attempted is not the rep's count: %s", w.driverLine(false))
	}
}

func mustField(t *testing.T, line, key string) json.RawMessage {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &fields); err != nil {
		t.Fatal(err)
	}
	return fields[key]
}
