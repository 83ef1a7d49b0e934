// Command bench is the repository's benchmark: five workloads, seven
// end-to-end metrics and a per-layer ledger, measured from outside the
// program under test. See README.md in this directory.
//
//	go run ./bench -seed 1 -reps 3 -out bench/out/results.json
//	go run ./bench -trace bench/out/trace.json
//	go run ./bench -compare a.json b.json
//	go run ./bench --workload monitor-walks-1m --seed 7 --seconds 10 --trace 0
//
// The last form is the driver's: one workload, and as the last line of
// standard output one JSON object with the keys correct, attempted,
// failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// nominalSeconds is the length the measured phases are sized to on the
// reference box; -seconds is honoured in multiples of it.
const nominalSeconds = 10

// minSetups is how many samples of setup_s a workload gets at least.
const minSetups = 3

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload and end with the one-line JSON result (default: all five)")
		seed         = flag.Uint64("seed", 1, "derives every graph, trace, estimator and replay seed")
		seconds      = flag.Int("seconds", 0, "measure each workload for about this long: one rep per 10 s (0 = go by -reps)")
		traceFlag    = flag.String("trace", "0", "1, or a file to write the spans to: add one traced rep per workload and report the per-layer ledger")
		reps         = flag.Int("reps", 0, "measured reps per workload, each in its own process (default 3; 1 with -trace)")
		out          = flag.String("out", "", "write the full result (environment, per-rep values, ledger) to this JSON file")
		compare      = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		updateGolden = flag.Bool("update-golden", false, "with -seed 1: rewrite bench/golden.json from this run instead of checking against it")

		child     = flag.Bool("child", false, "internal: run one rep and print its result")
		traced    = flag.Bool("traced", false, "internal: the child's rep is the traced one")
		setupOnly = flag.Bool("setup-only", false, "internal: the child stops before the measured phase")
		started   = flag.Int64("started", 0, "internal: when the parent started the child, Unix ns")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf(2, "usage: bench -compare a.json b.json")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if flag.NArg() != 0 {
		fatalf(2, "unexpected arguments %q", flag.Args())
	}
	if *child {
		os.Exit(runChild(*workloadName, *seed, *traced, *setupOnly, *started))
	}

	env, err := probeEnvironment()
	if err != nil {
		fatalf(2, "%v", err)
	}
	p := plan{seed: *seed, sz: fullSizes, env: env, workloads: workloads}
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fatalf(2, "unknown workload %q", *workloadName)
		}
		p.workloads = []workload{w}
	}
	tracePath := ""
	switch *traceFlag {
	case "0", "":
	case "1":
		p.traced = true
	default:
		p.traced, tracePath = true, *traceFlag
	}
	switch {
	case *reps > 0:
		p.reps = *reps
	case p.traced:
		p.reps = 1 // the untraced rep is only the overhead baseline
	case *seconds > 0:
		p.reps = max(1, (*seconds+nominalSeconds/2)/nominalSeconds)
	default:
		p.reps = 3
	}
	if !p.traced {
		p.setups = max(0, minSetups-p.reps)
	}

	fmt.Fprintf(os.Stderr, "bench: load average %.2f on %d processors\n", env.Load1, env.NProc)
	if env.Noisy {
		fmt.Fprintln(os.Stderr, "bench: the box is busy; the result will be flagged noisy")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	result, err := p.run(ctx)
	if err != nil {
		fatalf(1, "%v", err)
	}
	if *updateGolden {
		if err := writeGolden(result); err != nil {
			fatalf(1, "%v", err)
		}
	} else {
		result.checkGolden()
	}
	result.print(os.Stdout)
	if *out != "" {
		if err := writeJSON(*out, result); err != nil {
			fatalf(1, "%v", err)
		}
	}
	if tracePath != "" {
		if err := writeJSON(tracePath, result.spans()); err != nil {
			fatalf(1, "%v", err)
		}
	}
	if *workloadName != "" {
		fmt.Println(result.Workloads[0].driverLine(p.traced))
	}
	if !result.correct() {
		os.Exit(1)
	}
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runChild is the child side of the protocol: one rep, its result as
// JSON on standard output.
func runChild(name string, seed uint64, traced, setupOnly bool, startedNS int64) int {
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	env, err := probeEnvironment()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	res := runRep(repRequest{
		workload: w, seed: seed, sz: fullSizes, workers: env.Workers,
		traced: traced, setupOnly: setupOnly, started: time.Unix(0, startedNS),
	})
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// plan is one invocation's schedule.
type plan struct {
	seed      uint64
	sz        sizes
	env       environment
	workloads []workload
	// reps full untraced reps and setups set-up-only reps per workload,
	// plus one traced rep when traced.
	reps, setups int
	traced       bool
}

// run executes the plan. Workloads are interleaved round-robin across
// reps (w1…w5, w1…w5, …) so that machine drift hits all alike, and
// there is no warm-up rep: a user pays cold page faults on every run of
// the CLI, so the benchmark does too.
func (p plan) run(ctx context.Context) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res := &result{
		Schema: resultSchema, Env: p.env, Seed: p.seed, Reps: p.reps, Sizes: p.sz,
		Workloads: make([]workloadResult, len(p.workloads)),
	}
	for i, w := range p.workloads {
		res.Workloads[i] = workloadResult{Name: w.name, Why: w.why}
	}
	round := func(kind string, args ...string) error {
		for i, w := range p.workloads {
			fmt.Fprintf(os.Stderr, "bench: %s %s\n", w.name, kind)
			r, err := p.child(ctx, exe, w.name, args...)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			res.Workloads[i].add(r)
		}
		return nil
	}
	for rep := 1; rep <= p.reps; rep++ {
		if err := round(fmt.Sprintf("rep %d/%d", rep, p.reps)); err != nil {
			return nil, err
		}
	}
	for i := 1; i <= p.setups; i++ {
		if err := round(fmt.Sprintf("set-up %d/%d", i, p.setups), "-setup-only"); err != nil {
			return nil, err
		}
	}
	if p.traced {
		if err := round("traced rep", "-traced"); err != nil {
			return nil, err
		}
	}
	for i := range res.Workloads {
		res.Workloads[i].finish()
	}
	return res, nil
}

// child runs one rep in a fresh process: the same binary, one
// load-generating caller, GOMAXPROCS fixed.
func (p plan) child(ctx context.Context, exe, name string, extra ...string) (repResult, error) {
	args := append([]string{
		"-child", "-workload", name, "-seed", strconv.FormatUint(p.seed, 10),
		"-started", strconv.FormatInt(time.Now().UnixNano(), 10),
	}, extra...)
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(p.env.GOMAXPROCS))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return repResult{}, fmt.Errorf("child process: %w", err)
	}
	var r repResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return repResult{}, fmt.Errorf("child result: %w", err)
	}
	return r, nil
}

// resultSchema names the layout of the -out file.
const resultSchema = "p2psize-bench/v1"

// result is everything one invocation measured.
type result struct {
	Schema    string           `json:"schema"`
	Env       environment      `json:"env"`
	Seed      uint64           `json:"seed"`
	Reps      int              `json:"reps"`
	Sizes     sizes            `json:"sizes"`
	Workloads []workloadResult `json:"workloads"`
}

// workloadResult is one workload's reps, verified and condensed.
type workloadResult struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Correct is the verdict of the correctness gate; Problems says why
	// not.
	Correct  bool     `json:"correct"`
	Problems []string `json:"problems,omitempty"`
	// Attempted and Failed count operations over one rep.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Checksum, Messages and Events are identical across reps of a
	// correct workload.
	Checksum string `json:"checksum"`
	Messages uint64 `json:"messages"`
	Events   uint64 `json:"events"`
	// Metrics holds the end-to-end metrics over the untraced reps.
	Metrics map[string]summary `json:"metrics"`
	// Layers is the traced rep's ledger.
	Layers map[string]float64 `json:"layers,omitempty"`

	reps   []repResult // untraced, full
	setups []float64   // setup_s samples of set-up-only reps
	traced *repResult
}

func (w *workloadResult) add(r repResult) {
	switch {
	case r.Traced:
		w.traced = &r
	case r.SetupOnly && r.Error == "":
		w.setups = append(w.setups, r.SetupS)
	default:
		w.reps = append(w.reps, r)
	}
}

// finish runs the seed-independent half of the correctness gate and
// condenses the reps: every rep succeeded and produced the same
// checksum and work counts, and the traced rep reproduced them.
func (w *workloadResult) finish() {
	problem := func(format string, args ...any) {
		w.Problems = append(w.Problems, fmt.Sprintf(format, args...))
	}
	all := w.reps
	if w.traced != nil {
		all = append(append([]repResult(nil), w.reps...), *w.traced)
	}
	var first *repResult
	for i := range all {
		r := &all[i]
		label := fmt.Sprintf("rep %d", i+1)
		if r.Traced {
			label = "traced rep"
		}
		if r.Error != "" {
			problem("%s: %s", label, r.Error)
			continue
		}
		if first == nil {
			first = r
			continue
		}
		if r.Checksum != first.Checksum || r.Messages != first.Messages || r.Events != first.Events || r.Groups != first.Groups {
			problem("%s differs from rep 1: checksum %s/%s, messages %d/%d, events %d/%d, groups %d/%d",
				label, r.Checksum, first.Checksum, r.Messages, first.Messages, r.Events, first.Events, r.Groups, first.Groups)
		}
	}
	if first == nil {
		w.settle()
		return
	}
	w.Attempted, w.Failed = first.Attempted, first.Failed
	w.Checksum, w.Messages, w.Events = first.Checksum, first.Messages, first.Events

	values := make(map[string][]float64)
	for _, r := range w.reps {
		if r.Error != "" {
			continue
		}
		for name, v := range endToEndValues(r) {
			values[name] = append(values[name], v)
		}
	}
	values["setup_s"] = append(values["setup_s"], w.setups...)
	w.Metrics = make(map[string]summary, len(endToEnd))
	for _, def := range endToEnd {
		w.Metrics[def.Name] = summarize(def.Unit, values[def.Name])
	}
	if w.traced != nil && w.traced.Error == "" {
		w.Layers = w.traced.Layers
		if w.Layers == nil {
			w.Layers = make(map[string]float64)
		}
		if base := w.Metrics["run_s"].Median; base > 0 {
			w.Layers["trace_overhead_pct"] = (w.traced.RunS/base - 1) * 100
		}
	}
	w.settle()
}

// settle fixes the verdict: a workload that failed the gate counts
// every operation of the run as failed.
func (w *workloadResult) settle() {
	w.Correct = len(w.Problems) == 0
	if !w.Correct {
		w.Failed = w.Attempted
		if w.Metrics != nil {
			w.Metrics["ops_failed_share"] = summarize("share", []float64{1})
		}
	}
}

func (r *result) correct() bool {
	for _, w := range r.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

// spans returns every traced rep's spans, the content of trace.json.
func (r *result) spans() []span {
	var out []span
	for _, w := range r.Workloads {
		if w.traced != nil {
			out = append(out, w.traced.Spans...)
		}
	}
	return out
}

// driverLine renders the one-line result of the driver's contract: the
// end-to-end medians of an untraced run, the ledger of a traced one.
func (w *workloadResult) driverLine(traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if traced {
		for _, def := range perLayer {
			metrics[def.Name] = value{finite(w.Layers[def.Name]), def.Unit}
		}
	} else {
		for _, def := range driverEndToEnd() {
			metrics[def.Name] = value{finite(w.Metrics[def.Name].Median), def.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{w.Correct, max(w.Attempted, 1), w.Failed, metrics})
	if err != nil {
		panic(fmt.Sprintf("bench: result line: %v", err)) // only finite numbers and strings go in
	}
	return string(line)
}

// finite maps the values JSON cannot carry to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
