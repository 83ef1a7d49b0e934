package main

// Output: the printed report and the golden half of the correctness
// gate.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// goldenEntry pins what a workload must produce at -seed 1 and
// fullSizes. It changes only with the sizes, or with a change to the
// program that deliberately re-pins its outputs.
type goldenEntry struct {
	Checksum string `json:"checksum"`
	Messages uint64 `json:"messages"`
	Events   uint64 `json:"events"`
}

//go:embed golden.json
var goldenJSON []byte

const goldenSeed = 1

// checkGolden compares a -seed 1 run against golden.json. Other seeds
// have no golden values; their gate is rep-to-rep identity and the
// population-curve check inside the monitor workloads.
func (r *result) checkGolden() {
	if r.Seed != goldenSeed {
		return
	}
	var golden map[string]goldenEntry
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		golden = nil // every workload then reports its entry missing
	}
	for i := range r.Workloads {
		w := &r.Workloads[i]
		if w.Checksum == "" {
			continue // already failed; nothing to compare
		}
		got := goldenEntry{w.Checksum, w.Messages, w.Events}
		want, ok := golden[w.Name]
		switch {
		case !ok:
			w.Problems = append(w.Problems, "no entry in golden.json")
		case got != want:
			w.Problems = append(w.Problems, fmt.Sprintf("golden mismatch: got %+v, want %+v", got, want))
		}
		w.settle()
	}
}

// goldenPath is where -update-golden writes, from the repository root.
const goldenPath = "bench/golden.json"

// writeGolden replaces, in the golden file on disk, the entries of the
// workloads this run covered.
func writeGolden(r *result) error {
	if r.Seed != goldenSeed {
		return fmt.Errorf("golden values are pinned at -seed %d", goldenSeed)
	}
	golden := make(map[string]goldenEntry)
	if data, err := os.ReadFile(goldenPath); err == nil {
		if err := json.Unmarshal(data, &golden); err != nil {
			return fmt.Errorf("%s: %w", goldenPath, err)
		}
	}
	for _, w := range r.Workloads {
		if !w.Correct {
			return fmt.Errorf("%s failed the gate; not recording it as golden", w.Name)
		}
		golden[w.Name] = goldenEntry{w.Checksum, w.Messages, w.Events}
	}
	return writeJSON(goldenPath, golden)
}

// print renders every metric by name with its unit.
func (r *result) print(out io.Writer) {
	e := r.Env
	fmt.Fprintf(out, "p2psize bench: seed %d, %d rep(s) per workload\n", r.Seed, r.Reps)
	fmt.Fprintf(out, "host %s, %s, nproc %d, GOMAXPROCS %d, workers %d, %s, commit %s\n",
		e.Host, e.CPUModel, e.NProc, e.GOMAXPROCS, e.Workers, e.GoVersion, e.Commit)
	fmt.Fprintf(out, "shards %s, shuffle %s, replay %s, cost model none; closed loop, one caller\n", e.Shards, e.Shuffle, e.Replay)
	noisy := ""
	if e.Noisy {
		noisy = "  ** NOISY: the box was busy before the benchmark started **"
	}
	fmt.Fprintf(out, "load average %.2f%s\n", e.Load1, noisy)
	for _, w := range r.Workloads {
		fmt.Fprintf(out, "\n%s\n  %s\n", w.Name, w.Why)
		verdict := "correct"
		if !w.Correct {
			verdict = "INCORRECT"
		}
		fmt.Fprintf(out, "  %s: checksum %s, %d messages, %d events, %d of %d operations failed\n",
			verdict, w.Checksum, w.Messages, w.Events, w.Failed, w.Attempted)
		for _, p := range w.Problems {
			fmt.Fprintf(out, "  problem: %s\n", p)
		}
		for _, def := range endToEnd {
			s := w.Metrics[def.Name]
			fmt.Fprintf(out, "  %-18s %14.6g %-6s min %.6g max %.6g over %d (%s is better, bound %g%%)\n",
				def.Name, s.Median, def.Unit, s.Min, s.Max, len(s.Values), def.Better, def.Bound*100)
		}
		if w.Layers == nil {
			continue
		}
		fmt.Fprintf(out, "  per-layer ledger of the traced rep (rows owned by another workload are not measured here):\n")
		for _, def := range perLayer {
			if v, ok := w.Layers[def.Name]; ok {
				fmt.Fprintf(out, "    %-52s %14.6g %s\n", def.Name, v, def.Unit)
			}
		}
	}
}

// readResult loads a -out file.
func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultSchema)
	}
	return &r, nil
}
