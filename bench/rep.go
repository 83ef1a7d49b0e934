package main

// One rep: set a workload up, run its measured phase once, and — when
// traced — turn the spans and the owned layer probes into the per-layer
// ledger. A rep normally is a whole child process, so that the heap and
// the resident-set high-water mark of one rep never leak into the next.

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// repResult is what one rep reports to the parent.
type repResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced,omitempty"`
	// SetupOnly marks a rep that stopped before the measured call: one
	// more sample of setup_s and nothing else.
	SetupOnly bool `json:"setup_only,omitempty"`
	// SetupS runs from the moment the parent started the child to the
	// measured call: process start, input generation, estimator
	// construction. RunS is the measured call alone.
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s,omitempty"`
	// AllocBytes is the TotalAlloc delta over the measured call,
	// PeakRSSKB the process's VmHWM when it ended.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	PeakRSSKB  uint64 `json:"peak_rss_kb,omitempty"`
	outcome
	// Layers and Spans are filled by traced reps only.
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
	// Error is set when the rep could not produce a result.
	Error string `json:"error,omitempty"`
}

// repRequest selects the rep a child runs.
type repRequest struct {
	workload workload
	seed     uint64
	sz       sizes
	workers  int
	traced   bool
	// setupOnly stops before the measured call: a cheap extra sample of
	// setup_s.
	setupOnly bool
	// started is when the rep began as its caller sees it; for a child
	// process, just before the parent started it.
	started time.Time
}

func runRep(req repRequest) repResult {
	res := repResult{Workload: req.workload.name, Seed: req.seed, Traced: req.traced, SetupOnly: req.setupOnly}
	var rec *recorder
	var root int
	if req.traced {
		rec = newRecorder(req.workload.name)
		root = rec.begin(0, "rep")
		rec.setup = rec.begin(root, "setup")
	}
	ready, err := req.workload.setup(req.seed, req.sz, req.workers, rec)
	if err != nil {
		res.Error = fmt.Sprintf("set-up: %v", err)
		return res
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if rec != nil {
		rec.end(rec.setup, 0)
		rec.run = rec.begin(root, "run")
	}
	runStart := time.Now()
	res.SetupS = runStart.Sub(req.started).Seconds()
	if req.setupOnly {
		return res
	}
	condense, err := ready.run()
	res.RunS = time.Since(runStart).Seconds()
	if rec != nil {
		rec.end(rec.run, 0)
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		res.Error = fmt.Sprintf("measured phase: %v", err)
		return res
	}
	out, err := condense()
	if err != nil {
		res.Error = fmt.Sprintf("verification: %v", err)
		return res
	}
	res.outcome = out
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	res.PeakRSSKB = peakRSSKB()
	if rec != nil {
		p := &prober{
			seed: req.seed, sz: req.sz, workers: req.workers, rec: rec, rep: &res,
			trace: ready.trace, out: make(map[string]float64),
		}
		p.span = rec.begin(root, "probes")
		if err := req.workload.probes(p); err != nil {
			res.Error = fmt.Sprintf("layer probes: %v", err)
			return res
		}
		rec.end(p.span, 0)
		rec.end(root, 0)
		res.Layers = p.out
		res.Spans = rec.spans
	}
	return res
}

// peakRSSKB reads the resident-set high-water mark of this process;
// 0 where /proc does not provide it.
func peakRSSKB() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}
