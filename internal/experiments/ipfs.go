package experiments

// trace-ipfs: continuous monitoring against an empirical-style churn
// workload calibrated to the IPFS liveness measurements of Daniel &
// Tschorsch (arXiv:2205.14927). The study measured heavy-tailed session
// lengths (most IPFS nodes stay online for minutes, a small DHT-server
// tail for days) and a pronounced diurnal swing in arrivals; the
// checked-in trace reproduces those statistics — Weibull k=0.45
// sessions at one-minute resolution with a 30% day/night arrival swing
// — as a concrete membership schedule: 1,000 initial sessions, ~4,000
// arrivals, ~4,300 departures over a ten-hour horizon.
//
// The trace ships as testdata/ipfs.csv.gz (the standard trace CSV,
// gzipped) and is embedded so the experiment runs identically from any
// working directory. Unlike the synthetic trace-* workloads it is a
// fixed, checked-in input: Params scaling never changes the workload,
// which makes it the stable yardstick for comparing estimator rosters.

import (
	"bytes"
	"compress/gzip"
	_ "embed"
	"fmt"

	"p2psize/internal/core"
	"p2psize/internal/monitor"
	"p2psize/internal/registry"
	"p2psize/internal/trace"
)

//go:embed testdata/ipfs.csv.gz
var ipfsTraceGz []byte

func init() {
	register("trace-ipfs", traceIPFS)
}

// loadIPFSTrace decompresses and parses the embedded trace. The result
// is rebuilt per call — experiments must not share mutable state.
func loadIPFSTrace() (*trace.Trace, error) {
	gz, err := gzip.NewReader(bytes.NewReader(ipfsTraceGz))
	if err != nil {
		return nil, fmt.Errorf("trace-ipfs: embedded trace corrupt: %w", err)
	}
	defer gz.Close()
	tr, err := trace.ReadCSV(gz)
	if err != nil {
		return nil, fmt.Errorf("trace-ipfs: %w", err)
	}
	return tr, nil
}

func traceIPFS(p Params) (*Figure, error) {
	tr, err := loadIPFSTrace()
	if err != nil {
		return nil, err
	}
	return runTrace("trace-ipfs",
		"Continuous monitoring under IPFS-calibrated churn (Weibull k=0.45 sessions, diurnal arrivals)",
		tr, monitor.Policy{Smoothing: monitor.Window, Window: core.LastK}, registry.DefaultSet(), p, 0x4400)
}
