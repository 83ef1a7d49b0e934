package main

// Provenance and guard rails: what machine, what toolchain, what
// commit, how busy the box was.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// maxWorkers caps Workers = GOMAXPROCS: past four cores the suite and
// the monitor stop scaling and the numbers would describe the box.
const maxWorkers = 4

// environment is recorded with every result file.
type environment struct {
	Host       string  `json:"host"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Load1      float64 `json:"load1"`
	// Noisy marks a run started on a box already busier than half its
	// processors; its timings should not be trusted.
	Noisy bool `json:"noisy"`
	// Fixed settings of the program under test.
	Shards  string `json:"shards"`
	Shuffle string `json:"shuffle"`
	Replay  string `json:"replay"`
}

// probeEnvironment fixes the worker count and records where the
// benchmark runs. It refuses a GOMAXPROCS above the processor count:
// oversubscribed timings measure the scheduler.
func probeEnvironment() (environment, error) {
	nproc := runtime.NumCPU()
	procs := min(nproc, maxWorkers)
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return environment{}, fmt.Errorf("GOMAXPROCS=%q is not a positive number", v)
		}
		if n > nproc {
			return environment{}, fmt.Errorf("GOMAXPROCS=%d exceeds the %d processors of this machine", n, nproc)
		}
		procs = n
	}
	host, _ := os.Hostname() // provenance only; an unnamed host is fine
	env := environment{
		Host:       host,
		CPUModel:   cpuModel(),
		NProc:      nproc,
		GOMAXPROCS: procs,
		Workers:    procs,
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Load1:      loadAverage(),
		Shards:     "auto",
		Shuffle:    "global",
		Replay:     "shared",
	}
	env.Noisy = env.Load1 > float64(nproc)/2
	return env, nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// loadAverage returns the 1-minute load average, 0 where /proc has none.
func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

// commit returns the VCS revision the toolchain stamped into the
// binary; a checkout that is not a repository has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
