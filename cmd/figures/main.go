// Command figures regenerates every table and figure of the paper's
// evaluation section (§IV): it runs the registered experiments on a
// deterministic parallel worker pool and writes gnuplot .dat series, CSV
// files, a notes summary and a machine-readable REPORT.json (wall times,
// message counts, series checksums) into the output directory, optionally
// with terminal ASCII previews.
//
// Output is byte-identical at every -workers setting — runs derive their
// randomness from the seed and the run index, never from scheduling — so
// -workers only changes wall time.
//
// By default it runs at 1/10 of the paper's scale (the shapes are already
// stable there); -scale 1 runs the paper's 100,000 / 1,000,000 node
// workloads, which takes considerably longer.
//
// Every experiment is a fixed comparison: the same candidates on the
// same inputs at every run. A custom roster, per-family cadences, a fault
// scenario or an empirical trace file is a run of p2psize -trace.
//
// Examples:
//
//	figures                        # all experiments, 1/10 scale, ./out
//	figures -only fig05,table1     # a subset
//	figures -workers 8             # cap the worker pool
//	figures -scale 1 -out paperout # paper-scale reproduction
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"p2psize/internal/experiments"
	"p2psize/internal/plot"
	"p2psize/internal/prof"
)

func main() {
	var (
		outDir  = flag.String("out", "out", "output directory")
		scale   = flag.Int("scale", 10, "divide the paper's node counts by this factor (1 = the paper's full scale)")
		only    = flag.String("only", "", "comma-separated experiment ids (default: all)")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		workers = flag.Int("workers", 0, "worker pool size (0 = all CPUs, 1 = sequential); output is identical at any setting")
		ascii   = flag.Bool("ascii", true, "print ASCII previews")
		list    = flag.Bool("list", false, "list experiment ids and exit")
	)
	profiles := prof.Register(flag.CommandLine)
	flag.Parse()
	if *scale < 1 {
		fmt.Fprintf(os.Stderr, "figures: -scale %d must be at least 1 (1 = the paper's full scale)\nrun figures -h for usage\n", *scale)
		os.Exit(2)
	}
	stop, err := profiles.Start()
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer stop()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	params := experiments.Scaled(*scale)
	params.Seed = *seed
	params.Workers = *workers

	var ids []string
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	report, figs, runErr := experiments.RunSuite(ids, params)
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	var notes strings.Builder
	fmt.Fprintf(&notes, "# Measured notes (seed %d, N100k=%d, N1M=%d)\n\n",
		params.Seed, params.N100k, params.N1M)
	wallByID := make(map[string]float64, len(report.Experiments))
	for _, e := range report.Experiments {
		wallByID[e.ID] = e.WallMS
	}
	for _, id := range ids {
		fig, ok := figs[id]
		if !ok {
			continue // failure; reported via runErr below
		}
		fmt.Printf("== %s: %s (%.0fms)\n", fig.ID, fig.Title, wallByID[id])
		if len(fig.Series) > 0 {
			writeSeries(*outDir, fig)
			if *ascii {
				fmt.Println(plot.ASCII(72, 16, fig.Series...))
			}
		}
		fmt.Fprintf(&notes, "## %s — %s\n\n", fig.ID, fig.Title)
		for _, n := range fig.Notes {
			fmt.Printf("   note: %s\n", n)
			fmt.Fprintf(&notes, "- %s\n", n)
		}
		fmt.Fprintln(&notes)
		fmt.Println()
	}
	notesPath := filepath.Join(*outDir, "NOTES.md")
	if err := os.WriteFile(notesPath, []byte(notes.String()), 0o644); err != nil {
		fatal(err)
	}
	reportPath := filepath.Join(*outDir, "REPORT.json")
	if err := report.WriteFile(reportPath); err != nil {
		fatal(err)
	}
	fmt.Printf("notes written to %s\n", notesPath)
	fmt.Printf("suite report written to %s (%d experiments, %.0fms total, %d workers)\n",
		reportPath, len(report.Experiments), report.TotalWallMS, report.Workers)
	if runErr != nil {
		fatal(runErr)
	}
}

func writeSeries(outDir string, fig *experiments.Figure) {
	datPath := filepath.Join(outDir, fig.ID+".dat")
	f, err := os.Create(datPath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	fmt.Fprintf(f, "# %s\n# x: %s, y: %s\n", fig.Title, fig.XLabel, fig.YLabel)
	if err := plot.WriteDAT(f, fig.Series...); err != nil {
		fatal(err)
	}
	// CSV only when the series share one x grid (dynamic aggregation
	// figures record the real size at a finer resolution).
	aligned := true
	for _, s := range fig.Series[1:] {
		if s.Len() != fig.Series[0].Len() {
			aligned = false
			break
		}
	}
	if aligned {
		csvPath := filepath.Join(outDir, fig.ID+".csv")
		cf, err := os.Create(csvPath)
		if err != nil {
			fatal(err)
		}
		defer cf.Close()
		if err := plot.WriteCSV(cf, fig.Series...); err != nil {
			fatal(err)
		}
	}
}

// stopProfiles ends -cpuprofile/-memprofile/-exectrace; fatal calls it because
// os.Exit skips main's deferred call.
var stopProfiles = func() {}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
