package main

// -compare: the table a later change shows for "parent against change",
// and the check that two sets of runs of one commit agree.

import (
	"fmt"
	"io"
	"text/tabwriter"

	"p2psize/internal/stats"
)

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// comparison is one row of the table: metric def of workload, baseline
// a against candidate b.
type comparison struct {
	Workload string
	Metric   string
	A, B     float64 // medians
	// Worse is how much worse b's median is than a's, as a share of a's
	// (negative = better).
	Worse   float64
	Bound   float64
	Verdict string
}

// compareMetric judges one metric by the benchmark's rule: b regressed
// when its median is worse than a's by more than the bound (and, where
// the metric has one, by more than its absolute slack too). When the
// run-to-run spread of either side is itself wider than the bound the
// medians cannot settle it, and the row is unresolved — unless every
// run of b reads better than every run of a.
func compareMetric(def metricDef, a, b summary) comparison {
	c := comparison{Metric: def.Name, A: a.Median, B: b.Median, Bound: def.Bound}
	worse := b.Median - a.Median // lower is better: growing is worse
	allBetter := b.Max < a.Min
	if def.Better == "higher" {
		worse = -worse
		allBetter = b.Min > a.Max
	}
	if a.Median != 0 {
		c.Worse = worse / a.Median
	}
	// Spread as the driver takes it: the distance between the quartiles,
	// as a share of the median.
	spread := func(s summary) float64 {
		if s.Median == 0 || len(s.Values) == 0 {
			return 0
		}
		return (stats.Quantile(s.Values, 0.75) - stats.Quantile(s.Values, 0.25)) / s.Median
	}
	switch {
	case !def.Exact && max(spread(a), spread(b)) > def.Bound && !allBetter:
		c.Verdict = verdictUnresolved
	case worse > def.Bound*a.Median && worse > def.Slack:
		c.Verdict = verdictRegressed
	default:
		c.Verdict = verdictOK
	}
	return c
}

// compareResults compares every workload both files have.
func compareResults(a, b *result) ([]comparison, []string) {
	var rows []comparison
	var notes []string
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			notes = append(notes, fmt.Sprintf("%s: missing from the second file", wa.Name))
			continue
		}
		for _, def := range endToEnd {
			c := compareMetric(def, wa.Metrics[def.Name], wb.Metrics[def.Name])
			c.Workload = wa.Name
			rows = append(rows, c)
		}
		if !wa.Correct || !wb.Correct {
			notes = append(notes, fmt.Sprintf("%s: failed the correctness gate (first %v, second %v)", wa.Name, wa.Correct, wb.Correct))
		}
		if a.Seed == b.Seed && (wa.Checksum != wb.Checksum || wa.Messages != wb.Messages || wa.Events != wb.Events) {
			notes = append(notes, fmt.Sprintf("%s: outputs differ at equal seeds (checksum %s -> %s, messages %d -> %d, events %d -> %d)",
				wa.Name, wa.Checksum, wb.Checksum, wa.Messages, wb.Messages, wa.Events, wb.Events))
		}
	}
	return rows, notes
}

// runCompare prints the table and returns the exit status: 0 when no
// row regressed, 1 otherwise, 2 when a file cannot be read.
func runCompare(pathA, pathB string, out io.Writer) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintf(out, "bench: %v\n", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintf(out, "bench: %v\n", err)
		return 2
	}
	rows, notes := compareResults(a, b)
	fmt.Fprintf(out, "a: %s (commit %s, seed %d, %d reps)\nb: %s (commit %s, seed %d, %d reps)\n\n",
		pathA, a.Env.Commit, a.Seed, a.Reps, pathB, b.Env.Commit, b.Seed, b.Reps)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median\tb median\tworse by\tbound\tverdict")
	status := 0
	for _, c := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%g%%\t%s\n",
			c.Workload, c.Metric, c.A, c.B, c.Worse*100, c.Bound*100, c.Verdict)
		if c.Verdict == verdictRegressed {
			status = 1
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(out, "bench: %v\n", err)
		return 2
	}
	for _, n := range notes {
		fmt.Fprintf(out, "note: %s\n", n)
	}
	return status
}
