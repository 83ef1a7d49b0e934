package experiments

import (
	"fmt"
	"math"
	"strings"

	"p2psize/internal/core"
	"p2psize/internal/overlay"
	"p2psize/internal/plot"
	"p2psize/internal/registry"
	"p2psize/internal/stats"
)

// TableIRow is one measured column of the paper's Table I ("Example of
// algorithm's overhead for an estimation on a 100,000 node overlay").
type TableIRow struct {
	// Algorithm and Heuristic name the configuration, paper-style.
	Algorithm string
	Heuristic string
	// MeanSignedErrPct is the mean of (quality − 100): negative values
	// are systematic under-estimation (HopsSampling's −20%).
	MeanSignedErrPct float64
	// MeanAbsErrPct is the mean of |quality − 100| (the "+/-" rows).
	MeanAbsErrPct float64
	// OverheadPerEstimate is the measured message cost of one estimation
	// under the heuristic (lastKruns pays K single-shot costs).
	OverheadPerEstimate float64
}

// TableIRows measures the four Table I configurations on a fresh
// heterogeneous overlay of p.N100k nodes, in the paper's column order:
// S&C oneShot, HopsSampling last10runs, S&C last10runs, Aggregation.
// The three measurement groups (S&C feeds two rows) are compare's
// candidates, each on its own overlay. The second return value is the
// total metered traffic. The per-row trial index alone fixes each
// trial's random stream, so the rows are byte-identical at any worker
// count.
func TableIRows(p Params) ([]TableIRow, uint64, error) {
	// Group ci builds its overlay on stream 0x2000+0x100·ci and seeds its
	// runs one above. Aggregation epochs are expensive (N·rounds·2) and
	// the estimator is near-deterministic at convergence, so a few runs
	// suffice.
	cands := []candidate{
		{"sample&collide", "samplecollide", p.Seed + 0x2001, p.TableRuns, registry.Options{}},
		{"hops-sampling", "hopssampling", p.Seed + 0x2101, p.TableRuns, registry.Options{}},
		{"aggregation", "aggregation", p.Seed + 0x2201, min(3, p.TableRuns), epochOpts()},
	}
	res, nets, err := compare("table1", cands,
		func(ci int) *overlay.Network { return hetNet(p.N100k, p, 0x2000+0x100*uint64(ci)) }, p)
	if err != nil {
		return nil, 0, err
	}
	scRes, hopsRes, aggRes := res[0], res[1], res[2]
	msgs := nets[0].Counter().Total() + nets[1].Counter().Total() + nets[2].Counter().Total()
	rows := []TableIRow{
		makeRow("Sample&Collide (l=200)", "oneShot",
			scRes.QualityPct(false), scRes.MeanOverhead()),
		makeRow("HopsSampling", "last10runs",
			smoothedTail(hopsRes), float64(core.LastK)*hopsRes.MeanOverhead()),
		// Sample&Collide last10runs (same measurements, smoothed heuristic).
		makeRow("Sample&Collide (l=200)", "last10runs",
			smoothedTail(scRes), float64(core.LastK)*scRes.MeanOverhead()),
		makeRow("Aggregation", fmt.Sprintf("%d rounds", epochLen),
			aggRes.QualityPct(false), aggRes.MeanOverhead()),
	}
	return rows, msgs, nil
}

// smoothedTail returns the lastK-smoothed qualities once the window is
// full, so early partial windows don't distort the heuristic's accuracy.
func smoothedTail(res *core.StaticResult) []float64 {
	q := res.QualityPct(true)
	if len(q) > core.LastK {
		return q[core.LastK-1:]
	}
	return q
}

func makeRow(alg, heur string, qualities []float64, overhead float64) TableIRow {
	var signed, absErr stats.Running
	for _, q := range qualities {
		signed.Add(q - 100)
		absErr.Add(math.Abs(q - 100))
	}
	return TableIRow{
		Algorithm:           alg,
		Heuristic:           heur,
		MeanSignedErrPct:    signed.Mean(),
		MeanAbsErrPct:       absErr.Mean(),
		OverheadPerEstimate: overhead,
	}
}

// renderTableI lays the measured rows out in the paper's Table I.
func renderTableI(p Params, rows []TableIRow) *plot.Table {
	t := &plot.Table{
		Title: fmt.Sprintf("Table I: overhead and accuracy for an estimation on a %d node overlay", p.N100k),
		Headers: []string{
			"Algorithm", "Parameters", "Accuracy (mean signed)", "Accuracy (mean abs)", "Overhead (messages)",
		},
	}
	for _, r := range rows {
		t.AddRow(
			r.Algorithm,
			r.Heuristic,
			fmt.Sprintf("%+.1f%%", r.MeanSignedErrPct),
			fmt.Sprintf("±%.1f%%", r.MeanAbsErrPct),
			plot.FormatCount(r.OverheadPerEstimate),
		)
	}
	return t
}

func init() {
	register("table1", func(p Params) (*Figure, error) {
		rows, msgs, err := TableIRows(p)
		if err != nil {
			return nil, err
		}
		tbl := renderTableI(p, rows)
		fig := &Figure{
			ID:       "table1",
			Title:    tbl.Title,
			Messages: msgs,
		}
		for _, line := range strings.FieldsFunc(tbl.Text(), func(r rune) bool { return r == '\n' }) {
			fig.AddNote("%s", line)
		}
		return fig, nil
	})
}
