package experiments

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"p2psize/internal/metrics"
	"p2psize/internal/parallel"
)

// ReportSchema identifies the JSON layout of SuiteReport; bump it when
// the shape changes so trajectory tooling can detect incompatible files.
const ReportSchema = "p2psize-suite-report/v1"

// SeriesSummary condenses one plotted curve to a comparable fingerprint:
// point count plus an FNV-64a checksum over the exact float64 bits of
// every (x, y) pair. Two runs produced byte-identical series iff their
// checksums match, which is how CI and the determinism tests compare
// figures without storing the full data.
type SeriesSummary struct {
	Name     string `json:"name"`
	Points   int    `json:"points"`
	Checksum string `json:"checksum"`
}

// ExperimentReport is the machine-readable record of one experiment run.
type ExperimentReport struct {
	ID       string          `json:"id"`
	Title    string          `json:"title,omitempty"`
	WallMS   float64         `json:"wall_ms"`
	Messages uint64          `json:"messages"`
	Series   []SeriesSummary `json:"series,omitempty"`
	// Rankings carry the robustness-* experiments' per-family summaries
	// (MAE/MAPE and latency percentiles), most robust first. Additive:
	// reports from other experiments omit the field, so the schema
	// version is unchanged.
	Rankings []Ranking `json:"rankings,omitempty"`
	Notes    int       `json:"notes"`
	Error    string    `json:"error,omitempty"`
}

// SuiteReport aggregates a whole suite execution. cmd/figures writes it
// next to the figure data and bench/ reads it from RunSuite, so wall
// times, message totals and the output identity (checksums) travel in
// one shape.
type SuiteReport struct {
	Schema      string             `json:"schema"`
	Seed        uint64             `json:"seed"`
	Workers     int                `json:"workers"`
	GoMaxProcs  int                `json:"gomaxprocs"`
	N100k       int                `json:"n100k"`
	N1M         int                `json:"n1m"`
	TotalWallMS float64            `json:"total_wall_ms"`
	Experiments []ExperimentReport `json:"experiments"`
}

// ChecksumSeries fingerprints a series; see SeriesSummary.
func ChecksumSeries(s *metrics.Series) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	for i := range s.X {
		put(s.X[i])
		put(s.Y[i])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Summarize builds the report entry for one completed figure. Wall time
// is supplied by the caller (the suite measures it around the run).
func Summarize(fig *Figure, wall time.Duration) ExperimentReport {
	r := ExperimentReport{
		ID:       fig.ID,
		Title:    fig.Title,
		WallMS:   float64(wall.Microseconds()) / 1000,
		Messages: fig.Messages,
		Notes:    len(fig.Notes),
	}
	for _, s := range fig.Series {
		r.Series = append(r.Series, SeriesSummary{
			Name:     s.Name,
			Points:   s.Len(),
			Checksum: ChecksumSeries(s),
		})
	}
	r.Rankings = append(r.Rankings, fig.Rankings...)
	return r
}

// costHint ranks experiments by expected wall time. The values are
// coarse relative weights measured from bench runs — exactness does not
// matter, only that the dominating experiments (the 10k-round dynamic
// Aggregation figures, then the trace monitors and the 1M-node
// workloads) start before the cheap ones, so they are not left to run
// alone at the tail of the suite on an otherwise idle machine.
var costHint = map[string]int{
	"fig15": 100, "fig16": 100, "fig17": 100, // AggHorizon rounds × N100k sweeps
	"trace-weibull": 60, "trace-diurnal": 60, "trace-flashcrowd": 60,
	"trace-ipfs":     25,              // fixed 1,000-node empirical workload, 60 samples
	"trace-ipfs-all": 45,              // same workload, every monitoring-capable family
	"static-new":     45,              // 20 push-sum epochs at N100k dominate
	"fig06":          40,              // AggStaticRounds × N1M
	"fig02":          30, "fig04": 30, // 1M-node estimation runs
	"robustness-drop": 30, "robustness-delay": 30, "robustness-dup": 30, // nine families × faulted runs
	"robustness-partition": 30, "robustness-adversary": 30, "robustness-nat": 30,
	"ext-cyclon": 25, "ext-walks": 20, "ext-delay": 20,
	"table1": 15,
}

// scheduleOrder returns the indices of ids in execution order: highest
// costHint first (an id without a row counts as cheap), ties broken by
// submission order. Report ordering is unaffected — results land back
// in their submission slots.
func scheduleOrder(ids []string) []int {
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return costHint[ids[order[a]]] > costHint[ids[order[b]]]
	})
	return order
}

// RunSuite executes the given experiments (all registered ones if ids is
// empty) concurrently on the worker pool and returns the report plus the
// produced figures by id. Experiments are scheduled longest-job-first
// from the costHint table to cut many-core makespan, but the report
// keeps submission order — sorted by id when ids was empty. Individual
// experiment failures are recorded in the report and returned as one
// error (lowest submission index first) after every experiment has run;
// figures that succeeded are still returned.
//
// Every deterministic field of the report — checksums, message counts,
// series shapes — is byte-identical at any p.Workers setting; only the
// wall times vary.
func RunSuite(ids []string, p Params) (*SuiteReport, map[string]*Figure, error) {
	if len(ids) == 0 {
		ids = IDs()
	}
	report := &SuiteReport{
		Schema:     ReportSchema,
		Seed:       p.Seed,
		Workers:    parallel.Resolve(p.Workers),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		N100k:      p.N100k,
		N1M:        p.N1M,
	}
	// Split the worker budget across the two nesting levels instead of
	// letting every level resolve p.Workers independently (which would
	// multiply goroutine count — and, at paper scale, resident overlays —
	// by the suite width). A few experiments run concurrently, each with
	// the remaining budget for its internal fan-out; results are
	// worker-count-invariant either way, so the split only shapes load.
	outer, innerWorkers := parallel.Split(p.Workers, min(4, len(ids)))
	inner := p
	inner.Workers = innerWorkers
	figs := make([]*Figure, len(ids))
	entries := make([]ExperimentReport, len(ids))
	order := scheduleOrder(ids)
	start := time.Now()
	var firstErr error
	_ = parallel.ForEach(outer, len(ids), func(slot int) error {
		i := order[slot] // longest-job-first execution, submission-order results
		expStart := time.Now()
		fig, err := Run(ids[i], inner)
		if err != nil {
			entries[i] = ExperimentReport{ID: ids[i], Error: err.Error()}
			return nil
		}
		figs[i] = fig
		entries[i] = Summarize(fig, time.Since(expStart))
		return nil
	})
	report.TotalWallMS = float64(time.Since(start).Microseconds()) / 1000
	report.Experiments = entries
	out := make(map[string]*Figure, len(ids))
	for i, fig := range figs {
		if fig != nil {
			out[ids[i]] = fig
		} else if firstErr == nil {
			firstErr = fmt.Errorf("experiments: %s: %s", ids[i], entries[i].Error)
		}
	}
	return report, out, firstErr
}

// WriteFile marshals the report as indented JSON at path.
func (r *SuiteReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
