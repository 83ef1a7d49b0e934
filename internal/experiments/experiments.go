// Package experiments defines one runnable experiment per table and
// figure of the paper's evaluation (§IV): the same workloads, the same
// parameters, the same output series. Each experiment returns a Figure
// whose series can be written as gnuplot .dat, CSV, or ASCII charts.
//
// Every experiment takes a Params value so the paper-scale runs (100,000
// and 1,000,000 nodes) and laptop-scale runs (for tests and benchmarks)
// share one code path: Defaults() reproduces the paper's setting,
// Scaled(k) divides the node counts (and the very long aggregation
// horizon) by k while keeping all protocol parameters untouched.
package experiments

import (
	"fmt"
	"sort"

	"p2psize/internal/aggregation"
	"p2psize/internal/core"
	"p2psize/internal/epidemic"
	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/registry"
	"p2psize/internal/xrand"
)

// maxDeg is the heterogeneous graph's degree cap (§IV-A: degrees
// uniform in [1, 10]).
const maxDeg = 10

// epochLen is the rounds-per-epoch of Aggregation, static and dynamic
// (§IV: 50 rounds).
const epochLen = epidemic.DefaultRounds

// traceCadence is the simulated time between monitor samples in the
// trace-driven experiments.
const traceCadence float64 = 10

// Params sets the workload sizes of the evaluation. Protocol parameters
// (T, l, gossipTo, rounds, ...) are fixed by the paper and live in the
// individual experiments.
type Params struct {
	// Seed drives all randomness; equal Params give identical output.
	Seed uint64
	// N100k is the "100,000 node network" size.
	N100k int
	// N1M is the "1,000,000 node network" size.
	N1M int
	// SCRuns is the estimation count of Fig 1 (and the dynamic S&C figs).
	SCRuns int
	// SCRuns1M is the estimation count of Fig 2.
	SCRuns1M int
	// HopsRuns is the estimation count of Fig 3.
	HopsRuns int
	// HopsRuns1M is the estimation count of Fig 4.
	HopsRuns1M int
	// AggStaticRounds is the x-range of Figs 5 and 6.
	AggStaticRounds int
	// Fig18Runs is the estimation count of Fig 18.
	Fig18Runs int
	// HopsHorizon is the dynamic HopsSampling time range (Figs 12-14).
	HopsHorizon int
	// AggHorizon is the dynamic Aggregation round range (Figs 15-17).
	AggHorizon int
	// TableRuns is the number of estimations averaged per Table I row.
	TableRuns int
	// TraceHorizon is the duration, in simulated time units, of the
	// trace-driven monitoring experiments (trace-*); each estimator makes
	// TraceHorizon/traceCadence estimations.
	TraceHorizon float64
	// Workers caps the worker pool that fans independent estimation runs
	// (and whole experiments, via RunSuite) across cores: 0 means
	// runtime.NumCPU(), 1 forces sequential execution. Output is
	// byte-identical at every setting; Workers only changes wall time.
	Workers int
	// Transport, when non-nil, carries every overlay's metered sends
	// (see overlay.SetTransport). The seam is one-way — metering happens
	// before delivery and delivery errors are ignored — so any transport
	// must leave the output byte-identical to nil; the loopback-identity
	// test pins exactly that. Deployment plumbing, never output.
	Transport overlay.Transport
}

// Defaults returns the paper-scale parameters.
func Defaults() Params {
	return Params{
		Seed:            1,
		N100k:           100000,
		N1M:             1000000,
		SCRuns:          100,
		SCRuns1M:        18,
		HopsRuns:        100,
		HopsRuns1M:      20,
		AggStaticRounds: 100,
		Fig18Runs:       50,
		HopsHorizon:     1000,
		AggHorizon:      10000,
		TableRuns:       20,
		TraceHorizon:    1000,
	}
}

// Scaled returns Defaults with node counts divided by k (floors applied
// so experiments stay meaningful) and the aggregation horizon shortened
// proportionally. Estimation counts and protocol parameters are kept.
func Scaled(k int) Params {
	p := Defaults()
	if k <= 1 {
		return p
	}
	p.N100k = max(1000, p.N100k/k)
	p.N1M = max(2000, p.N1M/k)
	p.AggHorizon = max(20*epochLen, p.AggHorizon/k)
	return p
}

// Figure is one reproduced table or figure: metadata plus the plotted
// series, ready for the plot package.
type Figure struct {
	// ID is the registry key, e.g. "fig05".
	ID string
	// Title restates the paper's caption.
	Title string
	// XLabel / YLabel name the axes.
	XLabel, YLabel string
	// LogLog marks Fig 7's log-scale axes.
	LogLog bool
	// Series are the plotted curves.
	Series []*metrics.Series
	// Notes carry measured summaries for the NOTES.md that cmd/figures
	// writes.
	Notes []string
	// Messages is the total protocol traffic metered while producing the
	// figure — the per-experiment cost reported by the suite runner.
	Messages uint64
	// Rankings order the compared estimator families by robustness for
	// the experiment's scenario (robustness-* experiments only; nil
	// elsewhere). Carried into the suite report next to the series.
	Rankings []Ranking
}

// Ranking is one family's robustness summary under one fault scenario:
// accuracy (MAE in absolute peers, MAPE in percent of the true size),
// the p50/p95/p99 percentiles of the modeled estimate latency and the
// number of estimations that failed outright.
type Ranking struct {
	// Name is the family's canonical registry name.
	Name string `json:"name"`
	// MAE is the mean absolute error in peers.
	MAE float64 `json:"mae"`
	// MAPE is the mean absolute percentage error.
	MAPE float64 `json:"mape"`
	// P50, P95 and P99 are estimate-latency percentiles in the latency
	// model's time units.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	// Failures counts the runs whose estimation returned an error (an
	// isolated initiator, say); MAE and MAPE are over the others, and
	// are zero when every run failed.
	Failures int `json:"failures,omitempty"`
}

// AddNote appends a formatted note line.
func (f *Figure) AddNote(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// Runner produces one Figure from Params.
type Runner func(Params) (*Figure, error)

// runners maps experiment IDs to their Runner; populated by init
// functions in the per-experiment files.
var runners = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := runners[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	runners[id] = r
}

// IDs returns all experiment IDs in sorted order.
func IDs() []string {
	out := make([]string, 0, len(runners))
	for id := range runners {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Get returns the runner for id (nil, false if unknown).
func Get(id string) (Runner, bool) {
	r, ok := runners[id]
	return r, ok
}

// Run looks up and runs one experiment.
func Run(id string, p Params) (*Figure, error) {
	r, ok := runners[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(p)
}

// hetNet builds the paper's default test overlay: heterogeneous random
// graph with the given size, degree cap maxDeg, on a seeded stream.
func hetNet(n int, p Params, stream uint64) *overlay.Network {
	rng := xrand.New(p.Seed + stream)
	net := overlay.New(graph.Heterogeneous(n, maxDeg, rng), maxDeg, nil)
	if p.Transport != nil {
		net.SetTransport(p.Transport)
	}
	return net
}

// estimator resolves a registry family for an experiment body; the
// registered experiments only reference built-in names, so a miss means
// the catalog was tampered with and the experiment must fail loudly.
func estimator(id, name string) (registry.Descriptor, error) {
	d, ok := registry.Get(name)
	if !ok {
		return registry.Descriptor{}, fmt.Errorf("%s: estimator %q is not registered", id, name)
	}
	return d, nil
}

// perRun builds a run-indexed estimator factory for the static run
// loops: run i draws from the (seed, i) stream regardless of worker
// scheduling (see registry.Descriptor.PerRun).
func perRun(id, name string, net *overlay.Network, seed uint64, opts registry.Options) (func(run int) core.Estimator, error) {
	d, err := estimator(id, name)
	if err != nil {
		return nil, err
	}
	mk, err := d.PerRun(net, seed, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	return mk, nil
}

// epochOpts is the registry configuration of the epidemic families
// (Aggregation, push-sum) wherever they are one candidate among several:
// the paper's epoch length, and Workers 1 because the estimator already
// sits two fan-out levels deep.
func epochOpts() registry.Options {
	return registry.Options{Rounds: epochLen, Workers: 1}
}

// candidate is one row of a static head-to-head: a registry family
// under its display name, the seed of its per-run streams, how many
// estimations it makes and the options it is built with.
type candidate struct {
	name   string
	family string
	seed   uint64
	runs   int
	opts   registry.Options
}

// compare is the static comparison loop — the act behind Figs 1-4, 8
// and 18, Table I and the static ext-*/new-family studies: every
// candidate makes its runs independent estimations on the overlay
// on(ci) hands it (a fresh build, or a metering View() of a shared
// one). Candidates fan out on the outer share of Params.Workers and each
// one's runs on the inner share; run i of candidate ci draws from the
// stream (seed, i) whatever the split, so the results are byte-identical
// at every worker count. The overlays are returned beside the results:
// each one's counter holds exactly its candidate's traffic.
func compare(id string, cands []candidate, on func(ci int) *overlay.Network, p Params) ([]*core.StaticResult, []*overlay.Network, error) {
	outer, inner := parallel.Split(p.Workers, len(cands))
	nets := make([]*overlay.Network, len(cands))
	results, err := parallel.Map(outer, len(cands), func(ci int) (*core.StaticResult, error) {
		c := cands[ci]
		nets[ci] = on(ci)
		mk, err := perRun(id+" "+c.name, c.family, nets[ci], c.seed, c.opts)
		if err != nil {
			return nil, err
		}
		res, err := core.RunStaticParallel(mk, nets[ci], c.runs, inner)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", id, c.name, err)
		}
		return res, nil
	})
	return results, nets, err
}

// instances builds count concurrent instances of one registry family on
// the streams seed+stream+10+k — the layout every dynamic figure uses
// for its three side-by-side estimation processes.
func instances(id, name string, count int, p Params, stream uint64) ([]core.Estimator, error) {
	d, err := estimator(id, name)
	if err != nil {
		return nil, err
	}
	out := make([]core.Estimator, count)
	for k := range out {
		e, err := d.Build(nil, xrand.New(p.Seed+stream+10+uint64(k)), registry.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out[k] = e
	}
	return out, nil
}

// aggConfig assembles the Aggregation configuration used across the
// experiments: the paper's epoch length, with the shard count auto-sized
// from the overlay. workers is the intra-round goroutine budget for this
// call site — pass 1 where the estimator already sits under a wide
// run-level fan-out.
func aggConfig(workers int) aggregation.Config {
	return aggregation.Config{RoundsPerEpoch: epochLen, Workers: workers}
}

// scaleFreeNet builds the Fig 7/8 topology: Barabási–Albert with m = 3.
func scaleFreeNet(n int, p Params, stream uint64) *overlay.Network {
	rng := xrand.New(p.Seed + stream)
	net := overlay.New(graph.BarabasiAlbert(n, 3, rng), n, nil)
	if p.Transport != nil {
		net.SetTransport(p.Transport)
	}
	return net
}
