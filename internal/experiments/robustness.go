// The robustness experiment group ranks all nine estimator families
// under degraded network conditions — the scenario suite the paper's
// benign-churn comparison leaves open. Each experiment fixes one fault
// scenario (lossy links, inflated delay, duplicated traffic, a
// partition that heals mid-sequence, or a combined adversary), runs
// every family through the fault layer on the same overlay, and ranks
// the families by accuracy (MAE/MAPE) with p50/p95/p99 estimate-latency
// percentiles — the way ext-classes ranks the counting classes on
// accuracy alone.
//
// Determinism: candidates run on per-candidate views (clones for the
// partition scenario, whose surgery mutates the graph) with per-run
// injectors on per-run streams, so the output is byte-identical at
// every worker count, like every other experiment in the package.

package experiments

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"p2psize/internal/core"
	"p2psize/internal/fault"
	"p2psize/internal/idspace"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/registry"
	"p2psize/internal/stats"
	"p2psize/internal/xrand"
)

func init() {
	register("robustness-drop", robustness("robustness-drop",
		"All nine families under 10% message loss", fault.Spec{Drop: 0.10}))
	register("robustness-delay", robustness("robustness-delay",
		"All nine families under 3x message delay", fault.Spec{DelayFactor: 3}))
	register("robustness-dup", robustness("robustness-dup",
		"All nine families under 10% message duplication", fault.Spec{Dup: 0.10}))
	register("robustness-partition", robustness("robustness-partition",
		"All nine families across a partition that splits 40% of the peers off and heals",
		fault.Spec{PartitionFrac: 0.4, PartitionLo: 0.3, PartitionHi: 0.7}))
	register("robustness-adversary", robustness("robustness-adversary",
		"All nine families against lying, silent and sybil peers",
		fault.Spec{LieScale: 10, LieFrac: 0.05, SilentFrac: 0.10, SybilFrac: 0.15}))
	// Asymmetric connectivity: 20% of the peers answer nothing inbound
	// while still originating traffic — the NAT-limited population every
	// deployed P2P network carries. Walk and poll families pay extra
	// messages and lose reach; the structured dht family is oblivious
	// (records outlive reachability); epidemic families leak mass on
	// every push into the fated set.
	register("robustness-nat", robustness("robustness-nat",
		"All nine families with 20% of the peers NAT-unreachable for inbound requests",
		fault.Spec{NATFrac: 0.2}))
}

func robustness(id, title string, spec fault.Spec) Runner {
	return func(p Params) (*Figure, error) { return runRobustness(id, title, spec, p) }
}

// robustCandidate is one family in the head-to-head ranking.
type robustCandidate struct {
	family string
	seed   uint64
	opts   registry.Options
}

func runRobustness(id, title string, spec fault.Spec, p Params) (*Figure, error) {
	fig := &Figure{ID: id, Title: title, XLabel: "Estimation", YLabel: "Quality %"}
	// Nine families on one overlay is the group's hot spot; a sixteenth
	// of the paper scale keeps the full suite tractable while every
	// family still has room to be wrong.
	n := max(1000, p.N100k/16)
	runs := min(10, p.TableRuns)
	baseNet := hetNet(n, p, 0x5200)
	// The error target is the honest population: silent peers still
	// count (they are alive, just unresponsive), sybils never do.
	trueN := float64(n)
	salt := p.Seed + 0x5201
	if spec.SilentFrac > 0 {
		fault.Silence(baseNet, spec.SilentFrac, salt)
	}
	if spec.SybilFrac > 0 {
		fault.InflateSybils(baseNet, spec.SybilFrac, xrand.New(p.Seed+0x5202))
	}
	// The ring snapshots the overlay after the adversary moved in —
	// sybils registered identifiers, silent peers' records linger.
	ring := idspace.NewRing(baseNet, xrand.New(p.Seed+0x5203))
	candidates := []robustCandidate{
		{"samplecollide", 0x5210, registry.Options{}},
		{"randomtour", 0x5211, registry.Options{Tours: 3}},
		{"hopssampling", 0x5212, registry.Options{}},
		{"aggregation", 0x5213, epochOpts()},
		{"idspace", 0x5214, registry.Options{Ring: ring}},
		{"polling", 0x5215, registry.Options{}},
		{"pushsum", 0x5216, epochOpts()},
		{"capturerecapture", 0x5217, registry.Options{}},
		{"dht", 0x5218, registry.Options{}},
	}
	type candOut struct {
		quality *metrics.Series
		latency *metrics.Series
		ranking Ranking
		note    string
		counter metrics.Counter
	}
	outer, inner := parallel.Split(p.Workers, len(candidates))
	outs, err := parallel.Map(outer, len(candidates), func(ci int) (candOut, error) {
		c := candidates[ci]
		// The injectors are created up front, one per run: each run's
		// recorded latency is read back from its injector after the
		// harness has returned.
		injs := make([]*fault.Injector, runs)
		for run := range injs {
			injs[run] = fault.NewInjector(spec, xrand.NewStream(p.Seed+c.seed+0x10000, uint64(run)))
		}
		var net *overlay.Network
		if spec.PartitionFrac > 0 {
			// Partition surgery mutates the graph. Every candidate clones,
			// so baseNet stays the never-written copy-on-write base.
			net = baseNet.CloneCOW()
		} else {
			net = baseNet.View()
		}
		mkInner, err := perRun(id+" "+c.family, c.family, net, p.Seed+c.seed, c.opts)
		if err != nil {
			return candOut{}, err
		}
		mk := func(run int) core.Estimator { return tolerant{fault.Decorate(mkInner(run), injs[run])} }
		estimates, err := robustEstimates(mk, net, runs, spec, salt, inner)
		if err != nil {
			return candOut{}, fmt.Errorf("%s %s: %w", id, c.family, err)
		}
		quality := &metrics.Series{Name: c.family}
		latency := &metrics.Series{Name: c.family + " latency"}
		lats := make([]float64, runs)
		r := Ranking{Name: c.family}
		for i, est := range estimates {
			quality.Append(float64(i+1), 100*est/trueN)
			lats[i] = injs[i].LastLatency()
			latency.Append(float64(i+1), lats[i])
			if math.IsNaN(est) {
				r.Failures++
				continue
			}
			r.MAE += math.Abs(est - trueN)
			r.MAPE += 100 * math.Abs(est-trueN) / trueN
		}
		// Accuracy is over the successful runs; a family with none keeps
		// the zero values (JSON has no NaN) and is ranked last.
		if ok := runs - r.Failures; ok > 0 {
			r.MAE /= float64(ok)
			r.MAPE /= float64(ok)
		}
		r.P50 = stats.Quantile(lats, 0.50)
		r.P95 = stats.Quantile(lats, 0.95)
		r.P99 = stats.Quantile(lats, 0.99)
		note := fmt.Sprintf("%s: MAE %.0f, MAPE %.1f%%, latency p50/p95/p99 %.1f/%.1f/%.1f, %.0f msgs/estimation",
			c.family, r.MAE, r.MAPE, r.P50, r.P95, r.P99,
			float64(net.Counter().Total())/float64(runs))
		if r.Failures > 0 {
			note += fmt.Sprintf(" (%d failures)", r.Failures)
		}
		return candOut{
			quality: quality,
			latency: latency,
			ranking: r,
			note:    note,
			counter: net.Counter().Snapshot(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, o := range outs {
		fig.Series = append(fig.Series, o.quality, o.latency)
		fig.Rankings = append(fig.Rankings, o.ranking)
		fig.AddNote("%s", o.note)
		baseNet.Counter().Merge(&o.counter)
	}
	sortRankings(fig.Rankings, runs)
	fig.AddNote("scenario %q on %d honest peers, most robust first: %s",
		spec.String(), n, rankingOrder(fig.Rankings))
	fig.Messages = baseNet.Counter().Total()
	return fig, nil
}

// tolerant makes an estimator's error a value: the run yields NaN
// instead of aborting the sequence. Under a fault scenario a failed
// estimation — an initiator the adversary or the partition isolated —
// is a measurement, counted per family in the ranking; the strict
// core.RunStaticParallel underneath never sees it.
type tolerant struct{ core.Estimator }

func (t tolerant) Estimate(net *overlay.Network) (float64, error) {
	est, err := t.Estimator.Estimate(net)
	if err != nil {
		return math.NaN(), nil
	}
	return est, nil
}

// robustEstimates runs the estimation sequence for one candidate. Under
// a partition scenario the sequence is cut into three segments — before
// the split, during it, and after the heal — with the graph surgery
// applied between them; run indices stay global across segments so each
// run keeps its (stream, injector) identity wherever the cut falls.
func robustEstimates(mk func(run int) core.Estimator, net *overlay.Network, runs int, spec fault.Spec, salt uint64, workers int) ([]float64, error) {
	if spec.PartitionFrac <= 0 {
		res, err := core.RunStaticParallel(mk, net, runs, workers)
		if err != nil {
			return nil, err
		}
		return res.Estimates, nil
	}
	lo := int(spec.PartitionLo * float64(runs))
	hi := int(spec.PartitionHi * float64(runs))
	estimates := make([]float64, 0, runs)
	segment := func(off, count int) error {
		if count == 0 {
			return nil
		}
		mkOff := func(run int) core.Estimator { return mk(run + off) }
		res, err := core.RunStaticParallel(mkOff, net, count, workers)
		if err != nil {
			return err
		}
		estimates = append(estimates, res.Estimates...)
		return nil
	}
	if err := segment(0, lo); err != nil {
		return nil, err
	}
	severed := fault.Partition(net, spec.PartitionFrac, salt)
	if err := segment(lo, hi-lo); err != nil {
		return nil, err
	}
	fault.Heal(net, severed)
	if err := segment(hi, runs-hi); err != nil {
		return nil, err
	}
	return estimates, nil
}

// sortRankings orders most-robust-first: by MAPE, a family with no
// successful run (of runs) after every family that has one; ties by name.
func sortRankings(rs []Ranking, runs int) {
	key := func(r Ranking) float64 {
		if r.Failures == runs {
			return math.Inf(1)
		}
		return r.MAPE
	}
	slices.SortFunc(rs, func(a, b Ranking) int {
		return cmp.Or(cmp.Compare(key(a), key(b)), strings.Compare(a.Name, b.Name))
	})
}

func rankingOrder(rs []Ranking) string {
	names := make([]string, len(rs))
	for i, r := range rs {
		names[i] = r.Name
	}
	return strings.Join(names, " > ")
}
