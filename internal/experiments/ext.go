package experiments

// Extension experiments: not figures of the paper, but runnable studies
// of the claims the paper makes in passing (§II's class comparisons, §V's
// delay conjecture) and of the substrates it defers to ([10]/[19]'s
// gossip membership management). Each gets an "ext-" registry id so
// cmd/figures regenerates them alongside the paper's figures.

import (
	"fmt"
	"math"

	"p2psize/internal/cyclon"
	"p2psize/internal/graph"
	"p2psize/internal/idspace"
	"p2psize/internal/latency"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/registry"
	"p2psize/internal/xrand"
)

func init() {
	register("ext-walks", extWalks)
	register("ext-classes", extClasses)
	register("ext-delay", extDelay)
	register("ext-cyclon", extCyclon)
}

// extWalks reproduces the background claim (§II) that made the paper pick
// Sample&Collide as the random-walk candidate: "the overhead of the
// Sample&Collide algorithm is much lower than the one of Random Tour".
// It sweeps the overlay size and plots messages per estimation for both:
// Random Tour costs Θ(N·d̄/deg i) per tour while Sample&Collide costs
// Θ(√(2lN)·T·d̄), so the gap widens with N.
func extWalks(p Params) (*Figure, error) {
	fig := &Figure{
		ID:     "ext-walks",
		Title:  "Random Tour vs Sample&Collide: overhead growth with network size",
		XLabel: "Network size",
		YLabel: "Messages per estimation",
	}
	rt := &metrics.Series{Name: "Random Tour (10 tours)"}
	sc := &metrics.Series{Name: "Sample&Collide (l=200)"}
	base := max(500, p.N100k/16)
	// Single tours have enormous cost variance (the return time scales
	// with 2|E|/deg(initiator) and the initiator degree varies 1..10),
	// so costs are averaged over several estimations per size.
	const runs = 8
	sizes := []int{base, 2 * base, 4 * base, 8 * base}
	// Two candidates per sweep point, each on its own build of that
	// size's overlay (same seed, so the pair measures one topology).
	var cands []candidate
	for range sizes {
		cands = append(cands,
			candidate{"random tour", "randomtour", p.Seed + 0x3001, runs, registry.Options{Tours: 10}},
			candidate{"sample&collide", "samplecollide", p.Seed + 0x3002, runs, registry.Options{}})
	}
	res, nets, err := compare("ext-walks", cands, func(ci int) *overlay.Network {
		return hetNet(sizes[ci/2], p, 0x3000+uint64(sizes[ci/2]))
	}, p)
	if err != nil {
		return nil, err
	}
	for si, n := range sizes {
		rtCost, scCost := res[2*si].MeanOverhead(), res[2*si+1].MeanOverhead()
		rt.Append(float64(n), rtCost)
		sc.Append(float64(n), scCost)
		fig.AddNote("N=%d: random tour %.0f msgs/est, sample&collide %.0f msgs/est, ratio %.1fx",
			n, rtCost, scCost, rtCost/scCost)
		fig.Messages += nets[2*si].Counter().Total() + nets[2*si+1].Counter().Total()
	}
	fig.Series = []*metrics.Series{rt, sc}
	return fig, nil
}

// extClasses runs one representative of every counting class the paper's
// background discusses — the three head-to-head candidates plus plain
// probabilistic polling (Bawa et al. / Friedman-Towsley) and the
// identifier-density method of structured overlays — on the same
// heterogeneous overlay, reporting accuracy and overhead.
func extClasses(p Params) (*Figure, error) {
	fig := &Figure{
		ID:     "ext-classes",
		Title:  "All five counting classes on one heterogeneous overlay",
		XLabel: "Estimation",
		YLabel: "Quality %",
	}
	n := p.N100k
	runs := min(10, p.TableRuns)
	baseNet := hetNet(n, p, 0x3100)
	// One identifier ring, built once on its own stream and shared by
	// every id-density instance — real deployments amortize ring
	// construction the same way.
	ring := idspace.NewRing(baseNet, xrand.New(p.Seed+0x3101))
	cands := []candidate{
		{"sample&collide(l=200)", "samplecollide", p.Seed + 0x3102, runs, registry.Options{}},
		{"hops-sampling", "hopssampling", p.Seed + 0x3103, runs, registry.Options{}},
		{"aggregation(50)", "aggregation", p.Seed + 0x3104, runs, epochOpts()},
		{"polling(p=0.01)", "polling", p.Seed + 0x3105, runs, registry.Options{}},
		{"id-density(k=200)", "idspace", p.Seed + 0x3106, runs, registry.Options{Ring: ring}},
	}
	// Candidates share the topology (and the id ring) read-only, each on
	// its own metering view.
	res, views, err := compare("ext-classes", cands,
		func(int) *overlay.Network { return baseNet.View() }, p)
	if err != nil {
		return nil, err
	}
	for ci, c := range cands {
		s := &metrics.Series{Name: c.name}
		var absErr float64
		for i, est := range res[ci].Estimates {
			q := 100 * est / float64(n)
			s.Append(float64(i+1), q)
			absErr += math.Abs(q - 100)
		}
		fig.Series = append(fig.Series, s)
		fig.AddNote("%s: mean |error| %.1f%%, %.0f msgs/estimation", c.name, absErr/float64(runs),
			float64(views[ci].Counter().Total())/float64(runs))
		baseNet.Counter().Merge(views[ci].Counter())
	}
	fig.Messages = baseNet.Counter().Total()
	return fig, nil
}

// extDelay measures the estimation latency of the three candidates under
// the Euclidean physical-network model — the paper's future-work item —
// to test §V's conjecture that HopsSampling wins on delay.
func extDelay(p Params) (*Figure, error) {
	fig := &Figure{
		ID:     "ext-delay",
		Title:  "Estimation latency under a physical network model (unit-square delays)",
		XLabel: "Network size",
		YLabel: "Latency (delay units)",
	}
	sc := &metrics.Series{Name: "Sample&Collide (l=200, sequential walks)"}
	hops := &metrics.Series{Name: "HopsSampling (gossip + ACK)"}
	agg := &metrics.Series{Name: "Aggregation (50 synchronous rounds)"}
	base := max(500, p.N100k/16)
	sizes := []int{base, 2 * base, 4 * base, 8 * base}
	type sizeOut struct {
		c    latency.Comparison
		msgs uint64
	}
	outs, err := parallel.Map(p.Workers, len(sizes), func(si int) (sizeOut, error) {
		n := sizes[si]
		net := hetNet(n, p, 0x3200+uint64(n))
		model := latency.NewEuclidean(net.Graph().NumIDs(), xrand.New(p.Seed+0x3201))
		c, err := latency.CompareAll(net, model, 200, epochLen, xrand.New(p.Seed+0x3202))
		if err != nil {
			return sizeOut{}, fmt.Errorf("ext-delay: %w", err)
		}
		return sizeOut{c: c, msgs: net.Counter().Total()}, nil
	})
	if err != nil {
		return nil, err
	}
	for si, o := range outs {
		n := sizes[si]
		sc.Append(float64(n), o.c.SampleCollide)
		hops.Append(float64(n), o.c.HopsSampling)
		agg.Append(float64(n), o.c.Aggregation)
		fig.AddNote("N=%d: hops %.1f, aggregation %.1f, sample&collide %.1f (hops wins %.0fx over aggregation)",
			n, o.c.HopsSampling, o.c.Aggregation, o.c.SampleCollide, o.c.Aggregation/o.c.HopsSampling)
		fig.Messages += o.msgs
	}
	fig.Series = []*metrics.Series{hops, agg, sc}
	return fig, nil
}

// extCyclon contrasts the paper's no-repair churn rule with a
// CYCLON-maintained overlay ([19], the membership substrate the paper
// points at): both lose 40% of their peers; the static graph keeps its
// holes while CYCLON's shuffling flushes dead entries and keeps the
// survivors connected, which keeps the estimators healthy.
func extCyclon(p Params) (*Figure, error) {
	fig := &Figure{
		ID:     "ext-cyclon",
		Title:  "Overlay maintenance under churn: paper's no-repair rule vs CYCLON shuffling",
		XLabel: "Shuffle round after 40% departures",
		YLabel: "Stale view entries %",
	}
	n := p.N100k
	g := graph.Heterogeneous(n, maxDeg, xrand.New(p.Seed+0x3300))
	// The shuffle rounds are this experiment's hot loop: shard them on
	// the full worker budget (CYCLON runs alone here, no outer fan-out).
	ccfg := cyclon.Default()
	ccfg.Workers = p.Workers
	proto := cyclon.New(ccfg, xrand.New(p.Seed+0x3301), nil)
	proto.Bootstrap(g)

	// The no-repair baseline: remove the same peers from a plain graph.
	rng := xrand.New(p.Seed + 0x3302)
	victims := make([]graph.NodeID, 0, n*4/10)
	alive := g.AliveIDs()
	xrand.Shuffle(rng, alive)
	victims = append(victims, alive[:n*4/10]...)
	for _, id := range victims {
		g.RemoveNode(id)
		proto.Leave(id)
	}
	survivors := n - len(victims)
	staticComp := float64(graph.LargestComponent(g)) / float64(survivors)
	fig.AddNote("no-repair graph after -40%%: largest component %.1f%% of survivors, avg degree %.2f",
		100*staticComp, graph.AvgDegree(g))

	stale := &metrics.Series{Name: "CYCLON stale entries %"}
	comp := &metrics.Series{Name: "CYCLON largest component %"}
	for r := 0; r <= 30; r++ {
		if r > 0 {
			proto.RunRound()
		}
		stale.Append(float64(r), 100*proto.StaleFraction())
		if r%10 == 0 {
			cg := proto.ExportGraph(n)
			comp.Append(float64(r), 100*float64(graph.LargestComponent(cg))/float64(survivors))
		}
	}
	fig.Series = []*metrics.Series{stale, comp}
	fig.AddNote("CYCLON after 30 rounds: stale %.2f%%, maintenance cost %d messages",
		100*proto.StaleFraction(), proto.Counter().Total())

	// Close the loop: estimate on the maintained overlay. The MLE
	// refinement is used because at reduced scale l=200 is not small
	// against the survivor count, where the basic X²/(2l) formula
	// saturates high.
	net := proto.ExportOverlay(n, maxDeg)
	scDesc, err := estimator("ext-cyclon", "samplecollide")
	if err != nil {
		return nil, err
	}
	est, err := scDesc.New(net, xrand.New(p.Seed+0x3303), registry.Options{SCMLE: true})
	if err != nil {
		return nil, err
	}
	const estRuns = 5
	sum := 0.0
	for i := 0; i < estRuns; i++ {
		v, err := est.Estimate(net)
		if err != nil {
			return nil, fmt.Errorf("ext-cyclon estimate: %w", err)
		}
		sum += v
	}
	mean := sum / estRuns
	fig.AddNote("sample&collide on the CYCLON overlay (mean of %d): %.0f of %d survivors (%+.1f%%)",
		estRuns, mean, survivors, 100*(mean/float64(survivors)-1))
	fig.Messages = proto.Counter().Total() + net.Counter().Total()
	return fig, nil
}
