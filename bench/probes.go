package main

// The per-layer ledger. Two kinds of rows:
//
//   - in-workload rows come from the traced rep itself — the spans the
//     estimator decorators recorded, the set-up spans, the reports the
//     measured call returned — plus one standalone replay of the
//     workload's own trace;
//   - probe rows are short timing loops around one layer's exported
//     functions, run after the measured phase on fixtures rebuilt from
//     the same seed. Each probe is owned by the workload whose
//     end-to-end numbers it is meant to explain and runs only in that
//     workload's traced rep.
//
// A row a traced rep did not measure is absent from its ledger; the
// driver's result line prints it as 0.

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"p2psize"
	"p2psize/internal/aggregation"
	"p2psize/internal/churn"
	"p2psize/internal/cluster"
	"p2psize/internal/core"
	"p2psize/internal/cyclon"
	"p2psize/internal/fault"
	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/pushsum"
	"p2psize/internal/registry"
	"p2psize/internal/stats"
	"p2psize/internal/trace"
	"p2psize/internal/transport"
	"p2psize/internal/xrand"
)

// maxDegree is the paper's degree cap, the one p2psize.NewNetwork uses.
const maxDegree = 10

// Seed offsets of the probes' own streams.
const (
	seedProbe       = 5000
	seedProbeFamily = 6000
)

// sink keeps the compiler from deleting a timing loop whose result
// nothing else reads.
var sink uint64

// prober runs one traced rep's share of the ledger.
type prober struct {
	seed    uint64
	sz      sizes
	workers int
	rec     *recorder
	span    int // parent of every probe span
	rep     *repResult
	trace   *p2psize.Trace
	out     map[string]float64
	graphs  map[int]*graph.Graph
}

// timed runs fn under a span of its own and returns how long it took.
func (p *prober) timed(name string, count int, fn func()) time.Duration {
	id := p.rec.begin(p.span, "probe."+name)
	start := time.Now()
	fn()
	d := time.Since(start)
	p.rec.end(id, uint64(count))
	return d
}

// perOp records the metric as nanoseconds per operation of an n-step
// loop.
func (p *prober) perOp(metric string, n int, loop func()) {
	p.out[metric] = float64(p.timed(metric, n, loop)) / float64(n)
}

// graph returns the heterogeneous overlay graph of n nodes the
// workloads build for this seed, building it on first use.
func (p *prober) graph(n int) *graph.Graph {
	if g, ok := p.graphs[n]; ok {
		return g
	}
	if p.graphs == nil {
		p.graphs = make(map[int]*graph.Graph)
	}
	g := graph.Heterogeneous(n, maxDegree, xrand.New(p.seed))
	p.graphs[n] = g
	return g
}

func (p *prober) rng(stream uint64) *xrand.Rand {
	return xrand.NewStream(p.seed+seedProbe, stream)
}

// tier is one of the two probe sizes, named the way the metrics name it.
type tier struct {
	name  string
	nodes int
}

func (p *prober) tiers() []tier {
	return []tier{{"100k", p.sz.ProbeSmall}, {"1m", p.sz.ProbeLarge}}
}

// ---- in-workload rows ----------------------------------------------------

// monitorRows fills what a monitor workload's traced rep knows about
// itself: where set-up went, how the measured call splits between the
// estimators and the monitor, and what one replay of the trace costs.
func (p *prober) monitorRows() error {
	spans := p.rec.spans
	for _, s := range children(spans, p.rec.setup) {
		switch s.Name {
		case "setup.overlay":
			p.out["graph.build_s"] = s.duration().Seconds()
			p.out["graph.bytes_per_node"] = float64(p.rec.overlayBytes) / float64(s.Count)
		case "setup.trace":
			p.out["trace.generate_s"] = s.duration().Seconds()
			p.out["trace.generate_events_per_s"] = float64(s.Count) / s.duration().Seconds()
		}
	}
	run := spans[p.rec.run-1]
	estimates := children(spans, run.ID)
	p.out["monitor.self_s"] = selfTime(spans, run).Seconds()
	p.out["monitor.groups"] = float64(p.rep.Groups)
	busy := make(map[string]time.Duration)
	var total time.Duration
	for _, s := range estimates {
		busy[s.Name] += s.duration()
		total += s.duration()
	}
	for _, f := range registryFamilies {
		// 0 for a family this workload's roster does not hold.
		p.out["family."+f+".busy_share"] = float64(busy["estimate."+f]) / float64(total)
	}
	return p.replay(run.duration())
}

// replay plays the workload's trace once on a COW clone of the
// workload's overlay, alone: what one replay group of the measured call
// pays. The trace crosses from the public API to the internal packages
// the way a user would carry it, as CSV.
func (p *prober) replay(run time.Duration) error {
	var csv bytes.Buffer
	if err := p.trace.WriteCSV(&csv); err != nil {
		return err
	}
	size := csv.Len()
	var tr *trace.Trace
	var err error
	d := p.timed("trace.read_csv", size, func() { tr, err = trace.ReadCSV(&csv) })
	if err != nil {
		return err
	}
	p.out["trace.read_csv_mb_per_s"] = float64(size) / (1 << 20) / d.Seconds()

	clone := overlay.New(p.graph(p.sz.Nodes), maxDegree, nil).CloneCOW()
	var player *trace.Player
	d = p.timed("trace.new_player", tr.Initial, func() { player, err = trace.NewPlayer(tr, clone) })
	if err != nil {
		return err
	}
	p.out["trace.new_player_s"] = d.Seconds()

	rng := xrand.New(p.seed + seedReplay)
	events := len(tr.Events)
	d = p.timed("trace.replay", events, func() { player.AdvanceTo(clone, tr.Horizon, rng) })
	p.out["trace.replay_us_per_event"] = float64(d.Microseconds()) / float64(max(events, 1))
	p.out["monitor.replay_share"] = d.Seconds() * float64(p.rep.Groups) / run.Seconds()
	g := clone.Graph()
	p.out["graph.cow_owned_pages_share"] = 1 - float64(g.SharedPages())/float64(g.TotalPages())
	return nil
}

// suiteRows splits the suite's wall time by experiment class and says
// how well the scheduler packed the workers.
func (p *prober) suiteRows() {
	report := p.rep.Suite
	for _, c := range experimentClasses {
		p.out["experiments.class."+c+".wall_s"] = 0
	}
	for _, id := range namedExperiments {
		p.out["experiments."+id+".wall_s"] = 0
	}
	var sum, slowest float64
	for _, e := range report.Experiments {
		wall := e.WallMS / 1000
		p.out["experiments.class."+experimentClass(e.ID)+".wall_s"] += wall
		sum += wall
		slowest = max(slowest, wall)
		for _, id := range namedExperiments {
			if e.ID == id {
				p.out["experiments."+id+".wall_s"] = wall
			}
		}
	}
	total := report.TotalWallMS / 1000
	// Experiments run min(4, workers) at a time; a perfect schedule
	// keeps every slot busy for the whole suite.
	slots := float64(min(4, report.Workers, len(report.Experiments)))
	p.out["experiments.sched_efficiency"] = sum / (slots * total)
	p.out["experiments.slowest_id_share"] = slowest / total
}

// experimentClass maps an experiment id to its class: the paper's
// static figures, its dynamic figures, and the later additions by
// prefix.
func experimentClass(id string) string {
	switch {
	case id == "table1":
		return "table"
	case id == "static-new", id == "fig18", id >= "fig01" && id <= "fig08":
		return "static"
	case strings.HasPrefix(id, "fig"):
		return "dynamic"
	}
	class, _, _ := strings.Cut(id, "-") // trace-*, ext-*, robustness-*
	return class
}

// clusterRows reads the three phases of RunCluster off its progress
// lines: daemons bootstrapped, topology wired and verified, families
// estimated (live and simulated together — the call logs nothing in
// between).
func (p *prober) clusterRows() {
	log := p.rep.ClusterLog
	if len(log) < 3 {
		return
	}
	p.out["cluster.bootstrap_s"] = log[0].At.Seconds()
	p.out["cluster.wire_s"] = (log[1].At - log[0].At).Seconds()
	p.out["cluster.estimate_s"] = (log[2].At - log[1].At).Seconds()
}

// ---- probes owned by monitor-walks-1m --------------------------------------

func probeWalks(p *prober) error {
	if err := p.monitorRows(); err != nil {
		return err
	}
	p.xrand()
	p.graphReads()
	return p.families("samplecollide", "randomtour", "hopssampling", "idspace",
		"polling", "capturerecapture", "dht")
}

func (p *prober) xrand() {
	n := p.sz.ProbeSteps
	rng := p.rng(1)
	p.perOp("xrand.uint64_ns", n, func() {
		var acc uint64
		for i := 0; i < n; i++ {
			acc ^= rng.Uint64()
		}
		sink += acc
	})
	p.perOp("xrand.intn_ns", n, func() {
		acc := 0
		for i := 0; i < n; i++ {
			acc += rng.Intn(p.sz.ProbeLarge)
		}
		sink += uint64(acc)
	})
}

// graphReads times the read path of the paged graph: a random-walk
// chain (every step a dependent, cache-missing load through the page
// tables) at both sizes, AliveAt at random indices, a sequential
// adjacency scan, and RandomPeer through the overlay.
func (p *prober) graphReads() {
	n := p.sz.ProbeSteps
	for _, tier := range p.tiers() {
		g := p.graph(tier.nodes)
		rng := p.rng(2)
		p.perOp("graph.walk_step_ns."+tier.name, n, func() {
			cur, _ := g.RandomAlive(rng)
			for i := 0; i < n; i++ {
				next, ok := g.RandomNeighbor(cur, rng)
				if !ok {
					next, _ = g.RandomAlive(rng)
				}
				cur = next
			}
			sink += uint64(cur)
		})
	}
	g := p.graph(p.sz.ProbeLarge)
	alive := g.NumAlive()
	rng := p.rng(3)
	p.perOp("graph.alive_at_ns.1m", n, func() {
		var acc uint64
		// A random index per call (one xrand.intn_ns of the figure), as
		// the sampling families draw them: no stride for the prefetcher.
		for i := 0; i < n; i++ {
			acc += uint64(g.AliveAt(rng.Intn(alive)))
		}
		sink += acc
	})
	p.perOp("graph.neighbors_scan_ns_per_node", g.NumIDs(), func() {
		var acc uint64
		for id := 0; id < g.NumIDs(); id++ {
			for _, nb := range g.Neighbors(graph.NodeID(id)) {
				acc += uint64(nb)
			}
		}
		sink += acc
	})
	net := overlay.New(g, maxDegree, nil)
	p.perOp("overlay.random_peer_ns", n, func() {
		var acc uint64
		for i := 0; i < n; i++ {
			id, _ := net.RandomPeer(rng)
			acc += uint64(id)
		}
		sink += acc
	})
}

// familyEstimates is how many estimations a family probe takes its
// median over.
const familyEstimates = 3

// families runs each named registry family alone on a clone of the
// small fixture: time and messages per estimation.
func (p *prober) families(names ...string) error {
	base := overlay.New(p.graph(p.sz.ProbeSmall), maxDegree, nil)
	for k, name := range names {
		d, ok := registry.Get(name)
		if !ok {
			return fmt.Errorf("family %q is not registered", name)
		}
		net := base.CloneCOW()
		e, err := d.Build(net, xrand.New(p.seed+seedProbeFamily+uint64(k)), registry.Options{Workers: p.workers})
		if err != nil {
			return fmt.Errorf("family %s: %w", name, err)
		}
		var ms, msgs []float64
		var busy time.Duration
		var total uint64
		for i := 0; i < familyEstimates; i++ {
			before := net.Counter().Total()
			took := p.timed("family."+name+".estimate", 1, func() { _, err = e.Estimate(net) })
			if err != nil {
				return fmt.Errorf("family %s: %w", name, err)
			}
			sent := net.Counter().Total() - before
			ms = append(ms, float64(took)/float64(time.Millisecond))
			msgs = append(msgs, float64(sent))
			busy += took
			total += sent
		}
		p.out["family."+name+".estimate_ms_p50"] = stats.Median(ms)
		p.out["family."+name+".msgs_per_estimate"] = stats.Median(msgs)
		p.out["family."+name+".ns_per_msg"] = float64(busy) / float64(max(total, 1))
	}
	return nil
}

// ---- probes owned by monitor-gossip-1m -------------------------------------

func probeGossip(p *prober) error {
	if err := p.monitorRows(); err != nil {
		return err
	}
	if err := p.rounds(); err != nil {
		return err
	}
	return p.families("aggregation", "pushsum")
}

// roundProbe is one engine family behind the two calls the probe needs.
type roundProbe struct {
	name string
	// start builds the family's state over g with the given engine
	// configuration and returns the function that runs one round.
	start func(g *graph.Graph, cfg parallel.EngineConfig, rng *xrand.Rand) (round func(), err error)
}

var roundProbes = []roundProbe{
	{"aggregation", func(g *graph.Graph, cfg parallel.EngineConfig, rng *xrand.Rand) (func(), error) {
		net := overlay.New(g, maxDegree, nil)
		proto := aggregation.New(aggregation.Config{
			RoundsPerEpoch: 1 << 20, Shards: cfg.Shards, Workers: cfg.Workers,
		}, rng)
		if err := proto.StartEpoch(net); err != nil {
			return nil, err
		}
		return func() { proto.RunRound(net) }, nil
	}},
	{"pushsum", func(g *graph.Graph, cfg parallel.EngineConfig, rng *xrand.Rand) (func(), error) {
		net := overlay.New(g, maxDegree, nil)
		proto := pushsum.New(pushsum.Config{
			RoundsPerEpoch: 1 << 20, Shards: cfg.Shards, Workers: cfg.Workers,
		}, rng)
		if err := proto.StartEpoch(net); err != nil {
			return nil, err
		}
		return func() { proto.RunRound(net) }, nil
	}},
	{"cyclon", func(g *graph.Graph, cfg parallel.EngineConfig, rng *xrand.Rand) (func(), error) {
		c := cyclon.Default()
		c.Shards, c.Workers = cfg.Shards, cfg.Workers
		proto := cyclon.New(c, rng, nil)
		proto.Bootstrap(g)
		return proto.RunRound, nil
	}},
}

// timedRounds is how many rounds a round probe times, after one
// untimed round that sizes the engine's buffers. One is enough: a round
// is a sweep over every node, and CYCLON's at 1M takes seconds.
const timedRounds = 1

// rounds times one sharded round of each engine family, sequential
// (one shard, one worker) against sharded (auto), at both sizes: a
// superlinear layer shows as the 1m row far above the 100k row.
func (p *prober) rounds() error {
	modes := []struct {
		name string
		cfg  parallel.EngineConfig
	}{
		{"seq", parallel.EngineConfig{Shards: 1, Workers: 1}},
		{"shard", parallel.EngineConfig{Shards: 0, Workers: p.workers}},
	}
	for _, f := range roundProbes {
		perNode := make(map[string]float64)
		for _, tier := range p.tiers() {
			g := p.graph(tier.nodes)
			for _, mode := range modes {
				round, err := f.start(g, mode.cfg, p.rng(10))
				if err != nil {
					return fmt.Errorf("%s rounds: %w", f.name, err)
				}
				round()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				name := fmt.Sprintf("parallel.%s.round_ns_per_node.%s.%s", f.name, mode.name, tier.name)
				d := p.timed(name, timedRounds*tier.nodes, func() {
					for i := 0; i < timedRounds; i++ {
						round()
					}
				})
				runtime.ReadMemStats(&after)
				perNode[mode.name+tier.name] = float64(d) / float64(timedRounds*tier.nodes)
				p.out[name] = perNode[mode.name+tier.name]
				if mode.name == "shard" && tier.name == "1m" {
					p.out["parallel."+f.name+".round_allocs"] = float64(after.Mallocs-before.Mallocs) / timedRounds
				}
			}
		}
		p.out["parallel."+f.name+".shard_speedup.1m"] = perNode["seq1m"] / perNode["shard1m"]
	}
	return nil
}

// ---- probes owned by churn-flashcrowd-1m ------------------------------------

func probeChurn(p *prober) error {
	if err := p.monitorRows(); err != nil {
		return err
	}
	p.graphWrites()
	return nil
}

// graphWrites times the write path: taking a COW clone, mutating it
// where every touched page still has to be copied (cold) and again
// where the clone already owns them (warm), and the overlay's own
// Join and Leave.
func (p *prober) graphWrites() {
	g := p.graph(p.sz.ProbeLarge)
	const clones = 200
	d := p.timed("graph.clone_cow", clones, func() {
		for i := 0; i < clones; i++ {
			sink += uint64(g.CloneCOW().NumAlive())
		}
	})
	p.out["graph.clone_cow_us"] = float64(d.Microseconds()) / clones

	// One mutation dirties about ten pages (the victim's adjacency, its
	// neighbours', the alive list and its index), so a fresh clone stays
	// cold for a sixteenth of its page count in mutations; after many
	// more, it owns every page it will ever touch.
	n := max(p.sz.ProbeSteps/100, 100)
	clone := g.CloneCOW()
	rng := p.rng(20)
	mutate := func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				victim, _ := clone.RandomAlive(rng)
				clone.RemoveNode(victim)
				peer, _ := clone.RandomAlive(rng)
				clone.AddEdge(clone.AddNode(), peer)
			}
		}
	}
	cold := max(clone.TotalPages()/16, 8)
	p.perOp("graph.mutate_cold_ns", cold, mutate(cold))
	mutate(n)()
	p.perOp("graph.mutate_warm_ns", n, mutate(n))

	net := overlay.New(g, maxDegree, nil).CloneCOW()
	rng = p.rng(21)
	p.perOp("overlay.join_ns", n, func() {
		for i := 0; i < n; i++ {
			sink += uint64(net.JoinRandomDegree(rng))
		}
	})
	p.perOp("overlay.leave_ns", n, func() {
		for i := 0; i < n; i++ {
			id, _ := net.LeaveRandom(rng)
			sink += uint64(id)
		}
	})
}

// ---- probes owned by suite-figures-s8 ---------------------------------------

func probeSuite(p *prober) error {
	p.suiteRows()
	n := p.sz.ProbeSteps / 10
	var err error
	p.perOp("parallel.map_task_overhead_ns", n, func() {
		var out []int
		out, err = parallel.Map(p.workers, n, func(i int) (int, error) { return i, nil })
		sink += uint64(len(out))
	})
	if err != nil {
		return err
	}
	// The paper's growing scenario (+50 % over 100 steps) on the small
	// fixture: one Runner.Step per estimation of the dynamic figures.
	const steps = 100
	net := overlay.New(p.graph(p.sz.ProbeSmall), maxDegree, nil).CloneCOW()
	runner := churn.NewRunner(churn.Growing(p.sz.ProbeSmall, steps, 0.5), p.rng(30))
	d := p.timed("churn.runner_step", steps, func() {
		for step := 1; step <= steps; step++ {
			runner.Step(net, step)
		}
	})
	p.out["churn.runner_step_us"] = float64(d.Microseconds()) / steps
	return nil
}

// ---- probes owned by cluster-udp-32 -----------------------------------------

func probeCluster(p *prober) error {
	p.clusterRows()
	p.sends()
	if err := p.faultOverhead(); err != nil {
		return err
	}
	if err := p.frames(); err != nil {
		return err
	}
	if err := p.udp(); err != nil {
		return err
	}
	return p.clusterFamilies()
}

// sends times the metering surface: bare, with a fault injector, and
// with a loopback transport installed (through SendTo — the metering
// seam is the only way in).
func (p *prober) sends() {
	n := p.sz.ProbeSteps
	g := p.graph(p.sz.ProbeSmall)
	var c metrics.Counter
	p.perOp("metrics.counter_add_ns", n, func() {
		for i := 0; i < n; i++ {
			c.Add(metrics.KindWalk, 1)
		}
		sink += c.Total()
	})
	bare := overlay.New(g, maxDegree, nil)
	p.perOp("overlay.send_ns", n, func() {
		for i := 0; i < n; i++ {
			bare.Send(metrics.KindWalk)
		}
	})
	faulty := overlay.New(g, maxDegree, nil)
	inj := fault.NewInjector(probeFaults(), p.rng(40))
	inj.BeginEstimate(faulty)
	faulty.SetFaultPolicy(inj)
	p.perOp("overlay.send_fault_ns", n, func() {
		for i := 0; i < n; i++ {
			faulty.Send(metrics.KindWalk)
		}
	})
	looped := overlay.New(g, maxDegree, nil)
	looped.SetTransport(transport.NewLoopback())
	p.perOp("overlay.send_loopback_ns", n, func() {
		for i := 0; i < n; i++ {
			looped.SendTo(graph.NodeID(i%p.sz.ProbeSmall), metrics.KindWalk)
		}
	})
}

// probeFaults is the degraded network the fault probes run under: the
// drop and duplication rates of the robustness experiments' mild cases.
func probeFaults() fault.Spec {
	spec, err := fault.ParseSpec("drop=0.05,dup=0.01")
	if err != nil {
		panic(err) // a constant the parser accepts
	}
	return spec
}

// faultOverhead compares one family (Sample&Collide) estimating bare
// and under fault.Decorate on equal seeds.
func (p *prober) faultOverhead() error {
	base := overlay.New(p.graph(p.sz.ProbeSmall), maxDegree, nil)
	d, ok := registry.Get("samplecollide")
	if !ok {
		return fmt.Errorf("family samplecollide is not registered")
	}
	medianOf := func(name string, decorate bool) (float64, error) {
		net := base.View()
		var e core.Estimator
		e, err := d.Build(net, p.rng(41), registry.Options{})
		if err != nil {
			return 0, err
		}
		if decorate {
			e = fault.Decorate(e, fault.NewInjector(probeFaults(), p.rng(42)))
		}
		var took []float64
		for i := 0; i < familyEstimates; i++ {
			t := p.timed(name, 1, func() { _, err = e.Estimate(net) })
			if err != nil {
				return 0, err
			}
			took = append(took, float64(t))
		}
		return stats.Median(took), nil
	}
	bare, err := medianOf("fault.bare_estimate", false)
	if err != nil {
		return err
	}
	decorated, err := medianOf("fault.decorated_estimate", true)
	if err != nil {
		return err
	}
	p.out["fault.decorate_overhead_pct"] = (decorated/bare - 1) * 100
	return nil
}

// frames times the wire codec on the frame the protocols send most: one
// oneway message.
func (p *prober) frames() error {
	n := p.sz.ProbeSteps / 10
	frame := &transport.Frame{Type: transport.TypeOneway, Kind: metrics.KindWalk, Seq: 1 << 20, From: 7, To: 31, Count: 1}
	wire, err := transport.EncodeFrame(frame)
	if err != nil {
		return err
	}
	p.out["transport.frame_bytes"] = float64(len(wire))
	p.perOp("transport.frame_encode_ns", n, func() {
		for i := 0; i < n; i++ {
			frame.Seq = uint64(i)
			b, _ := transport.EncodeFrame(frame) // cannot fail: the frame above encoded
			sink += uint64(len(b))
		}
	})
	p.perOp("transport.frame_decode_ns", n, func() {
		for i := 0; i < n; i++ {
			f, _, derr := transport.DecodeFrame(wire)
			if derr != nil {
				err = derr
				return
			}
			sink += f.Seq
		}
	})
	return err
}

// echo is a UDP peer's handler: it counts what arrives and, when it has
// an overlay of its own, answers every oneway message with one through
// that overlay's metering seam.
type echo struct {
	reply   *overlay.Network
	to      graph.NodeID
	arrived chan struct{}
}

func (e *echo) ServeOneway(_ transport.NodeID, kind metrics.Kind, _ uint64) {
	if e.reply != nil {
		e.reply.SendTo(e.to, kind)
		return
	}
	select {
	case e.arrived <- struct{}{}:
	default: // nobody is waiting for this one
	}
}

func (e *echo) ServeRequest(transport.NodeID, string, []byte) ([]byte, error) {
	return nil, fmt.Errorf("bench echo peer serves no requests")
}

// udp times the socket transport between two endpoints on 127.0.0.1,
// entered the way the protocols enter it, through overlay.SendTo: the
// rate one sender sustains, and the round trip of a message the far
// side answers.
func (p *prober) udp() error {
	const here, there = graph.NodeID(0), graph.NodeID(1)
	g := graph.Ring(3)
	open := func(self graph.NodeID) (*transport.UDP, *overlay.Network, error) {
		u, err := transport.NewUDP(transport.UDPConfig{Addr: "127.0.0.1:0", Self: self})
		if err != nil {
			return nil, nil, err
		}
		net := overlay.New(g, maxDegree, nil)
		net.SetTransport(u)
		return u, net, nil
	}
	a, netA, err := open(here)
	if err != nil {
		return err
	}
	defer a.Close()
	b, netB, err := open(there)
	if err != nil {
		return err
	}
	defer b.Close()
	if err := a.SetPeer(there, b.LocalAddr()); err != nil {
		return err
	}
	if err := b.SetPeer(here, a.LocalAddr()); err != nil {
		return err
	}
	pong := &echo{arrived: make(chan struct{}, 1)}
	a.SetHandler(pong)
	b.SetHandler(&echo{reply: netB, to: here})

	pings := max(p.sz.ProbeSteps/1000, 200)
	rtts := make([]float64, 0, pings)
	d := p.timed("transport.udp_rtt", pings, func() {
		for i := 0; i < pings; i++ {
			start := time.Now()
			netA.SendTo(there, metrics.KindWalk)
			select {
			case <-pong.arrived:
				rtts = append(rtts, float64(time.Since(start))/float64(time.Microsecond))
			case <-time.After(time.Second):
				// A datagram lost on loopback: no sample.
			}
		}
	})
	if len(rtts) < pings/2 {
		return fmt.Errorf("udp probe: %d of %d pings came back in %v", len(rtts), pings, d)
	}
	p.out["transport.udp_rtt_us_p50"] = stats.Quantile(rtts, 0.50)
	p.out["transport.udp_rtt_us_p99"] = stats.Quantile(rtts, 0.99)

	// One-way: the far side only counts.
	b.SetHandler(&echo{arrived: make(chan struct{}, 1)})
	sends := p.sz.ProbeSteps / 20
	d = p.timed("transport.udp_oneway", sends, func() {
		for i := 0; i < sends; i++ {
			netA.SendTo(there, metrics.KindWalk)
		}
	})
	p.out["transport.udp_oneway_per_s"] = float64(sends) / d.Seconds()
	return nil
}

// clusterSamples is how many estimations each family makes in its own
// short cluster run.
const clusterSamples = 10

// clusterFamilies runs the cluster runtime once per family, which is
// the only way to see one family's cost from outside: wall time per
// sample (live and simulated together), frames carried per second of
// estimating, and the retransmissions of the control plane.
func (p *prober) clusterFamilies() error {
	plan := graph.Homogeneous(p.sz.ClusterNodes, maxDegree, xrand.New(p.seed))
	var frames, retransmits uint64
	var estimating time.Duration
	for _, name := range clusterFamilies {
		d, ok := registry.Get(name)
		if !ok {
			return fmt.Errorf("family %q is not registered", name)
		}
		var log stampLog
		log.begin()
		var rep *cluster.Report
		var err error
		p.timed("cluster."+name, clusterSamples, func() {
			rep, err = cluster.Run(cluster.Config{
				Plan: plan, MaxDeg: maxDegree, Estimators: []registry.Descriptor{d},
				Seed: p.seed, Samples: clusterSamples, Logf: log.logf,
			})
		})
		if err != nil {
			return fmt.Errorf("cluster probe %s: %w", name, err)
		}
		if len(log.stamps) < 3 {
			return fmt.Errorf("cluster probe %s: %d progress lines, want 3", name, len(log.stamps))
		}
		took := log.stamps[2].At - log.stamps[1].At
		p.out["cluster."+name+".sample_ms"] = float64(took) / float64(time.Millisecond) / clusterSamples
		frames += rep.Transport.Delivered
		retransmits += rep.Transport.Retransmits
		estimating += took
	}
	p.out["cluster.frames_per_s"] = float64(frames) / estimating.Seconds()
	p.out["transport.udp_retransmits"] = float64(retransmits)
	return nil
}
