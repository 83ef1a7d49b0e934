// Package pushsum implements the Push-Sum size estimator (Kempe, Dobra
// & Gehrke, FOCS'03), the second representative of the epidemic class
// alongside Aggregation's push-pull averaging.
//
// Every participant holds a (sum, weight) pair. An epoch starts with
// the initiator holding weight 1; a node reached by an epoch message
// joins with sum 1 and weight 0, so the epoch-wide totals are
// Σsum = #participants and Σweight = 1. Each round, every participating
// node keeps half of its pair and pushes the other half to one
// uniformly random neighbor (one message per node per round — half the
// per-round price of push-pull). Both totals are conserved by
// construction, the local ratio sum/weight converges to Σsum/Σweight at
// every node with positive weight, and the initiator reads the size
// estimate sum/weight after RoundsPerEpoch rounds.
//
// Compared to Aggregation the protocol is asymmetric (push only, no
// reply), which halves the round cost but roughly doubles the rounds to
// a given dispersion; under churn it shares Aggregation's epoch
// semantics — departures remove mass, arrivals join on first contact —
// and the same fragmentation failure mode in shrinking scenarios.
//
// The round sweep runs on the shared sharded-round engine
// (parallel.RoundEngine), exactly like aggregation.RunRound: the sweep
// order is cut into Config.Shards segments, each drawing from its own
// per-round xrand stream, and pushes whose target lives in another
// shard are deferred to the engine's fixed round-robin tournament of
// shard pairs. The shard count and Config.Shuffle are part of the
// algorithm; Config.Workers only schedules the shards and never
// changes output.
package pushsum

import (
	"errors"
	"fmt"
	"math"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/xrand"
)

// Config parameterizes the Push-Sum protocol.
type Config struct {
	// RoundsPerEpoch is how many push rounds each counting epoch runs
	// before the estimate is read and the process restarts. The default
	// matches Aggregation's 50 so the two epidemic families are
	// compared at equal reactivity.
	RoundsPerEpoch int
	// Shards splits each round's shuffled sweep into this many
	// segments, each on its own per-round xrand stream; cross-shard
	// pushes are deferred to an ordered fix-up pass. Part of the
	// output, unlike Workers. 0 auto-sizes (see parallel.Shards).
	Shards int
	// Workers caps the goroutines executing one round's shards:
	// 0 means runtime.NumCPU(), 1 forces sequential execution. Workers
	// only changes wall time, never output.
	Workers int
	// Shuffle selects the sweep-order randomization: the default
	// ShuffleGlobal reproduces the frozen serial-shuffle draw order,
	// ShuffleLocal shuffles per shard inside the parallel phase. Part of
	// the output, like Shards.
	Shuffle parallel.ShuffleMode
}

// engine projects the sharded-round knobs onto the engine's config.
func (c Config) engine() parallel.EngineConfig {
	return parallel.EngineConfig{Shards: c.Shards, Workers: c.Workers, Shuffle: c.Shuffle}
}

// Default returns the 50-round configuration.
func Default() Config { return Config{RoundsPerEpoch: 50} }

func (c *Config) validate() error {
	if c.RoundsPerEpoch < 1 {
		return errors.New("pushsum: RoundsPerEpoch must be >= 1")
	}
	if err := c.engine().Validate(); err != nil {
		return fmt.Errorf("pushsum: %w", err)
	}
	return nil
}

// Protocol is a running Push-Sum instance. Several instances can share
// an overlay; each owns its (sum, weight) vectors.
type Protocol struct {
	cfg Config
	rng *xrand.Rand

	sums      []float64 // per node ID
	weights   []float64 // per node ID
	epochOf   []uint32  // epoch tag a node participates in
	epoch     uint32
	initiator graph.NodeID
	engine    parallel.RoundEngine[push] // owns all sharded-sweep scratch
}

// push is one deferred cross-shard delivery: half of u's pair headed
// for v, already debited from u during the parallel phase.
type push struct {
	v    graph.NodeID
	s, w float64
}

// New builds a Protocol; it panics on invalid configuration.
func New(cfg Config, rng *xrand.Rand) *Protocol {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		panic("pushsum: nil rng")
	}
	return &Protocol{cfg: cfg, rng: rng, initiator: graph.None}
}

// Name identifies the estimator in reports.
func (p *Protocol) Name() string {
	return fmt.Sprintf("push-sum(rounds=%d)", p.cfg.RoundsPerEpoch)
}

// ErrEmptyOverlay is returned when no live peer can initiate.
var ErrEmptyOverlay = errors.New("pushsum: empty overlay")

// StartEpoch begins a new counting process: the epoch tag is bumped and
// the initiator (kept from the previous epoch when still alive,
// otherwise re-drawn uniformly) joins with sum 1 and the epoch's entire
// weight mass of 1.
func (p *Protocol) StartEpoch(net *overlay.Network) error {
	if p.initiator == graph.None || !net.Alive(p.initiator) {
		id, ok := net.RandomPeer(p.rng)
		if !ok {
			return ErrEmptyOverlay
		}
		p.initiator = id
	}
	p.grow(net.Graph().NumIDs())
	p.epoch++
	p.sums[p.initiator] = 1
	p.weights[p.initiator] = 1
	p.epochOf[p.initiator] = p.epoch
	return nil
}

// grow extends the per-node vectors to numIDs in one step each (an
// append per node walks the 1.25x regrowth chain and allocates five
// times the final size on a million-node overlay).
func (p *Protocol) grow(numIDs int) {
	if k := numIDs - len(p.sums); k > 0 {
		p.sums = append(p.sums, make([]float64, k)...)
		p.weights = append(p.weights, make([]float64, k)...)
		p.epochOf = append(p.epochOf, make([]uint32, k)...)
	}
}

// participant reports whether id has joined the current epoch.
func (p *Protocol) participant(id graph.NodeID) bool {
	return int(id) < len(p.epochOf) && p.epochOf[id] == p.epoch
}

// deliver credits a pushed half-pair to v, joining it first when it is
// new to the epoch ("a node reached by a counting message with a new
// tag" contributes its own sum of 1).
func (p *Protocol) deliver(v graph.NodeID, s, w float64) {
	if !p.participant(v) {
		p.sums[v] = 1
		p.weights[v] = 0
		p.epochOf[v] = p.epoch
	}
	p.sums[v] += s
	p.weights[v] += w
}

// halve debits half of u's pair and returns it; the caller delivers it
// to the drawn target.
func (p *Protocol) halve(u graph.NodeID) (s, w float64) {
	s = p.sums[u] / 2
	w = p.weights[u] / 2
	p.sums[u] = s
	p.weights[u] = w
	return s, w
}

// RunRound executes one synchronous push cycle: every live node, in
// fresh random order, draws one uniformly random neighbor (the epidemic
// substrate runs on all nodes — a round is priced at exactly one push
// message per node); participants of the current epoch send half of
// their pair to the drawn neighbor, which joins the epoch on first
// contact. It panics if called before StartEpoch.
//
// The sweep runs on the shared sharded-round engine, like
// aggregation.RunRound: a shard debits and delivers immediately when
// the drawn neighbor lies in its own segment and defers the (already
// debited) delivery otherwise; deferred pushes are applied in the
// engine's fixed round-robin tournament of shard pairs, so the result
// depends only on (seed, config, overlay), never on Config.Workers or
// scheduling.
func (p *Protocol) RunRound(net *overlay.Network) {
	if p.epoch == 0 {
		panic("pushsum: RunRound before StartEpoch")
	}
	g := net.Graph()
	p.grow(g.NumIDs())
	n := g.NumAlive()
	if n == 0 {
		return
	}
	// Pushes are fire-and-forget: under a fault policy a lost push is
	// still metered and the sender still halves, but the half-pair
	// evaporates in transit — the mass-conservation failure drop causes.
	// A lying sender scales the sum it pushes; its own half stays honest.
	// Fate draws happen only under a positive drop probability, so the
	// benign draw sequence is untouched by the fault layer's existence.
	pol := net.FaultPolicy()
	dropP := 0.0
	if pol != nil {
		dropP = pol.DropProb()
	}
	sw := parallel.Sweep[push]{
		N:       n,
		NumKeys: g.NumIDs(),
		Keys:    g.CopyAlive,
		// Mutating churn never happens mid-round, so the records a block
		// is about to draw its neighbours from can be fetched ahead —
		// and with them the block's own pairs, which every visit reads
		// and only the visiting shard writes.
		Warm: func(keys []graph.NodeID) uint64 {
			acc := uint64(g.DegreeSum(keys))
			for _, u := range keys {
				acc += uint64(p.epochOf[u]) + math.Float64bits(p.sums[u]) + math.Float64bits(p.weights[u])
			}
			return acc
		},
		Visit: func(sh *parallel.Shard[push], u graph.NodeID, rng *xrand.Rand) error {
			v, ok := g.RandomNeighbor(u, rng)
			if !ok {
				return nil
			}
			// Asymmetric (NAT-limited) connectivity: a push to a fated
			// target is sent — and metered — but lost at the NAT, the
			// same evaporation as a dropped push. Pure salted-hash
			// consultation: no draws, so benign and NAT-free streams are
			// untouched.
			lost := (dropP > 0 && rng.Bernoulli(dropP)) || (pol != nil && pol.Unreachable(v))
			sh.Meters[0]++ // push sent
			if !p.participant(u) {
				return nil
			}
			ds, dw := p.halve(u)
			if lost {
				return nil
			}
			if pol != nil {
				ds *= pol.ReportScale(u)
			}
			if t := sh.Owner(v); t == sh.Index {
				p.deliver(v, ds, dw)
			} else {
				sh.Defer(t, push{v: v, s: ds, w: dw})
			}
			return nil
		},
		Merge: func(sh *parallel.Shard[push]) {
			net.SendN(metrics.KindPush, sh.Meters[0])
		},
		MergeEach: net.PerMessage(),
		Resolve: func(pr push, _ *xrand.Rand) error {
			p.deliver(pr.v, pr.s, pr.w)
			return nil
		},
	}
	if err := p.engine.Round(p.rng, p.cfg.engine(), &sw); err != nil {
		panic(fmt.Sprintf("pushsum: round sweep failed: %v", err))
	}
}

// EstimateAt returns the size estimate sum/weight held at the given
// node, and false when the node holds no usable value (not a
// participant, dead, or zero weight — a node that joined but never
// received weight mass cannot estimate yet).
func (p *Protocol) EstimateAt(net *overlay.Network, id graph.NodeID) (float64, bool) {
	if !net.Alive(id) || !p.participant(id) {
		return 0, false
	}
	w := p.weights[id]
	if w <= 0 {
		return 0, false
	}
	return p.sums[id] / w, true
}

// Estimate returns the current estimate at the initiator.
func (p *Protocol) Estimate(net *overlay.Network) (float64, bool) {
	if p.initiator == graph.None {
		return 0, false
	}
	return p.EstimateAt(net, p.initiator)
}

// Estimator adapts Protocol to the one-shot core.Estimator contract:
// each Estimate call runs a full epoch (StartEpoch + RoundsPerEpoch
// rounds) and reads the initiator's ratio.
type Estimator struct {
	p *Protocol
}

// NewEstimator builds the one-shot adapter.
func NewEstimator(cfg Config, rng *xrand.Rand) *Estimator {
	return &Estimator{p: New(cfg, rng)}
}

// Name identifies the estimator in reports.
func (e *Estimator) Name() string { return e.p.Name() }

// MutatesOverlay reports true (core.OverlayMutator): like Aggregation,
// push-sum belongs to the cyclon-backed epidemic class whose deployed
// exchanges rewire views, so it keeps a private overlay clone.
func (e *Estimator) MutatesOverlay() bool { return true }

// Estimate runs one full epoch and returns the initiator's estimate.
func (e *Estimator) Estimate(net *overlay.Network) (float64, error) {
	if err := e.p.StartEpoch(net); err != nil {
		return 0, err
	}
	for r := 0; r < e.p.cfg.RoundsPerEpoch; r++ {
		e.p.RunRound(net)
	}
	est, ok := e.p.Estimate(net)
	if !ok {
		return 0, errors.New("pushsum: initiator lost during epoch")
	}
	return est, nil
}
