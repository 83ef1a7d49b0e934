// Package aggregation implements the gossip-based Aggregation size
// estimator (§III-C of the comparative study; Jelasity & Montresor,
// ICDCS'04), the representative of the epidemic class.
//
// The protocol averages a one-hot vector: the initiator starts with value
// 1 and every other participant with 0. Each round ("predefined cycle"),
// every participating node picks a uniformly random neighbor and the pair
// swaps and averages its values (the push/pull heuristic — two messages
// per exchange). Averaging preserves the total mass of 1, so values
// converge to 1/N and any node can read the system size as 1/value. In a
// static network convergence to the exact size takes a few tens of rounds
// (the paper observes ≈40 for 100k nodes, ≈50 for 1M).
//
// Dynamics are handled with epochs ("tags"): a counting process is
// restarted at a regular interval; a node reached by a message carrying a
// new tag resets its value to 0 and joins the new process. Within one
// epoch the protocol is conservative — departures remove mass and
// arrivals join with 0 — so the estimate is only accurate as of the epoch
// start, and heavy departures that fragment the overlay break the
// averaging entirely (the paper's ≈30% threshold in the shrinking
// scenario).
package aggregation

import (
	"errors"
	"fmt"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/xrand"
)

// Config parameterizes the Aggregation protocol.
type Config struct {
	// RoundsPerEpoch is how many push-pull rounds each counting epoch
	// runs before the estimate is read and the process restarts. The
	// comparative study uses 50 ("in order not to make any hypothesis on
	// the targeted system size ... this value represents the best
	// possible algorithm's reactivity for an accurate estimation").
	RoundsPerEpoch int
	// Shards splits each round's shuffled node sweep into this many
	// segments, each drawing from its own per-round xrand stream;
	// exchanges whose endpoints land in different shards are deferred to
	// an ordered fix-up pass. The shard count (never the worker count)
	// is part of the algorithm: changing it changes the draws, while at
	// a fixed shard count the output is byte-identical at every Workers
	// setting. 0 picks one shard per parallel.MinShardNodes alive nodes (at most
	// parallel.MaxShards).
	Shards int
	// Workers caps the goroutines executing the shards of one round:
	// 0 means runtime.NumCPU(), 1 forces sequential execution. Workers
	// only changes wall time, never output.
	Workers int
	// Shuffle selects the round engine's sweep-order randomization:
	// ShuffleGlobal (the default) reproduces the serial full-sweep
	// shuffle bit for bit, ShuffleLocal shuffles per shard to remove
	// the serial O(N) prefix. Part of the output, like Shards.
	Shuffle parallel.ShuffleMode
}

// Default returns the paper's dynamic-setting configuration (50 rounds).
func Default() Config { return Config{RoundsPerEpoch: 50} }

func (c Config) engine() parallel.EngineConfig {
	return parallel.EngineConfig{Shards: c.Shards, Workers: c.Workers, Shuffle: c.Shuffle}
}

func (c *Config) validate() error {
	if c.RoundsPerEpoch < 1 {
		return errors.New("aggregation: RoundsPerEpoch must be >= 1")
	}
	if err := c.engine().Validate(); err != nil {
		return fmt.Errorf("aggregation: %w", err)
	}
	return nil
}

// Protocol is a running Aggregation instance. One instance corresponds to
// one independent "Estimation #k" curve in the paper's figures; several
// instances can share an overlay (each owns its value vector).
type Protocol struct {
	cfg Config
	rng *xrand.Rand

	values    []float64 // per node ID
	epochOf   []uint32  // epoch tag a node participates in
	epoch     uint32
	initiator graph.NodeID
	engine    parallel.RoundEngine[pair]
	pol       overlay.FaultPolicy // scratch: this round's fault policy
}

// Message fates under an installed fault policy. Push/pull traffic is
// fire-and-forget: a lost message loses its payload (no retransmission),
// which is how drop corrupts the conserved mass.
const (
	fatePushLost = 1 << iota // u's push never reached v: no exchange at all
	fatePullLost             // v's reply never reached u: v averaged, u kept its value
)

// pair is one deferred cross-shard exchange: u initiated, v was drawn,
// fate carries the pair's message fates (drawn in the initiating shard's
// stream so the fix-up pass replays them unchanged).
type pair struct {
	u, v graph.NodeID
	fate uint8
}

// New builds a Protocol; it panics on invalid configuration.
func New(cfg Config, rng *xrand.Rand) *Protocol {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		panic("aggregation: nil rng")
	}
	return &Protocol{cfg: cfg, rng: rng, initiator: graph.None}
}

// Name identifies the estimator in reports.
func (p *Protocol) Name() string {
	return fmt.Sprintf("aggregation(rounds=%d)", p.cfg.RoundsPerEpoch)
}

// ErrEmptyOverlay is returned when no live peer can initiate.
var ErrEmptyOverlay = errors.New("aggregation: empty overlay")

// StartEpoch begins a new counting process: the epoch tag is bumped, the
// initiator (kept from the previous epoch when still alive, otherwise
// re-drawn uniformly) takes value 1 and everyone else will join with 0 on
// first contact.
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
	p.values[p.initiator] = 1
	p.epochOf[p.initiator] = p.epoch
	return nil
}

// grow extends the per-node vectors to numIDs in one step each (an
// append per node walks the 1.25x regrowth chain and allocates five
// times the final size on a million-node overlay).
func (p *Protocol) grow(numIDs int) {
	if k := numIDs - len(p.values); k > 0 {
		p.values = append(p.values, make([]float64, k)...)
		p.epochOf = append(p.epochOf, make([]uint32, k)...)
	}
}

// participant reports whether id has joined the current epoch.
func (p *Protocol) participant(id graph.NodeID) bool {
	return int(id) < len(p.epochOf) && p.epochOf[id] == p.epoch
}

// join enrolls id in the current epoch with initial value 0, unless it
// already participates.
func (p *Protocol) join(id graph.NodeID) {
	if !p.participant(id) {
		p.values[id] = 0
		p.epochOf[id] = p.epoch
	}
}

// RunRound executes one synchronous push-pull cycle: every live node, in
// fresh random order, exchanges with one uniformly random neighbor (the
// epidemic substrate runs on all nodes — the paper prices a round at
// exactly 2 messages per node). When either endpoint participates in the
// current epoch, the other joins with initial value 0 ("a node which is
// reached by a counting message with a new tag will create a 0 initial
// value") and the pair averages its values. It panics if called before
// StartEpoch.
//
// The sweep runs on the shared sharded-round engine
// (parallel.RoundEngine): the sweep order is cut into Config.Shards
// segments, each sweeping its nodes with its own per-round xrand
// stream. A shard completes an exchange immediately when the drawn
// neighbor lies in its own segment — then both endpoints' values are
// owned by that shard alone — and defers it otherwise. Deferred pairs
// (the majority: a uniform neighbor lands outside its initiator's shard
// with probability (S-1)/S) are applied in the engine's fixed
// round-robin tournament of shard pairs, so the result depends only on
// (seed, config, overlay), never on Config.Workers or scheduling.
func (p *Protocol) RunRound(net *overlay.Network) {
	if p.epoch == 0 {
		panic("aggregation: RunRound before StartEpoch")
	}
	g := net.Graph()
	p.grow(g.NumIDs())
	n := g.NumAlive()
	if n == 0 {
		return
	}
	// Fate draws happen only under a positive drop probability, so the
	// benign draw sequence is untouched by the fault layer's existence.
	p.pol = net.FaultPolicy()
	dropP := 0.0
	if p.pol != nil {
		dropP = p.pol.DropProb()
	}
	sw := parallel.Sweep[pair]{
		N:       n,
		NumKeys: g.NumIDs(),
		Keys:    g.CopyAlive,
		// Mutating churn never happens mid-round, so the records a block
		// is about to draw its neighbours from can be fetched ahead.
		Warm: func(keys []graph.NodeID) uint64 { return uint64(g.DegreeSum(keys)) },
		Visit: func(sh *parallel.Shard[pair], u graph.NodeID, rng *xrand.Rand) error {
			v, ok := g.RandomNeighbor(u, rng)
			if !ok {
				return nil
			}
			var fate uint8
			if dropP > 0 {
				fate = drawFate(rng, dropP)
			}
			// Asymmetric (NAT-limited) connectivity folds into the push
			// fate: a push to a fated target is sent — and metered — but
			// lost at the NAT, so the exchange never happens (the pull
			// direction is exempt: it answers a contact the initiator
			// opened, riding the established path). Pure salted-hash
			// consultation: no draws, so benign and NAT-free streams are
			// untouched.
			if p.pol != nil && p.pol.Unreachable(v) {
				fate |= fatePushLost
			}
			sh.Meters[0]++ // push sent
			if fate&fatePushLost == 0 {
				sh.Meters[1]++ // pull answered
			}
			if t := sh.Owner(v); t == sh.Index {
				p.exchange(u, v, fate)
			} else {
				sh.Defer(t, pair{u: u, v: v, fate: fate})
			}
			return nil
		},
		Merge: func(sh *parallel.Shard[pair]) {
			net.SendN(metrics.KindPush, sh.Meters[0])
			net.SendN(metrics.KindPull, sh.Meters[1])
		},
		MergeEach: net.PerMessage(),
		Resolve: func(pr pair, _ *xrand.Rand) error {
			p.exchange(pr.u, pr.v, pr.fate)
			return nil
		},
	}
	if err := p.engine.Round(p.rng, p.cfg.engine(), &sw); err != nil {
		panic(fmt.Sprintf("aggregation: round sweep failed: %v", err))
	}
}

// drawFate draws a pair's message fates under drop probability dropP:
// the push and then the pull are each lost with probability dropP.
func drawFate(rng *xrand.Rand, dropP float64) uint8 {
	var fate uint8
	if rng.Bernoulli(dropP) {
		fate |= fatePushLost
	}
	if rng.Bernoulli(dropP) {
		fate |= fatePullLost
	}
	return fate
}

// exchange performs one push-pull averaging between u and v: when either
// endpoint participates in the current epoch the other joins with value
// 0 and the pair averages. Under a fault policy, a lost push aborts the
// exchange, a lost pull leaves u with its old value after v already
// averaged (breaking mass conservation), and a lying endpoint's value is
// scaled as seen by its peer while its own copy stays honest.
func (p *Protocol) exchange(u, v graph.NodeID, fate uint8) {
	if fate&fatePushLost != 0 {
		return
	}
	if !p.participant(u) && !p.participant(v) {
		return
	}
	p.join(u)
	p.join(v)
	vu, vv := p.values[u], p.values[v]
	if p.pol == nil {
		avg := (vu + vv) / 2
		p.values[u] = avg
		p.values[v] = avg
		return
	}
	p.values[v] = (p.pol.ReportScale(u)*vu + vv) / 2
	if fate&fatePullLost == 0 {
		p.values[u] = (vu + p.pol.ReportScale(v)*vv) / 2
	}
}

// EstimateAt returns the size estimate 1/value held at the given node,
// and false when the node holds no usable value (not a participant, dead,
// or value zero). One of the paper's observations is that, after
// convergence, this is available at *every* node, with no result
// broadcast needed.
func (p *Protocol) EstimateAt(net *overlay.Network, id graph.NodeID) (float64, bool) {
	if !net.Alive(id) || !p.participant(id) {
		return 0, false
	}
	v := p.values[id]
	if v <= 0 {
		return 0, false
	}
	return 1 / v, true
}

// Estimate returns the current estimate at the initiator.
func (p *Protocol) Estimate(net *overlay.Network) (float64, bool) {
	if p.initiator == graph.None {
		return 0, false
	}
	return p.EstimateAt(net, p.initiator)
}

// Estimator adapts Protocol to the one-shot core.Estimator contract: each
// Estimate call runs a full epoch (StartEpoch + RoundsPerEpoch rounds)
// and reads the initiator's value.
type Estimator struct {
	p *Protocol
}

// NewEstimator builds the one-shot adapter.
func NewEstimator(cfg Config, rng *xrand.Rand) *Estimator {
	return &Estimator{p: New(cfg, rng)}
}

// Name identifies the estimator in reports.
func (e *Estimator) Name() string { return e.p.Name() }

// MutatesOverlay reports true (core.OverlayMutator): the epidemic class
// is cyclon-backed in deployment, where every exchange rewires views —
// the monitor must give it a private overlay clone even though the
// simulated rounds here leave the graph untouched.
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
		return 0, errors.New("aggregation: initiator lost during epoch")
	}
	return est, nil
}
