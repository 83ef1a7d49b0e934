// Package epidemic is the one epoch driver under the epidemic-class size
// estimators (§III-C of the comparative study), Aggregation's push-pull
// averaging and push-sum. A family supplies its per-node state, a
// round's engine callbacks and EstimateAt; the driver owns the config,
// the one state vector, initiator, round prelude and one-shot adapter.
//
// Membership of the current epoch lives in the state itself: a node
// outside the epoch holds the family's Absent state, one a member never
// holds (a -0 in a field a member keeps at +0 or above), and StartEpoch
// resets every node to it. A join is then plain arithmetic — x + (-0)
// is x for every x — so a visit reads no line beside the state it
// updates.
//
// Every round sweeps the live nodes on the shared sharded-round engine
// (parallel.RoundEngine): the sweep order is cut into Config.Shards
// segments, each sweeping its nodes with its own per-round xrand
// stream. A shard applies a visit immediately when the drawn neighbor
// lies in its own segment — then every state it touches is owned by
// that shard alone — and defers it otherwise. Deferred payloads (the
// majority: a uniform neighbor lands outside its initiator's shard with
// probability (S-1)/S) are applied in the engine's fixed round-robin
// tournament of shard pairs, so the result depends only on (seed,
// config, overlay), never on Config.Workers or scheduling.
package epidemic

import (
	"fmt"
	"math"

	"p2psize/internal/graph"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/scratch"
	"p2psize/internal/xrand"
)

// Config parameterizes an epidemic family.
type Config struct {
	// RoundsPerEpoch is how many rounds each counting epoch runs before
	// the estimate is read and the process restarts. The comparative
	// study uses 50 for Aggregation ("in order not to make any hypothesis
	// on the targeted system size ... this value represents the best
	// possible algorithm's reactivity for an accurate estimation");
	// push-sum's default matches it so the two families are compared at
	// equal reactivity.
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
}

// DefaultRounds is the paper's epoch length: 50 rounds per estimation
// in the dynamic setting.
const DefaultRounds = 50

// Default returns the paper's dynamic-setting configuration.
func Default() Config { return Config{RoundsPerEpoch: DefaultRounds} }

// engine projects the sharded-round knobs onto the engine's config.
func (c Config) engine() parallel.EngineConfig {
	return parallel.EngineConfig{Shards: c.Shards, Workers: c.Workers}
}

// Family names a family to the driver: its package (the prefix of its
// errors), report name, sentinel errors, the initiator's start state,
// the state of a node outside the current epoch, and the test that
// tells a member's state from Absent.
type Family[S any] struct {
	Pkg, Name                   string
	ErrNoEpoch, ErrEmptyOverlay error
	Start, Absent               S
	In                          func(S) bool
}

// IsNegZero reports whether x is -0.0 (math.Copysign(0, -1)), the value
// that marks a family's state Absent, bit for bit (+0 is not).
func IsNegZero(x float64) bool { return math.Float64bits(x) == 1<<63 }

// Round is what a round's callbacks read of the round they run in: the
// overlay, its graph, and the fault policy with its drop probability
// (0 without one). RunRound sets it before the engine's round and
// clears it after, so a family binds its callbacks once, to a *Round,
// and they never read a graph or a policy of an earlier round.
type Round struct {
	Net   *overlay.Network
	G     *graph.Graph
	Pol   overlay.FaultPolicy
	DropP float64
}

// Epoch is a running instance of a family, generic over the per-node
// state S and the engine's deferred payload D; a family's Protocol
// embeds it. Several instances can share an overlay; each owns its state.
type Epoch[S, D any] struct {
	// State is indexed by node ID. A node outside the current epoch
	// holds the family's Absent state, which the family's visit turns
	// into its join state on first contact.
	State []S
	// Tag counts the epochs started; 0 means RunRound has none to run.
	Tag uint32
	// Initiator started the current epoch (graph.None before the first).
	Initiator graph.NodeID

	fam        *Family[S]
	cfg        Config
	rng        *xrand.Rand
	round      Round             // the running round's inputs, zero between rounds
	sweep      parallel.Sweep[D] // bound once by Init; RunRound re-sets its size and MergeEach
	estimateAt func(*overlay.Network, graph.NodeID) (float64, bool)
	engine     parallel.RoundEngine[D] // owns all sharded-sweep scratch
}

// Init readies the epoch of a new instance of fam; it panics on invalid
// configuration. bind returns the engine callbacks every round runs
// (see RunRound), reading the round's inputs from the *Round it is
// given; Init calls it once, so a warm round makes no closure. A node
// reads its estimate with estimateAt. A family marks bind go:noinline:
// inlined into its method value's wrapper, its closures lose their own
// inlining, and every visit pays for the calls. An Epoch must not be
// copied after Init: its callbacks hold its address.
func (e *Epoch[S, D]) Init(fam *Family[S], cfg Config, rng *xrand.Rand, bind func(r *Round) parallel.Sweep[D],
	estimateAt func(*overlay.Network, graph.NodeID) (float64, bool)) {
	if cfg.RoundsPerEpoch < 1 {
		panic(fmt.Errorf("%s: RoundsPerEpoch must be >= 1", fam.Pkg))
	}
	if err := cfg.engine().Validate(); err != nil {
		panic(fmt.Errorf("%s: %w", fam.Pkg, err))
	}
	if rng == nil {
		panic(fam.Pkg + ": nil rng")
	}
	e.fam, e.cfg, e.rng, e.estimateAt, e.Initiator = fam, cfg, rng, estimateAt, graph.None
	e.sweep = bind(&e.round)
	e.sweep.Keys = func(dst []int32) { e.round.G.CopyAlive(dst) }
}

// StartEpoch begins a new counting process: every node's state is reset
// to Absent and the initiator (kept from the previous epoch when still
// alive, otherwise re-drawn uniformly) takes the family's start state;
// everyone else joins on first contact.
func (e *Epoch[S, D]) StartEpoch(net *overlay.Network) error {
	if e.Initiator == graph.None || !net.Alive(e.Initiator) {
		id, ok := net.RandomPeer(e.rng)
		if !ok {
			return e.fam.ErrEmptyOverlay
		}
		e.Initiator = id
	}
	e.grow(net.Graph().NumIDs(), net.Graph().IDCeiling())
	e.Tag++
	fill(e.State, e.fam.Absent)
	e.State[e.Initiator] = e.fam.Start
	return nil
}

// grow extends the state vector to numIDs in one step (an append per
// node walks the 1.25x regrowth chain and allocates five times the
// final size on a million-node overlay). A vector that must grow while
// the graph's IDCeiling, ceil, lies beyond numIDs — its writer reserved
// the ids it will add — is made once, at ceil; otherwise append picks
// its capacity. New IDs start Absent.
func (e *Epoch[S, D]) grow(numIDs, ceil int) {
	if k := numIDs - len(e.State); k > 0 {
		if cap(e.State) < numIDs && ceil > numIDs {
			e.State = append(make([]S, 0, ceil), e.State...)
		}
		e.State = append(e.State, make([]S, k)...)
		fill(e.State[numIDs-k:], e.fam.Absent)
	}
}

// fill sets every element of s to x.
func fill[S any](s []S, x S) {
	for i := range s {
		s[i] = x
	}
}

// Participant reports whether id has joined the current epoch.
func (e *Epoch[S, D]) Participant(id graph.NodeID) bool {
	return int(id) < len(e.State) && e.Tag != 0 && e.fam.In(e.State[id])
}

// RunRound executes one round of the family's protocol over the live
// nodes, with the callbacks Init bound reading the round's overlay,
// graph, fault policy and drop probability. It returns the family's
// ErrNoEpoch if called before StartEpoch. Mutating churn never happens
// mid-round, so a Hint callback may fetch ahead the record a visit
// draws its neighbour from.
func (e *Epoch[S, D]) RunRound(net *overlay.Network) error {
	if e.Tag == 0 {
		return e.fam.ErrNoEpoch
	}
	g := net.Graph()
	e.grow(g.NumIDs(), g.IDCeiling())
	n := g.NumAlive()
	if n == 0 {
		return nil
	}
	// Fate draws happen only under a positive drop probability, so the
	// benign draw sequence is untouched by the fault layer's existence.
	e.round = Round{Net: net, G: g, Pol: net.FaultPolicy()}
	if e.round.Pol != nil {
		e.round.DropP = e.round.Pol.DropProb()
	}
	e.sweep.N, e.sweep.NumKeys, e.sweep.MergeEach = n, g.NumIDs(), net.PerMessage()
	err := e.engine.Round(e.rng, e.cfg.engine(), &e.sweep)
	e.round = Round{}
	if err != nil {
		return fmt.Errorf("%s: round sweep failed: %w", e.fam.Pkg, err)
	}
	return nil
}

// Estimate returns the current estimate at the initiator.
func (e *Epoch[S, D]) Estimate(net *overlay.Network) (float64, bool) {
	if e.Initiator == graph.None {
		return 0, false
	}
	return e.estimateAt(net, e.Initiator)
}

// Estimator adapts an Epoch to the one-shot core.Estimator contract:
// each Estimate call runs a full epoch (StartEpoch + RoundsPerEpoch
// rounds) and reads the initiator's estimate. The epoch's state vector
// and round engine are borrowed from the family's free list for the
// length of one Estimate, and handed back for the next one.
type Estimator[S, D any] struct {
	e    *Epoch[S, D]
	idle *scratch.List[Buffers[S, D]]
}

// Buffers is what a one-shot epoch borrows: the state vector and the
// round engine with its scratch.
type Buffers[S, D any] struct {
	state  []S
	engine parallel.RoundEngine[D]
}

// NewIdle returns the free list a family's epochs share.
func NewIdle[S, D any]() *scratch.List[Buffers[S, D]] {
	return scratch.NewList(func(b Buffers[S, D]) int { return cap(b.state) })
}

// NewEstimator builds the one-shot adapter around a family's epoch,
// borrowing from the family's free list idle.
func NewEstimator[S, D any](e *Epoch[S, D], idle *scratch.List[Buffers[S, D]]) *Estimator[S, D] {
	return &Estimator[S, D]{e: e, idle: idle}
}

// BorrowFrom gives the epoch the buffers a finished epoch handed back
// to idle, for an overlay whose IDCeiling is ceil (none when the list
// is empty). The state vector starts empty: StartEpoch grows it to the
// overlay's ids and fills it with Absent, as it does a fresh one. A
// family lends through it, for a one-shot Estimate or for the whole run
// of a Protocol that its caller steps.
func (e *Epoch[S, D]) BorrowFrom(idle *scratch.List[Buffers[S, D]], ceil int) {
	b, _ := idle.Get(ceil)
	e.State, e.engine = b.state[:0], b.engine
}

// ReleaseTo hands the epoch's buffers back to idle. The epoch then
// holds none: a later StartEpoch makes fresh ones unless it borrows
// again first.
func (e *Epoch[S, D]) ReleaseTo(idle *scratch.List[Buffers[S, D]]) {
	idle.Put(Buffers[S, D]{state: e.State, engine: e.engine})
	e.State, e.engine = nil, parallel.RoundEngine[D]{}
}

// Name identifies the estimator in reports.
func (o *Estimator[S, D]) Name() string {
	return fmt.Sprintf("%s(rounds=%d)", o.e.fam.Name, o.e.cfg.RoundsPerEpoch)
}

// MutatesOverlay reports true (core.OverlayMutator): the epidemic class
// is cyclon-backed in deployment, where every exchange rewires views.
// The simulated rounds here only read the overlay; the declaration
// feeds nothing but the monitor's replay-group count.
func (o *Estimator[S, D]) MutatesOverlay() bool { return true }

// Estimate runs one full epoch and returns the initiator's estimate. An
// initiator lost during the epoch is an error, and so is a ratio that is
// not a finite positive size: a liar's overflowing report drives
// Aggregation's value to +Inf (a ratio of 0) and push-sum's sum to +Inf.
func (o *Estimator[S, D]) Estimate(net *overlay.Network) (float64, error) {
	o.e.BorrowFrom(o.idle, net.Graph().IDCeiling())
	defer o.e.ReleaseTo(o.idle)
	if err := o.e.StartEpoch(net); err != nil {
		return 0, err
	}
	for r := 0; r < o.e.cfg.RoundsPerEpoch; r++ {
		if err := o.e.RunRound(net); err != nil {
			return 0, err
		}
	}
	est, ok := o.e.Estimate(net)
	if !ok {
		return 0, fmt.Errorf("%s: initiator lost during epoch", o.e.fam.Pkg)
	}
	if !(est > 0) || math.IsInf(est, 1) {
		return 0, fmt.Errorf("%s: initiator's estimate %v is not a finite positive size", o.e.fam.Pkg, est)
	}
	return est, nil
}
