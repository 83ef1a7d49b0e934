// Package cyclon implements the CYCLON membership-management protocol
// (Voulgaris, Gavidia & van Steen — reference [19] of the comparative
// study), the gossip-based peer-sampling service the paper points at for
// actually building and maintaining its random overlays ("We do not
// consider in this paper the actual construction of such graphs but
// several approaches exist to build such peer to peer overlay in
// practice [10]").
//
// Every node keeps a small partial view of (neighbor, age) entries. Each
// round ("enhanced shuffling"), a node increments its entries' ages,
// picks its OLDEST neighbor q, sends it a random subset of its view with
// a fresh self-pointer, and q answers with a random subset of its own
// view; both sides merge what they received, preferring fresh entries
// and discarding self-pointers and duplicates. Shuffling keeps the
// overlay connected, in-degree balanced, and — crucially for churn —
// flushes dead peers out of views because their entries age until they
// are chosen for a shuffle, fail, and are dropped.
//
// Views are stored in a dense slice indexed by node ID, which lets one
// round's shuffles run on the shared sharded-round engine
// (parallel.RoundEngine) exactly like the Aggregation sweep: the
// initiator order is cut into segments with per-shard xrand streams,
// shuffles whose target lies in another shard are deferred to the
// engine's tournament fix-up pass, and the resulting views are
// byte-identical at every Config.Workers setting.
//
// The package maintains its own directed views and can export the
// induced undirected graph as an overlay for the size estimators,
// closing the loop: estimators running on a CYCLON-maintained overlay
// keep working through churn that would fragment the paper's
// no-repair graphs (see the extension experiment and its benchmark).
package cyclon

import (
	"fmt"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/xrand"
)

const (
	// viewSize is the partial-view capacity c. The CYCLON paper uses
	// 20-50 for large networks; the comparative study's overlays
	// average ~7 links, so this repo uses 8.
	viewSize = 8
	// shuffleLen is how many entries travel per shuffle (at most
	// viewSize): half a view, this repo's choice.
	shuffleLen = 4
)

// Config parameterizes the protocol's sharded rounds.
type Config struct {
	// Shards splits each round's shuffled initiator order into this many
	// segments on per-round xrand streams; cross-shard shuffles are
	// deferred to an ordered fix-up pass. Like the Aggregation sweep,
	// the shard count is part of the algorithm while Workers only shapes
	// scheduling. 0 picks one shard per parallel.MinShardNodes peers (at
	// most parallel.MaxShards).
	Shards int
	// Workers caps the goroutines executing the shards of one round:
	// 0 means runtime.NumCPU(), 1 forces sequential execution. Workers
	// only changes wall time, never output.
	Workers int
}

// engine projects the sharded-round knobs onto the engine's config.
func (c Config) engine() parallel.EngineConfig {
	return parallel.EngineConfig{Shards: c.Shards, Workers: c.Workers}
}

// Default returns auto-sized shards on all CPUs.
func Default() Config { return Config{} }

func (c *Config) validate() error {
	if err := c.engine().Validate(); err != nil {
		return fmt.Errorf("cyclon: %w", err)
	}
	return nil
}

type entry struct {
	node graph.NodeID
	age  int32
}

// Protocol is a running CYCLON instance over a set of peers. Views live
// in dense slices indexed by node ID so concurrent shards can write
// distinct peers' views without sharing map internals.
type Protocol struct {
	cfg     Config
	rng     *xrand.Rand
	views   [][]entry // indexed by node ID; meaningful iff member[id]
	member  []bool
	count   int
	counter *metrics.Counter

	engine parallel.RoundEngine[deferred] // owns all sharded-sweep scratch
	sweep  parallel.Sweep[deferred]       // bound once by New; RunRound re-sets its size
	bufs   []shuffleBuf                   // scratch: one per shard, for its exchanges
}

// shuffleBuf is one shard's scratch for the exchanges it runs, in its
// sweep and in the tournament meetings it hosts: the index permutation
// a side draws its subset from, and the two subsets.
type shuffleBuf struct {
	idx       []int
	out, back []entry
}

// perm returns a uniformly random permutation of [0, n) in b's index
// buffer: an identity prefix shuffled in place, which draws exactly what
// rng.Perm(n) draws.
func (b *shuffleBuf) perm(rng *xrand.Rand, n int) []int {
	b.idx = b.idx[:0]
	for i := range n {
		b.idx = append(b.idx, i)
	}
	xrand.Shuffle(rng, b.idx)
	return b.idx
}

// deferred is one cross-shard shuffle: id initiated, q is its (live)
// oldest neighbor, owned by another shard.
type deferred struct {
	id, q graph.NodeID
}

// New builds a protocol instance; counter may be nil.
func New(cfg Config, rng *xrand.Rand, counter *metrics.Counter) *Protocol {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		panic("cyclon: nil rng")
	}
	if counter == nil {
		counter = &metrics.Counter{}
	}
	p := &Protocol{cfg: cfg, rng: rng, counter: counter}
	p.sweep = p.bind()
	return p
}

// Counter returns the message meter (shuffle request/reply pairs).
func (p *Protocol) Counter() *metrics.Counter { return p.counter }

// Size returns the number of participating peers.
func (p *Protocol) Size() int { return p.count }

// grow extends the dense view storage to cover ids [0, n).
func (p *Protocol) grow(n int) {
	if k := n - len(p.views); k > 0 {
		p.views = append(p.views, make([][]entry, k)...)
		p.member = append(p.member, make([]bool, k)...)
	}
}

// appendMemberIDs appends the participating peer ids in ascending order
// — the deterministic base order every round and join shuffles from.
func (p *Protocol) appendMemberIDs(dst []graph.NodeID) []graph.NodeID {
	for id, in := range p.member {
		if in {
			dst = append(dst, graph.NodeID(id))
		}
	}
	return dst
}

// Bootstrap populates views from an existing overlay graph: each node's
// initial view is a random subset of its graph neighbors (capped at
// viewSize), age zero.
func (p *Protocol) Bootstrap(g *graph.Graph) {
	p.grow(g.NumIDs())
	g.ForEachAlive(func(id graph.NodeID) {
		nbrs := g.Neighbors(id)
		view := make([]entry, 0, viewSize)
		order := p.rng.Perm(len(nbrs))
		for _, i := range order {
			if len(view) == viewSize {
				break
			}
			view = append(view, entry{node: nbrs[i]})
		}
		if !p.member[id] {
			p.member[id] = true
			p.count++
		}
		p.views[id] = view
	})
}

// Leave removes a peer silently — exactly how real churn behaves; other
// views still hold stale pointers that shuffling will discover and drop.
func (p *Protocol) Leave(id graph.NodeID) {
	if !p.Alive(id) {
		panic(fmt.Sprintf("cyclon: node %d does not participate", id))
	}
	p.member[id] = false
	p.views[id] = nil
	p.count--
}

// Alive reports whether the peer participates.
func (p *Protocol) Alive(id graph.NodeID) bool {
	return id >= 0 && int(id) < len(p.member) && p.member[id]
}

// RunRound performs one shuffle per participating peer, in random order.
// Each successful shuffle costs one request and one reply message; a
// shuffle aimed at a dead peer costs the request only and evicts the
// stale entry.
//
// The round runs on the shared sharded-round engine, like
// aggregation.RunRound: the initiator order is cut into Config.Shards
// segments, each running on its own per-round xrand stream. A shard
// whose initiator targets a peer of the same shard completes the
// exchange immediately (both views are shard-owned); targets in other
// shards are deferred — the age bump and target eviction still happen
// in phase 1, on the initiator's own view. Deferred shuffles complete
// in the engine's fixed round-robin tournament of shard pairs, each
// meeting drawing from its own pair stream. Views are byte-identical
// at every Config.Workers setting.
func (p *Protocol) RunRound() {
	n := p.count
	if n == 0 {
		return
	}
	if s := parallel.Shards(p.cfg.Shards, n); len(p.bufs) < s {
		p.bufs = append(p.bufs, make([]shuffleBuf, s-len(p.bufs))...)
	}
	p.sweep.N, p.sweep.NumKeys = n, len(p.views)
	if err := p.engine.Round(p.rng, p.cfg.engine(), &p.sweep); err != nil {
		panic(fmt.Sprintf("cyclon: round sweep failed: %v", err))
	}
}

// bind returns the engine callbacks every round runs (RunRound); the
// round sets only their size.
func (p *Protocol) bind() parallel.Sweep[deferred] {
	return parallel.Sweep[deferred]{
		// The engine shuffles the member ids from this fixed ascending
		// base order, straight in its own scratch (dst holds exactly
		// p.count ids). Membership is frozen mid-round, so Alive reads
		// race with nothing.
		Keys: func(dst []graph.NodeID) { p.appendMemberIDs(dst[:0]) },
		Visit: func(sh *parallel.Shard[deferred], id graph.NodeID, rng *xrand.Rand) error {
			q, ok := p.beginShuffle(id)
			if !ok {
				return nil
			}
			sh.Meters[0]++ // shuffle request
			if !p.Alive(q) {
				// Dead neighbor discovered: the request times out and the
				// stale entry stays dropped — CYCLON's churn flushing.
				return nil
			}
			if t := sh.Owner(q); t == sh.Index {
				sh.Meters[0]++ // shuffle reply
				p.completeShuffle(id, q, rng, &p.bufs[sh.Index])
			} else {
				sh.Defer(t, deferred{id: id, q: q})
			}
			return nil
		},
		// Every deferred shuffle has a live target, so its reply is
		// countable at merge time rather than inside the (concurrent)
		// tournament meetings.
		Merge: func(sh *parallel.Shard[deferred]) {
			p.counter.Add(metrics.KindControl, sh.Meters[0]+uint64(sh.DeferredTotal()))
		},
		Resolve: func(host int, d deferred, rng *xrand.Rand) error {
			p.completeShuffle(d.id, d.q, rng, &p.bufs[host])
			return nil
		},
	}
}

// beginShuffle runs the initiator-local half of a shuffle on id's own
// view: ages increase, the oldest neighbor q is picked and evicted. It
// reports false for an empty view.
func (p *Protocol) beginShuffle(id graph.NodeID) (graph.NodeID, bool) {
	view := p.views[id]
	if len(view) == 0 {
		return graph.None, false
	}
	oldest := 0
	for i := range view {
		view[i].age++
		if view[i].age > view[oldest].age {
			oldest = i
		}
	}
	q := view[oldest].node
	// Remove q from the view (it is being contacted).
	view[oldest] = view[len(view)-1]
	p.views[id] = view[:len(view)-1]
	return q, true
}

// completeShuffle runs the exchange between initiator id and its live
// target q on the scratch b of the shard running it: both draw their
// outgoing subsets from rng and merge what they received.
func (p *Protocol) completeShuffle(id, q graph.NodeID, rng *xrand.Rand, b *shuffleBuf) {
	view := p.views[id]
	// Build the outgoing subset: fresh self-pointer + up to
	// shuffleLen-1 random entries from the (q-less) view.
	out := append(b.out[:0], entry{node: id, age: 0})
	for _, i := range b.perm(rng, len(view)) {
		if len(out) == shuffleLen {
			break
		}
		out = append(out, view[i])
	}
	// q answers with a random subset of its own view.
	qView := p.views[q]
	back := b.back[:0]
	for _, i := range b.perm(rng, len(qView)) {
		if len(back) == shuffleLen {
			break
		}
		back = append(back, qView[i])
	}
	// Both merge what they received; merge copies entries, so the
	// subsets stay the shard's to reuse.
	p.views[q] = p.merge(q, qView, out, back)
	p.views[id] = p.merge(id, p.views[id], back, out)
	b.out, b.back = out, back
}

// merge folds received entries into view for owner: self-pointers and
// duplicates are dropped; if the view overflows, entries that were sent
// away (sent) are evicted first, then the oldest.
//
// Membership is checked by scanning the view directly: views hold at
// most viewSize (8) entries, where a linear pass over the live slice
// beats building a map — the map was one allocation per exchange, the
// dominant allocation of a shuffle round, and scanning the mutating
// view needs no bookkeeping to stay exact.
func (p *Protocol) merge(owner graph.NodeID, view, received, sent []entry) []entry {
	for _, e := range received {
		if e.node == owner || containsNode(view, e.node) {
			continue
		}
		if len(view) < viewSize {
			view = append(view, e)
			continue
		}
		// Overflow: replace an entry that was shipped out, else the
		// oldest entry.
		victim := -1
		for i := range view {
			for _, s := range sent {
				if view[i].node == s.node {
					victim = i
					break
				}
			}
			if victim >= 0 {
				break
			}
		}
		if victim < 0 {
			victim = 0
			for i := range view {
				if view[i].age > view[victim].age {
					victim = i
				}
			}
		}
		view[victim] = e
	}
	return view
}

// containsNode reports whether the view holds an entry for n.
func containsNode(view []entry, n graph.NodeID) bool {
	for _, e := range view {
		if e.node == n {
			return true
		}
	}
	return false
}

// ExportGraph materializes the undirected overlay induced by the current
// views (an edge per view entry pointing at a live peer) as a
// graph.Graph, preserving node IDs up to maxID. Estimators can run on
// the result exactly as on the paper's static graphs.
func (p *Protocol) ExportGraph(maxID int) *graph.Graph {
	g := graph.NewWithNodes(maxID)
	for id := maxID; id < len(p.member); id++ {
		if p.member[id] {
			panic(fmt.Sprintf("cyclon: node %d beyond maxID %d", id, maxID))
		}
	}
	for id := graph.NodeID(0); int(id) < maxID; id++ {
		if !p.Alive(id) {
			g.RemoveNode(id)
		}
	}
	// Size each list that will leave its record once. A pair in each
	// other's views is one edge, counted at its lower id's view.
	deg := make([]int32, maxID)
	for id := graph.NodeID(0); int(id) < maxID && int(id) < len(p.views); id++ {
		if !p.member[id] {
			continue
		}
		for _, e := range p.views[id] {
			if p.Alive(e.node) && (e.node > id || !containsNode(p.views[e.node], id)) {
				deg[id]++
				deg[e.node]++
			}
		}
	}
	g.ReserveDegrees(deg)
	// Add edges in id order: adjacency order decides every later
	// RandomNeighbor draw, so identically seeded runs must export
	// identical orders.
	for id := graph.NodeID(0); int(id) < maxID && int(id) < len(p.views); id++ {
		if !p.member[id] {
			continue
		}
		for _, e := range p.views[id] {
			if p.Alive(e.node) {
				g.AddEdge(id, e.node)
			}
		}
	}
	return g
}

// ExportOverlay wraps ExportGraph into an overlay.Network sharing the
// protocol's message counter, so estimation overhead and maintenance
// overhead land in one budget.
func (p *Protocol) ExportOverlay(maxID, maxDeg int) *overlay.Network {
	return overlay.New(p.ExportGraph(maxID), maxDeg, p.counter)
}

// StaleFraction returns the fraction of view entries pointing at dead
// peers — the health metric shuffling drives toward zero after churn.
func (p *Protocol) StaleFraction() float64 {
	total, stale := 0, 0
	for id, view := range p.views {
		if !p.member[id] {
			continue
		}
		for _, e := range view {
			total++
			if !p.Alive(e.node) {
				stale++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(stale) / float64(total)
}
