// Package dhtext implements a DHT routing-table size extrapolator: the
// estimator class deployed DHT crawlers and the IPFS network-size
// monitors use (the liveness study of arXiv:2205.14927 that calibrates
// the trace-ipfs workload measures exactly such a network). Every peer
// owns a uniform 64-bit identifier; a lookup toward a random target
// returns the k peers whose identifiers are XOR-closest to it (a
// Kademlia k-closest set), and the identifier density of that set
// extrapolates the population size.
//
// With N uniform identifiers, the XOR distances from a random target
// are N iid uniforms on [0, 2^64), so the k-th smallest distance d(k)
// is a uniform order statistic with E[2^64/d(k)] = N/(k−1); the
// per-probe estimate
//
//	N̂ = (k−1)·2^64 / d(k)
//
// is therefore exactly unbiased, with relative error ~1/√(k−2).
// Averaging Probes independent lookups tightens it to
// ~1/√(Probes·(k−2)). Each probe routes iteratively like a real
// Kademlia lookup: starting from a peer derived from the target, every
// hop halves the XOR distance to the target and sends one routed
// message, until the distance enters the closest set; then the k
// closest-set replies come back. Per-hop metering (rather than a flat
// ⌈log₂N⌉ price) routes each hop through the overlay's fault policy, so
// the structured class pays drops and delays the same way the walkers
// do.
//
// Unlike the idspace baseline — whose precomputed ring is a membership
// snapshot and therefore unsound under churn — the identifiers here are
// derived by hashing the (stable) node ID under a per-instance salt, so
// joins and leaves need no maintenance and the family stays sound on a
// churning overlay: it monitors, and pairs naturally with trace-ipfs.
//
// The family is deliberately oblivious to the nat= asymmetric-
// connectivity fault: a peer's DHT records outlive its reachability, so
// identifier-density estimates keep counting NAT-limited peers — the
// record/liveness asymmetry the IPFS measurement study documents. The
// robustness-nat scenario ranks it against the families whose probes
// the NAT actually stops.
package dhtext

import (
	"errors"
	"fmt"
	"math"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// Config parameterizes the DHT extrapolator.
type Config struct {
	// K is the closest-set size a lookup returns (Kademlia's bucket
	// width; >= 2 so the order-statistic estimator is defined).
	K int
	// Probes is the number of independent lookups averaged per
	// estimation.
	Probes int
}

// Default returns the Kademlia-flavored configuration: k = 20 closest
// peers per lookup, 16 lookups per estimate (~6% relative error).
func Default() Config { return Config{K: 20, Probes: 16} }

func (c *Config) validate() error {
	if c.K < 2 {
		return errors.New("dhtext: K must be >= 2")
	}
	if c.Probes < 1 {
		return errors.New("dhtext: Probes must be >= 1")
	}
	return nil
}

// Estimator runs k-closest density estimations on an overlay. It
// satisfies the core.Estimator contract.
type Estimator struct {
	cfg  Config
	rng  *xrand.Rand
	salt uint64 // per-instance identifier-space salt

	// Per-estimate scratch: the probes' targets, and for probe p a
	// max-heap of the k smallest distances at heaps[p*k:(p+1)*k].
	targets []uint64
	heaps   []uint64
}

// New builds an Estimator; it panics on invalid configuration. The
// identifier space is salted from the instance rng, so equal seeds give
// equal identifier assignments and byte-identical estimates.
func New(cfg Config, rng *xrand.Rand) *Estimator {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		panic("dhtext: nil rng")
	}
	return &Estimator{cfg: cfg, rng: rng, salt: rng.Uint64()}
}

// Name identifies the estimator in reports.
func (e *Estimator) Name() string {
	return fmt.Sprintf("dht-density(k=%d,probes=%d)", e.cfg.K, e.cfg.Probes)
}

// MutatesOverlay reports false: density probes only route and measure
// (core.OverlayMutator), so the monitor may run them on a shared clone.
func (e *Estimator) MutatesOverlay() bool { return false }

// ErrEmptyOverlay is returned when no live peer can be looked up.
var ErrEmptyOverlay = errors.New("dhtext: empty overlay")

// id64 returns the node's DHT identifier: the SplitMix64 finalizer over
// the salted node ID, uniform on the 64-bit space and stable for the
// node's lifetime (dense graph IDs are never reused).
func (e *Estimator) id64(id graph.NodeID) uint64 {
	x := e.salt ^ (uint64(uint32(id)) + 0x9e3779b97f4a7c15)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Estimate averages Probes lookups toward fresh random targets and
// returns the extrapolated size. Lookup routing hops and closest-set
// replies are metered on the network's counter.
func (e *Estimator) Estimate(net *overlay.Network) (float64, error) {
	g := net.Graph()
	n := g.NumAlive()
	if n == 0 {
		return 0, ErrEmptyOverlay
	}
	k := e.cfg.K
	if k > n {
		k = n
	}
	if k < 2 {
		// One- or two-peer overlays leave no order statistic to
		// extrapolate from; the lookup trivially enumerates the
		// network instead.
		net.Send(metrics.KindWalk)
		return float64(n), nil
	}
	// The targets are the only rng draws; each lookup's initiator is
	// derived from its target, not drawn, so routing costs never perturb
	// the estimate stream. Drawing them all first lets one sweep of the
	// alive list serve every probe.
	e.targets = e.targets[:0]
	for p := 0; p < e.cfg.Probes; p++ {
		e.targets = append(e.targets, e.rng.Uint64())
	}
	e.kthClosest(g, k)
	sum := 0.0
	for p, target := range e.targets {
		dk := e.heaps[p*k]
		// Iterative routing: each hop lands on a peer whose XOR distance
		// to the target is half the previous one (Kademlia's per-hop
		// guarantee) and costs one routed message, until the distance
		// enters the closest set. A converged DHT thus routes at most
		// ~log₂N hops; here the count follows the actual distances.
		d := e.id64(start(g, target, n)) ^ target
		hops := 0
		for d > dk && hops < 64 {
			net.Send(metrics.KindWalk)
			d >>= 1
			hops++
		}
		if hops == 0 {
			// The initiator already held the closest set: still one
			// lookup message to fetch it.
			net.Send(metrics.KindWalk)
		}
		net.SendN(metrics.KindReply, uint64(k))
		// d(k) > 0: identifiers are distinct (64-bit hash collisions
		// aside) and a zero distance would need id == target exactly.
		sum += float64(k-1) * math.Ldexp(1, 64) / float64(dk)
	}
	return sum / float64(e.cfg.Probes), nil
}

// start picks the lookup initiator for a probe: a peer indexed by the
// target itself, so the choice is deterministic given (overlay, target).
func start(g *graph.Graph, target uint64, n int) graph.NodeID {
	return g.AliveAt(int(target % uint64(n)))
}

// kthClosest leaves, for every target in e.targets, a size-k max-heap
// of the k smallest XOR distances from it to any alive identifier at
// e.heaps[p*k:(p+1)*k], whose root is the k-th smallest. One
// deterministic sweep of the alive list hashes each identifier once and
// offers it to every probe's heap. The caller guarantees k <= NumAlive.
func (e *Estimator) kthClosest(g *graph.Graph, k int) {
	probes := len(e.targets)
	if cap(e.heaps) < probes*k {
		e.heaps = make([]uint64, probes*k)
	}
	heaps := e.heaps[:probes*k]
	// The first k identifiers fill every heap; every later one replaces
	// a root it undercuts.
	for i := 0; i < k; i++ {
		x := e.id64(g.AliveAt(i))
		for p, target := range e.targets {
			h := heaps[p*k : p*k+i+1]
			h[i] = x ^ target
			siftUp(h, i)
		}
	}
	for i, n := k, g.NumAlive(); i < n; i++ {
		x := e.id64(g.AliveAt(i))
		for p, target := range e.targets {
			if d := x ^ target; d < heaps[p*k] {
				h := heaps[p*k : (p+1)*k]
				h[0] = d
				siftDown(h, 0)
			}
		}
	}
}

func siftUp(h []uint64, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] >= h[i] {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func siftDown(h []uint64, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(h) && h[l] > h[largest] {
			largest = l
		}
		if r < len(h) && h[r] > h[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}
