// Package p2psize estimates the size of large, dynamic peer-to-peer
// overlay networks with fully decentralized algorithms, reproducing the
// comparative study of Le Merrer, Kermarrec & Massoulié (HPDC 2006),
// "Peer to peer size estimation in large and dynamic networks".
//
// The paper's three candidate algorithms, one per family of generic
// (topology-agnostic) counting approaches, sit in an estimator registry:
//
//   - "samplecollide" (random-walk class): uniform sampling by
//     continuous-time random walk plus the inverted birthday paradox.
//   - "hopssampling" (probabilistic-polling class): gossip a poll, count
//     probabilistic replies weighted by hop distance.
//   - "aggregation" (epidemic class): push-pull averaging of a one-hot
//     value; converges to 1/N at every node.
//
// Six more families sit beside them (Random Tour, polling, id-density,
// push-sum, capture-recapture, a DHT extrapolator). Estimators lists the
// catalog, NewEstimatorByName builds any family by name or alias from
// one EstimatorConfig — the only way to build one, so every candidate in
// a comparison is built the same way — and RegisterEstimator adds a
// custom family.
//
// Every family runs on a simulated overlay (Network) built over random
// graphs, driven by a deterministic seed, with every protocol message
// metered so accuracy/overhead trade-offs can be compared — the paper's
// methodology, packaged as a library.
//
// # Quick start
//
//	net, _ := p2psize.NewNetwork(p2psize.NetworkOptions{Nodes: 10000, Seed: 1})
//	est, _ := p2psize.NewEstimatorByName("samplecollide", p2psize.EstimatorConfig{SCL: 200, Seed: 2}, nil)
//	size, _ := est.Estimate(net)
//	fmt.Printf("≈%.0f peers, %d messages\n", size, net.Messages())
//
// The internal packages expose the full simulator (event kernel, churn
// scenarios, experiment harness for every figure and table of the
// paper); this package is the stable surface for downstream users.
package p2psize

import (
	"errors"
	"fmt"
	"io"
	"math"

	"p2psize/internal/core"
	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/stats"
	"p2psize/internal/xrand"
)

// Topology selects the overlay construction.
type Topology int

const (
	// Heterogeneous is the paper's default: every node draws a target
	// degree uniformly in [1, MaxDegree] (§IV-A); with MaxDegree 10 the
	// average degree is ≈7.2.
	Heterogeneous Topology = iota
	// Homogeneous wires every node to exactly MaxDegree neighbors.
	Homogeneous
	// ScaleFree is a Barabási–Albert graph with m = MaxDegree attachments
	// per arriving node (the paper's Fig 7 uses m = 3).
	ScaleFree
	// Ring is a cycle, the degenerate worst case for random-walk mixing.
	Ring
	// SmallWorld is a Watts–Strogatz graph: a ring lattice with MaxDegree
	// neighbors per side and RewireProb rewiring — high clustering with a
	// small diameter.
	SmallWorld
)

// String returns the topology name.
func (t Topology) String() string {
	switch t {
	case Heterogeneous:
		return "heterogeneous"
	case Homogeneous:
		return "homogeneous"
	case ScaleFree:
		return "scale-free"
	case Ring:
		return "ring"
	case SmallWorld:
		return "small-world"
	default:
		return fmt.Sprintf("topology(%d)", int(t))
	}
}

// NetworkOptions configures NewNetwork.
type NetworkOptions struct {
	// Nodes is the initial overlay size. Required.
	Nodes int
	// Topology defaults to Heterogeneous.
	Topology Topology
	// MaxDegree is the degree cap (Heterogeneous), exact degree
	// (Homogeneous) or attachment count (ScaleFree). Default 10
	// (3 for ScaleFree), matching the paper.
	MaxDegree int
	// RewireProb is the SmallWorld rewiring probability beta (default
	// 0.1); ignored by other topologies.
	RewireProb float64
	// Seed drives construction and subsequent churn. Same options, same
	// network.
	Seed uint64
}

// Network is a simulated peer-to-peer overlay with a message meter.
// It is not safe for concurrent use.
type Network struct {
	net *overlay.Network
	// rng is the churn randomness. The Network an estimator's Estimate
	// is handed has none: it is read-only, and its churn methods refuse.
	rng *xrand.Rand
}

// readOnlyWrite is the panic a churn method or ApplyAdversary raises
// on a read-only Network, naming the method; the estimator wrapper
// (publicWrap) returns it as the estimate's error.
type readOnlyWrite string

// churn returns n's churn randomness, or refuses the named writing
// method on a read-only Network before it writes anything.
func (n *Network) churn(method string) *xrand.Rand {
	if n.rng == nil {
		panic(readOnlyWrite(method))
	}
	return n.rng
}

// NewNetwork builds an overlay per the options.
func NewNetwork(opts NetworkOptions) (*Network, error) {
	if opts.Nodes < 1 {
		return nil, errors.New("p2psize: NetworkOptions.Nodes must be >= 1")
	}
	if int64(opts.Nodes) > math.MaxInt32 {
		return nil, fmt.Errorf("p2psize: NetworkOptions.Nodes must be at most %d (node ids are int32)", math.MaxInt32)
	}
	maxDeg := opts.MaxDegree
	if maxDeg == 0 {
		if opts.Topology == ScaleFree {
			maxDeg = 3
		} else {
			maxDeg = 10
		}
	}
	if maxDeg < 1 {
		return nil, errors.New("p2psize: NetworkOptions.MaxDegree must be >= 1")
	}
	rng := xrand.New(opts.Seed)
	var g *graph.Graph
	switch opts.Topology {
	case Heterogeneous:
		g = graph.Heterogeneous(opts.Nodes, maxDeg, rng)
	case Homogeneous:
		if maxDeg >= opts.Nodes {
			return nil, errors.New("p2psize: homogeneous degree must be < Nodes")
		}
		g = graph.Homogeneous(opts.Nodes, maxDeg, rng)
	case ScaleFree:
		if opts.Nodes < maxDeg+1 {
			return nil, errors.New("p2psize: scale-free needs Nodes > MaxDegree")
		}
		g = graph.BarabasiAlbert(opts.Nodes, maxDeg, rng)
		maxDeg = opts.Nodes // joins on scale-free graphs are not degree-capped
	case Ring:
		if opts.Nodes < 3 {
			return nil, errors.New("p2psize: ring needs Nodes >= 3")
		}
		g = graph.Ring(opts.Nodes)
	case SmallWorld:
		if maxDeg == 10 && opts.MaxDegree == 0 {
			maxDeg = 4 // lattice k; degree 2k = 8 ≈ the paper's overlays
		}
		if opts.Nodes < 2*maxDeg+1 {
			return nil, errors.New("p2psize: small world needs Nodes > 2*MaxDegree")
		}
		beta := opts.RewireProb
		if beta == 0 {
			beta = 0.1
		}
		if !(beta >= 0 && beta <= 1) {
			return nil, fmt.Errorf("p2psize: RewireProb %g must be in [0,1]", beta)
		}
		g = graph.WattsStrogatz(opts.Nodes, maxDeg, beta, rng)
		maxDeg = 2 * maxDeg
	default:
		return nil, fmt.Errorf("p2psize: unknown topology %v", opts.Topology)
	}
	return &Network{net: overlay.New(g, maxDeg, nil), rng: rng.Split()}, nil
}

// Size returns the true current number of live peers — what the
// estimators try to recover without global knowledge.
func (n *Network) Size() int { return n.net.Size() }

// Messages returns the total protocol messages metered so far.
func (n *Network) Messages() uint64 { return n.net.Counter().Total() }

// MessagesByKind returns the per-category message counts (walk hops,
// gossip spread, replies, push/pull, ...).
func (n *Network) MessagesByKind() map[string]uint64 {
	out := make(map[string]uint64)
	for _, k := range metrics.AllKinds() {
		if c := n.net.Counter().Count(k); c > 0 {
			out[k.String()] = c
		}
	}
	return out
}

// ResetMessages zeroes the message meter.
func (n *Network) ResetMessages() { n.net.Counter().Reset() }

// AvgDegree returns the mean node degree.
func (n *Network) AvgDegree() float64 { return graph.AvgDegree(n.net.Graph()) }

// MaxObservedDegree returns the largest current node degree.
func (n *Network) MaxObservedDegree() int { return graph.MaxDegree(n.net.Graph()) }

// IsConnected reports whether the overlay is a single component.
func (n *Network) IsConnected() bool { return graph.IsConnected(n.net.Graph()) }

// LargestComponent returns the size of the largest connected component.
func (n *Network) LargestComponent() int { return graph.LargestComponent(n.net.Graph()) }

// DegreeCounts returns (degree, count) pairs over live peers — the data
// behind the paper's Fig 7.
func (n *Network) DegreeCounts() (degrees, counts []int) {
	return graph.DegreeHistogram(n.net.Graph()).NonZero()
}

// Join adds one peer with a random target degree (uniform in
// [1, MaxDegree], as in the paper's construction) and returns the new
// overlay size. Like the other churn methods (JoinMany, LeaveRandom,
// LeaveFraction) and ApplyAdversary it is unavailable inside an
// Estimator's Estimate, whose Network is read-only: the call changes
// nothing and fails that estimate with an error naming the estimator
// and the method.
func (n *Network) Join() int {
	n.net.JoinRandomDegree(n.churn("Join"))
	return n.Size()
}

// JoinMany adds k peers. It is unavailable inside Estimate (see Join).
func (n *Network) JoinMany(k int) {
	rng := n.churn("JoinMany")
	for i := 0; i < k; i++ {
		n.net.JoinRandomDegree(rng)
	}
}

// LeaveRandom removes one uniformly random peer (no neighbor rewiring,
// per the paper's churn rule) and reports whether a peer was removed.
// It is unavailable inside Estimate (see Join).
func (n *Network) LeaveRandom() bool {
	_, ok := n.net.LeaveRandom(n.churn("LeaveRandom"))
	return ok
}

// LeaveFraction removes the given fraction of current peers (0..1),
// uniformly at random — a catastrophic failure. Returns the number
// removed. It is unavailable inside Estimate (see Join).
func (n *Network) LeaveFraction(f float64) int {
	n.churn("LeaveFraction")
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	k := int(f * float64(n.Size()))
	removed := 0
	for i := 0; i < k && n.Size() > 1; i++ {
		if n.LeaveRandom() {
			removed++
		}
	}
	return removed
}

// WriteSnapshot serializes the overlay topology for later reuse.
func (n *Network) WriteSnapshot(w io.Writer) error {
	_, err := n.net.Graph().WriteTo(w)
	return err
}

// LoadNetwork rebuilds a Network from a snapshot produced by
// WriteSnapshot. Seed drives subsequent churn; maxDegree caps joins
// (0 = the paper's 10).
func LoadNetwork(r io.Reader, maxDegree int, seed uint64) (*Network, error) {
	g, err := graph.Read(r)
	if err != nil {
		return nil, err
	}
	if maxDegree == 0 {
		maxDegree = 10
	}
	if maxDegree < 0 {
		return nil, fmt.Errorf("p2psize: LoadNetwork maxDegree %d is negative (0 selects 10)", maxDegree)
	}
	return &Network{net: overlay.New(g, maxDegree, nil), rng: xrand.New(seed)}, nil
}

// Estimator produces decentralized size estimates for a Network.
type Estimator interface {
	// Name identifies the algorithm and its headline parameters.
	Name() string
	// Estimate runs one estimation process; its message cost accumulates
	// on the network's meter.
	Estimate(n *Network) (float64, error)
}

// RunRepeated performs runs consecutive estimations and returns the raw
// values. Overhead accumulates on the network meter.
func RunRepeated(e Estimator, n *Network, runs int) ([]float64, error) {
	if e == nil || n == nil {
		return nil, errors.New("p2psize: RunRepeated needs an estimator and a network")
	}
	if runs < 1 {
		return nil, errors.New("p2psize: RunRepeated needs runs >= 1")
	}
	out := make([]float64, 0, runs)
	for i := 0; i < runs; i++ {
		v, err := e.Estimate(n)
		if err != nil {
			return out, fmt.Errorf("p2psize: run %d: %w", i, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// RunParallel performs runs independent estimations across a worker pool
// and returns the raw values ordered by run index. newEstimator(i) builds
// the estimator for run i and must derive its Seed from i (e.g. baseSeed
// + i), so that run i's value is fixed by the index alone — the output is
// then byte-identical at every worker count, including workers = 1.
//
// The overlay must not be mutated during the call. Each run meters on a
// private counter; the per-run counts are merged into the network's meter
// in run order before returning, so Messages() sees the same totals a
// sequential execution would.
func RunParallel(newEstimator func(run int) Estimator, n *Network, runs, workers int) ([]float64, error) {
	if newEstimator == nil || n == nil {
		return nil, errors.New("p2psize: RunParallel needs an estimator factory and a network")
	}
	res, err := core.RunStaticParallel(func(run int) core.Estimator { return toCore(newEstimator(run)) },
		n.net, runs, workers)
	if err != nil {
		return nil, fmt.Errorf("p2psize: RunParallel: %w", err)
	}
	return res.Estimates, nil
}

// SmoothLastK applies the paper's lastKruns heuristic to a raw estimate
// sequence after the fact: out[i] is the mean of vals[max(0,i-k+1) .. i].
// Applied to the values of RunRepeated or RunParallel (where runs
// complete out of order), it gives the lastKruns series. k < 1 means
// the paper's 10.
func SmoothLastK(vals []float64, k int) []float64 {
	if k < 1 {
		k = core.LastK
	}
	w := stats.NewWindow(k)
	out := make([]float64, len(vals))
	for i, v := range vals {
		w.Add(v)
		out[i] = w.Mean()
	}
	return out
}
