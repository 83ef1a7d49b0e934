// Package randomtour implements the Random Tour size estimator
// (Massoulié, Le Merrer, Kermarrec, Ganesh, PODC'06), the other
// random-walk method discussed in the comparative study's background
// (§II): Sample&Collide was chosen over it because "the overhead of the
// Sample&Collide algorithm is much lower than the one of Random Tour".
// This package exists so that claim is reproducible (see the
// ext-walks experiment).
//
// The estimator uses the return time of a random walk: a walk started at
// initiator i and absorbed on its first return to i visits node v an
// expected π_v·E[T_return] times, with π_v = deg(v)/2|E| the stationary
// distribution and E[T_return] = 1/π_i = 2|E|/deg(i). Accumulating
// Φ = Σ_t 1/deg(X_t) over the tour therefore has expectation
//
//	E[Φ] = Σ_v π_v (1/deg v) · E[T_return] = (N / 2|E|) · (2|E|/deg i)
//	     = N / deg(i),
//
// so N̂ = deg(i) · Φ is unbiased. A single tour costs Θ(2|E|/deg i)
// messages — linear in the network size, which is exactly why
// Sample&Collide's Θ(√N·l) wins at scale.
package randomtour

import (
	"errors"
	"fmt"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// Config parameterizes Random Tour.
type Config struct {
	// Tours is the number of independent tours averaged per estimation
	// (>=1). Averaging reduces the estimator's (large) variance.
	Tours int
	// MaxHops bounds one tour (safety valve on huge or poorly mixing
	// overlays; 0 means 500·N at Estimate time).
	MaxHops int
}

// Default returns a single-tour configuration.
func Default() Config { return Config{Tours: 1} }

func (c *Config) validate() error {
	if c.Tours < 1 {
		return errors.New("randomtour: Tours must be >= 1")
	}
	if c.MaxHops < 0 {
		return errors.New("randomtour: MaxHops must be >= 0")
	}
	return nil
}

// Estimator runs Random Tour estimations. It satisfies the
// core.Estimator contract.
type Estimator struct {
	cfg Config
	rng *xrand.Rand
}

// New builds an Estimator; it panics on invalid configuration.
func New(cfg Config, rng *xrand.Rand) *Estimator {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		panic("randomtour: nil rng")
	}
	return &Estimator{cfg: cfg, rng: rng}
}

// Name identifies the estimator in reports.
func (e *Estimator) Name() string {
	return fmt.Sprintf("random-tour(tours=%d)", e.cfg.Tours)
}

// MutatesOverlay reports false: random tours only walk the overlay
// (core.OverlayMutator).
func (e *Estimator) MutatesOverlay() bool { return false }

// ErrEmptyOverlay is returned when no live peer can initiate.
var ErrEmptyOverlay = errors.New("randomtour: empty overlay")

// ErrNoReturn is returned when a tour exceeds its hop budget without
// coming home — in practice a disconnected or pathological overlay.
var ErrNoReturn = errors.New("randomtour: walk did not return within the hop budget")

// ErrIsolatedInitiator is returned when the initiator has no neighbors:
// a return-time walk cannot leave, so the method degenerates.
var ErrIsolatedInitiator = errors.New("randomtour: initiator is isolated")

// Estimate runs Tours tours from a random initiator and returns the
// averaged estimate. Walk hops are metered on the network's counter.
func (e *Estimator) Estimate(net *overlay.Network) (float64, error) {
	initiator, ok := net.RandomPeer(e.rng)
	if !ok {
		return 0, ErrEmptyOverlay
	}
	return e.EstimateFrom(net, initiator)
}

// EstimateFrom runs Tours tours from the given initiator.
func (e *Estimator) EstimateFrom(net *overlay.Network, initiator graph.NodeID) (float64, error) {
	if !net.Alive(initiator) {
		return 0, fmt.Errorf("randomtour: initiator %d is not alive", initiator)
	}
	if net.Degree(initiator) == 0 {
		return 0, ErrIsolatedInitiator
	}
	sum := 0.0
	for t := 0; t < e.cfg.Tours; t++ {
		est, err := e.tour(net, initiator)
		if err != nil {
			return 0, err
		}
		sum += est
	}
	return sum / float64(e.cfg.Tours), nil
}

// tour runs one walk from initiator until first return and produces the
// unbiased single-tour estimate deg(i)·Φ.
func (e *Estimator) tour(net *overlay.Network, initiator graph.NodeID) (float64, error) {
	budget := e.cfg.MaxHops
	if budget == 0 {
		budget = 500 * net.Size()
	}
	degI := float64(net.Degree(initiator))
	// The tour's Φ counts the initiator's own visit once (the start).
	phi := 1 / degI
	cur, _ := net.RandomNeighbor(initiator, e.rng)
	// The initiator is exempt from NAT: the tour is its own request.
	cur = net.NATHop(initiator, initiator, cur, e.rng)
	net.SendTo(cur, metrics.KindWalk)
	hops := 1
	for cur != initiator {
		if hops >= budget {
			return 0, ErrNoReturn
		}
		phi += 1 / float64(net.Degree(cur))
		next, ok := net.RandomNeighbor(cur, e.rng)
		if !ok {
			// Mid-walk isolation cannot happen on an undirected graph
			// (we arrived over an edge), but churn between estimations
			// may leave stale state; fail loudly rather than loop.
			return 0, fmt.Errorf("randomtour: walk stranded at isolated node %d", cur)
		}
		next = net.NATHop(initiator, cur, next, e.rng)
		net.SendTo(next, metrics.KindWalk)
		cur = next
		hops++
	}
	return degI * phi, nil
}
