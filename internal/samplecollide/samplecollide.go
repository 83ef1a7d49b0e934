// Package samplecollide implements the Sample&Collide size estimator
// (§III-A of the comparative study; Massoulié, Le Merrer, Kermarrec,
// Ganesh, PODC'06), the representative of the random-walk class.
//
// It has two parts:
//
//  1. A uniform peer sampler. The initiator sets a finite timer T > 0
//     and sends it on a random walk; each node decrements the timer by
//     an exponential variate -log(U)/degree and forwards the message to
//     a uniformly random neighbor while T > 0. The node at which the timer
//     expires reports itself to the initiator. Because the decrement rate
//     is proportional to degree, this emulates a continuous-time random
//     walk whose stationary distribution is uniform on arbitrary graphs,
//     removing the degree bias of plain random-walk sampling. The walk
//     only ever asks whether the timer has run out, so it keeps the
//     timer in an xrand.Countdown: the same draws and the same
//     decisions as subtracting Exp(degree) at every hop, without a
//     math.Log per hop (the estimate carries an error bound, and the
//     rare step the bound cannot decide is replayed exactly).
//
//  2. The inverted-birthday-paradox estimator. Samples are drawn until l
//     of them hit already-seen nodes ("collisions"); if X samples were
//     needed, the size estimate is N̂ = X²/(2l). Larger l buys accuracy
//     (relative error ~ 1/sqrt(l)) at proportionally larger cost
//     (X ≈ sqrt(2lN) samples of ~T·d̄ hops each).
package samplecollide

import (
	"errors"
	"fmt"
	"math"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/scratch"
	"p2psize/internal/xrand"
)

// EstimatorKind selects the size formula applied to the collision record.
type EstimatorKind int

const (
	// Basic is the paper's N̂ = X²/(2l).
	Basic EstimatorKind = iota
	// MLE numerically maximizes the exact collision likelihood; an
	// extension used in the ablation study.
	MLE
)

// Config parameterizes Sample&Collide. The paper's defaults are T = 10
// and l = 200 (Figs 1, 2, 8-11) or l = 10 for the cheap variant (Fig 18).
type Config struct {
	// T is the sampling timer. The paper sets 10: "this value is
	// sufficient for an accurate sampling".
	T float64
	// L is the number of collisions to wait for.
	L int
	// MaxSamples bounds a single estimation (safety valve on pathological
	// topologies). 0 means 100·sqrt(2·L·maxN) with maxN = 2^31.
	MaxSamples int
	// Kind selects the estimator formula (default Basic).
	Kind EstimatorKind
}

// The paper's setting (Figs 1, 2, 8-11).
const (
	// DefaultT is the walk timer T.
	DefaultT = 10
	// DefaultL is the collision target l.
	DefaultL = 200
)

// Default returns the paper's configuration.
func Default() Config { return Config{T: DefaultT, L: DefaultL} }

func (c *Config) validate() error {
	if !(c.T > 0) || math.IsInf(c.T, 1) {
		return fmt.Errorf("samplecollide: T %g must be positive and finite", c.T)
	}
	if c.L < 1 {
		return errors.New("samplecollide: L must be >= 1")
	}
	if c.MaxSamples < 0 {
		return errors.New("samplecollide: MaxSamples must be >= 0")
	}
	return nil
}

func (c *Config) maxSamples() int {
	if c.MaxSamples > 0 {
		return c.MaxSamples
	}
	return 100 * int(math.Sqrt(2*float64(c.L)*float64(1<<31)))
}

// Estimator runs Sample&Collide estimations on an overlay. It satisfies
// the core.Estimator contract.
type Estimator struct {
	cfg Config
	rng *xrand.Rand
}

// draws is what an estimate records of its samples: the distinct nodes
// sampled so far and, for MLE, how many were known at each draw. It
// carries the walks' clock too, lent with its draw history.
type draws struct {
	seen              map[graph.NodeID]struct{}
	distinctWhenDrawn []int32
	timer             xrand.Countdown
}

// idle lends a finished estimate's draws to the next, on any estimator;
// a set that held more nodes ranks larger (a cleared map keeps its room).
var idle = scratch.NewList(func(d *draws) int { return len(d.seen) })

// New builds an Estimator; it panics on invalid configuration (programmer
// error, caught in tests).
func New(cfg Config, rng *xrand.Rand) *Estimator {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		panic("samplecollide: nil rng")
	}
	return &Estimator{cfg: cfg, rng: rng}
}

// Name identifies the estimator in reports, e.g. "sample&collide(l=200)".
func (e *Estimator) Name() string {
	return fmt.Sprintf("sample&collide(l=%d)", e.cfg.L)
}

// MutatesOverlay reports false: sample & collide only walks the overlay
// (core.OverlayMutator).
func (e *Estimator) MutatesOverlay() bool { return false }

// ErrEmptyOverlay is returned when no live peer can initiate.
var ErrEmptyOverlay = errors.New("samplecollide: empty overlay")

// ErrBudgetExhausted is returned when MaxSamples walks did not produce L
// collisions.
var ErrBudgetExhausted = errors.New("samplecollide: sample budget exhausted before l collisions")

// Estimate runs one full estimation from a random initiator and returns
// the estimated overlay size. Message costs (walk hops and sample
// returns) are metered on the network's counter.
func (e *Estimator) Estimate(net *overlay.Network) (float64, error) {
	initiator, ok := net.RandomPeer(e.rng)
	if !ok {
		return 0, ErrEmptyOverlay
	}
	return e.EstimateFrom(net, initiator)
}

// EstimateFrom runs one full estimation from the given initiator.
func (e *Estimator) EstimateFrom(net *overlay.Network, initiator graph.NodeID) (float64, error) {
	if !net.Alive(initiator) {
		return 0, fmt.Errorf("samplecollide: initiator %d is not alive", initiator)
	}
	d := e.borrow()
	defer idle.Put(d)
	seen := d.seen
	clear(seen)
	d.distinctWhenDrawn = d.distinctWhenDrawn[:0]
	collisions := 0
	samples := 0
	budget := e.cfg.maxSamples()
	for collisions < e.cfg.L {
		if samples >= budget {
			return 0, ErrBudgetExhausted
		}
		s := e.sample(net, initiator, &d.timer)
		samples++
		if e.cfg.Kind == MLE {
			d.distinctWhenDrawn = append(d.distinctWhenDrawn, int32(len(seen)))
		}
		if _, dup := seen[s]; dup {
			collisions++
		} else {
			seen[s] = struct{}{}
		}
	}
	switch e.cfg.Kind {
	case MLE:
		return mleEstimate(d.distinctWhenDrawn, len(seen)), nil
	default:
		x := float64(samples)
		return x * x / (2 * float64(e.cfg.L)), nil
	}
}

// borrow takes draws off the free list, or makes them.
func (e *Estimator) borrow() *draws {
	d, ok := idle.Get(math.MaxInt) // the largest set: the fewest regrowths
	if !ok {
		d = &draws{seen: make(map[graph.NodeID]struct{}, 4*e.cfg.L)}
	}
	return d
}

// sample performs one random walk from the initiator, on timer, and
// returns the sampled node. An isolated initiator samples itself (the
// walk cannot leave), which keeps degenerate overlays well-defined.
// Hops are addressed sends, so a live transport routes each one to the
// next peer's real socket; the sample return rides the walk's reverse
// path back to the initiator.
func (e *Estimator) sample(net *overlay.Network, initiator graph.NodeID, timer *xrand.Countdown) graph.NodeID {
	cur, ok := net.RandomNeighbor(initiator, e.rng)
	if !ok {
		net.SendTo(initiator, metrics.KindSampleReturn)
		return initiator
	}
	cur = net.NATHop(graph.None, initiator, cur, e.rng)
	net.SendTo(cur, metrics.KindWalk)
	timer.Reset(e.cfg.T)
	// Arriving via an edge guarantees degree >= 1 here.
	for !timer.Step(e.rng, float64(net.Degree(cur))) {
		next, _ := net.RandomNeighbor(cur, e.rng)
		next = net.NATHop(graph.None, cur, next, e.rng)
		net.SendTo(next, metrics.KindWalk)
		cur = next
	}
	net.SendTo(initiator, metrics.KindSampleReturn)
	return cur
}

// Sample exposes one uniform sample draw (used by the sampling-uniformity
// tests and by downstream applications that need unbiased peers rather
// than a size estimate).
func (e *Estimator) Sample(net *overlay.Network, initiator graph.NodeID) (graph.NodeID, error) {
	if !net.Alive(initiator) {
		return graph.None, fmt.Errorf("samplecollide: initiator %d is not alive", initiator)
	}
	d := e.borrow()
	defer idle.Put(d)
	return e.sample(net, initiator, &d.timer), nil
}

// mleEstimate solves the likelihood equation for N given the collision
// history: at each draw the probability of a collision is s/N with s the
// number of distinct nodes seen so far. The score equation is
//
//	l = Σ_{non-collision draws} s/(N-s)  =  Σ_{k=0}^{D-1} k/(N-k)
//
// with D distinct nodes total, and its right side is strictly decreasing
// in N, so bisection converges.
func mleEstimate(distinctWhenDrawn []int32, distinct int) float64 {
	l := len(distinctWhenDrawn) - distinct // collisions
	if l <= 0 {
		return float64(distinct)
	}
	score := func(n float64) float64 {
		sum := 0.0
		for k := 1; k < distinct; k++ {
			sum += float64(k) / (n - float64(k))
		}
		return sum
	}
	lo := float64(distinct) + 1 // score(lo) is huge
	hi := lo
	for score(hi) > float64(l) {
		hi *= 2
		if hi > 1e15 {
			break
		}
	}
	for i := 0; i < 100 && hi-lo > 0.5; i++ {
		mid := (lo + hi) / 2
		if score(mid) > float64(l) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
