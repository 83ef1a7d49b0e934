// Package capturerecapture implements a capture–recapture size
// estimator, the ecology-derived sampling method the comparative
// study's background (§II) groups with the random-walk class: mark a
// random sample of peers, draw a second independent sample, and infer
// the population size from the overlap.
//
// Both phases draw uniform peers with the same timer-driven
// continuous-time random walk Sample&Collide uses (the walk machinery
// is reused from that package), so the method inherits its
// degree-unbiased sampling on arbitrary graphs. With n1 distinct peers
// marked in the capture phase, n2 recapture draws and m of them landing
// on marked peers, the estimate is Lincoln–Petersen with the Chapman
// correction,
//
//	N̂ = (n1+1)(n2+1)/(m+1) − 1,
//
// which stays finite at m = 0 and removes the small-sample bias of the
// raw n1·n2/m. The relative error scales as 1/√E[m] with
// E[m] ≈ n2·n1/N, so fixed sample counts buy accuracy at small-to-
// medium sizes and degrade gracefully (rather than diverging in cost)
// as N grows — the opposite trade to Sample&Collide, whose sample count
// grows as √N to hold accuracy. That contrast is exactly what the
// comparative figures put side by side.
//
// Cost per estimation: (marks + recaptures) walks of ~T·d̄ hops each,
// plus one control message per newly marked peer.
package capturerecapture

import (
	"errors"
	"fmt"
	"math"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/samplecollide"
	"p2psize/internal/scratch"
	"p2psize/internal/xrand"
)

// The 300/300 setting: at the study's smaller scales E[m] stays in the
// tens, keeping single-estimate error near 1/√m ≈ 15%, at a
// per-estimate cost two orders below Random Tour. This repo's choice;
// the paper does not run the method.
const (
	// marks is the number of capture-phase walk draws; the marked set
	// holds the distinct peers among them.
	marks = 300
	// recaptures is the number of recapture-phase walk draws.
	recaptures = 300
)

// Estimator runs capture–recapture estimations on an overlay. It
// satisfies the core.Estimator contract.
type Estimator struct {
	rng     *xrand.Rand
	sampler *samplecollide.Estimator
}

// idle lends a finished estimate's marked set to the next, on any
// estimator; a set that held more peers ranks larger (a cleared map
// keeps its room).
var idle = scratch.NewList(func(m map[graph.NodeID]struct{}) int { return len(m) })

// New builds an Estimator; it panics on a nil rng.
func New(rng *xrand.Rand) *Estimator {
	if rng == nil {
		panic("capturerecapture: nil rng")
	}
	// The sampler shares this estimator's rng so one seed fixes the
	// whole draw sequence. Its walks time out at the paper's T, as
	// Sample&Collide's do; its L is irrelevant (only Sample is used).
	return &Estimator{
		rng:     rng,
		sampler: samplecollide.New(samplecollide.Config{T: samplecollide.DefaultT, L: 1}, rng),
	}
}

// Name identifies the estimator in reports.
func (e *Estimator) Name() string {
	return fmt.Sprintf("capture-recapture(marks=%d,recaptures=%d)", marks, recaptures)
}

// MutatesOverlay reports false: marking and recapturing only walk the
// overlay (core.OverlayMutator).
func (e *Estimator) MutatesOverlay() bool { return false }

// ErrEmptyOverlay is returned when no live peer can initiate.
var ErrEmptyOverlay = errors.New("capturerecapture: empty overlay")

// Estimate runs one capture phase and one recapture phase from a random
// initiator and returns the Chapman-corrected estimate. Walk hops and
// sample returns are metered by the sampler; marking a newly captured
// peer costs one control message.
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
		return 0, fmt.Errorf("capturerecapture: initiator %d is not alive", initiator)
	}
	marked, ok := idle.Get(math.MaxInt) // the largest set: the fewest regrowths
	if !ok {
		marked = make(map[graph.NodeID]struct{}, marks)
	}
	defer idle.Put(marked)
	clear(marked)
	// Capture: draw marks uniform samples; the distinct ones form the
	// marked set (each new mark is one control message to the peer).
	for range marks {
		s, err := e.sampler.Sample(net, initiator)
		if err != nil {
			return 0, err
		}
		if _, dup := marked[s]; !dup {
			marked[s] = struct{}{}
			net.Send(metrics.KindControl)
		}
	}
	// Recapture: draw again, count hits on the marked set. Departed
	// peers simply cannot be re-drawn, which under churn shrinks m and
	// biases the estimate up — the honest failure mode of the method.
	m := 0
	for range recaptures {
		s, err := e.sampler.Sample(net, initiator)
		if err != nil {
			return 0, err
		}
		if _, hit := marked[s]; hit {
			m++
		}
	}
	n1 := float64(len(marked))
	n2 := float64(recaptures)
	return Chapman(n1, n2, float64(m)), nil
}

// Chapman returns the Chapman-corrected Lincoln–Petersen estimate for
// n1 marked, n2 recaptured, m overlapping.
func Chapman(n1, n2, m float64) float64 {
	return (n1+1)*(n2+1)/(m+1) - 1
}
