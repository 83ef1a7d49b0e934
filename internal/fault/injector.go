package fault

import (
	"math"

	"p2psize/internal/core"
	"p2psize/internal/latency"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/stats"
	"p2psize/internal/xrand"
)

// virtualPeers sizes the injector's private delay model: message delays
// are drawn between random virtual coordinates instead of the true
// endpoints (the metering surface does not expose them), which keeps the
// delay distribution — base + unit-square distance, the same shape
// latency.Euclidean gives the ext-delay experiment — without coupling
// the injector to overlay size.
const virtualPeers = 64

// delaySamples is how many delays are sampled at construction to fix the
// clock's quantile constants (round period, retransmission timeout).
const delaySamples = 256

// Injector enforces the message-level faults of a Spec. It implements
// overlay.FaultPolicy: install it with Network.SetFaultPolicy (or let
// Decorate do it per estimate) and every metered Send/SendN pays drops,
// duplicates and delays through it.
//
// The injector also runs the virtual estimate-latency clock:
//
//   - sequential kinds (walk hops, sample returns, control probes) add
//     one modeled delay per message — a walk cannot advance before the
//     previous hop landed;
//   - concurrent kinds (gossip spreads, replies, epidemic push/pull)
//     proceed network-wide in parallel, so their cost is counted in
//     rounds: messages ÷ population at estimate start, each round priced
//     at a high quantile of the delay distribution (the synchronous-
//     round rule the latency package uses for Aggregation);
//   - every retransmission of a dropped reliable message costs one
//     timeout (RTO).
//
// An Injector is single-goroutine state, like the estimator it brackets:
// use one per run or per monitoring instance.
type Injector struct {
	spec  Spec
	rng   *xrand.Rand
	model *latency.Euclidean

	meanDelay float64 // mean one-way delay of the model
	q99       float64 // high-quantile one-way delay: the round price
	rto       float64 // retransmission timeout

	liarSalt uint64

	clock    float64 // sequential + timeout latency of the open estimate
	concMsgs float64 // concurrent-kind messages of the open estimate
	aliveAt0 float64 // population at BeginEstimate
	last     float64 // latency of the last closed estimate
}

// NewInjector builds an injector for the spec, drawing its delay model
// and all future fate draws from rng. Equal (spec, rng seed) give
// byte-identical injectors; it panics on an invalid spec.
func NewInjector(spec Spec, rng *xrand.Rand) *Injector {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		panic("fault: nil rng")
	}
	inj := &Injector{spec: spec, rng: rng, liarSalt: rng.Uint64()}
	inj.model = latency.NewEuclidean(virtualPeers, 0.01, rng)
	samples := make([]float64, delaySamples)
	var sum float64
	for i := range samples {
		samples[i] = inj.drawDelay()
		sum += samples[i]
	}
	inj.meanDelay = sum / delaySamples
	inj.q99 = stats.Quantile(samples, 0.99)
	inj.rto = 3 * inj.q99
	return inj
}

// drawDelay draws one modeled one-way delay between two virtual peers.
func (inj *Injector) drawDelay() float64 {
	u := inj.rng.Intn(virtualPeers)
	v := inj.rng.Intn(virtualPeers)
	return inj.model.Delay(int32(u), int32(v))
}

// Reliable reports whether the kind has request/response semantics: a
// dropped message is retransmitted until it arrives. Epidemic push/pull
// is fire-and-forget — a loss costs the payload, not a resend — which is
// exactly the asymmetry that makes mass-conservation families fragile
// under drop while sampling families just pay more messages.
func Reliable(kind metrics.Kind) bool {
	return kind != metrics.KindPush && kind != metrics.KindPull
}

// sequential reports whether messages of the kind serialize the
// estimation (each must land before the protocol advances).
func sequential(kind metrics.Kind) bool {
	switch kind {
	case metrics.KindWalk, metrics.KindSampleReturn, metrics.KindControl:
		return true
	}
	return false
}

// OnSend implements overlay.FaultPolicy: it prices count fresh messages
// of the kind and returns how many extra messages (retransmissions and
// duplicates) to meter on top.
func (inj *Injector) OnSend(kind metrics.Kind, count uint64) uint64 {
	var extra uint64
	if inj.spec.Drop > 0 && Reliable(kind) {
		// Retransmit-until-delivered: each round resends the losses of
		// the previous one and costs a timeout.
		pend := inj.binomial(count, inj.spec.Drop)
		for pend > 0 {
			extra += pend
			if sequential(kind) {
				inj.clock += float64(pend) * inj.rto
			} else {
				inj.clock += inj.rto
			}
			pend = inj.binomial(pend, inj.spec.Drop)
		}
	}
	if inj.spec.Dup > 0 {
		extra += inj.binomial(count, inj.spec.Dup)
	}
	if sequential(kind) {
		if count == 1 {
			inj.clock += inj.drawDelay()
		} else {
			inj.clock += float64(count) * inj.meanDelay
		}
	} else {
		inj.concMsgs += float64(count + extra)
	}
	return extra
}

// DropProb implements overlay.FaultPolicy: the payload-loss probability
// fire-and-forget protocols apply to their own deliveries.
func (inj *Injector) DropProb() float64 { return inj.spec.Drop }

// ReportScale implements overlay.FaultPolicy: the factor by which the
// given peer misreports values it sends. Liars are a stable salted-hash
// selection, so the set never depends on draw order.
func (inj *Injector) ReportScale(id overlay.NodeID) float64 {
	if inj.spec.LieFrac <= 0 {
		return 1
	}
	if selected(id, inj.spec.LieFrac, inj.liarSalt) {
		return inj.spec.LieScale
	}
	return 1
}

// natSaltTweak turns the liar salt into an independent NAT salt without
// consuming an rng draw — drawing one would shift every fate stream of
// every pre-existing scenario and break the frozen checksums.
const natSaltTweak = 0xd1b54a32d192ed03

// Unreachable implements overlay.FaultPolicy: whether the peer sits
// behind NAT-limited connectivity (inbound requests fail, outbound still
// works). The fated set is a stable salted-hash selection like the
// liars, on an independent salt.
func (inj *Injector) Unreachable(id overlay.NodeID) bool {
	if inj.spec.NATFrac <= 0 {
		return false
	}
	return selected(id, inj.spec.NATFrac, inj.liarSalt^natSaltTweak)
}

// binomial draws how many of n trials succeed with probability p:
// exact Bernoulli sweep for small n, a deterministic rounded normal
// approximation for large batches (one draw instead of n).
func (inj *Injector) binomial(n uint64, p float64) uint64 {
	if n == 0 || p <= 0 {
		return 0
	}
	const exactLimit = 64
	if n <= exactLimit {
		var k uint64
		for i := uint64(0); i < n; i++ {
			if inj.rng.Bernoulli(p) {
				k++
			}
		}
		return k
	}
	mean := float64(n) * p
	sd := math.Sqrt(mean * (1 - p))
	k := math.Round(inj.rng.Norm(mean, sd))
	if k < 0 {
		return 0
	}
	if k > float64(n) {
		return n
	}
	return uint64(k)
}

// BeginEstimate opens the latency clock for one estimation on net.
func (inj *Injector) BeginEstimate(net *overlay.Network) {
	inj.clock = 0
	inj.concMsgs = 0
	inj.aliveAt0 = float64(max(1, net.Size()))
}

// EndEstimate closes the clock and records the estimate's latency:
// sequential and timeout delays plus the concurrent kinds folded into
// synchronous rounds, all scaled by the spec's delay factor.
func (inj *Injector) EndEstimate() float64 {
	lat := inj.clock + inj.concMsgs/inj.aliveAt0*inj.q99
	if inj.spec.DelayFactor > 0 {
		lat *= inj.spec.DelayFactor
	}
	inj.last = lat
	return lat
}

// LastLatency returns the most recent estimate's latency (0 before the
// first EndEstimate).
func (inj *Injector) LastLatency() float64 { return inj.last }

// Estimator wraps an inner estimator so every Estimate runs under an
// injector's faults; build one with Decorate.
type Estimator struct {
	inner core.Estimator
	inj   *Injector
}

// Decorate brackets e with the fault layer: each Estimate installs inj
// as the network's fault policy for its duration and runs the latency
// clock around the inner estimation. The estimator surface is unchanged,
// so any family — current or future, built-in or custom — runs under
// faults unmodified. Safe under the parallel harnesses because each run
// or instance estimates on its own view.
func Decorate(e core.Estimator, inj *Injector) *Estimator {
	if e == nil {
		panic("fault: Decorate of nil estimator")
	}
	if inj == nil {
		panic("fault: Decorate with nil injector")
	}
	return &Estimator{inner: e, inj: inj}
}

// Name identifies the inner estimator in reports.
func (f *Estimator) Name() string { return f.inner.Name() }

// MutatesOverlay forwards the wrapped estimator's declaration
// (core.OverlayMutator): fault injection perturbs message fates, not
// the graph, so decoration leaves the monitor's replay-group count
// as it was.
func (f *Estimator) MutatesOverlay() bool { return core.MutatesOverlay(f.inner) }

// Estimate runs the inner estimation under the fault policy.
func (f *Estimator) Estimate(net *overlay.Network) (float64, error) {
	prev := net.FaultPolicy()
	net.SetFaultPolicy(f.inj)
	defer net.SetFaultPolicy(prev)
	f.inj.BeginEstimate(net)
	est, err := f.inner.Estimate(net)
	f.inj.EndEstimate()
	return est, err
}
