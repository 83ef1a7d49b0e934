package p2psize

// Public fault-injection surface: describe a degraded-network scenario
// (lossy links, inflated delay, duplicated traffic, misbehaving peers)
// and run any estimator — built-in or custom — under it. Thin wrapper
// over internal/fault; see that package for the transport semantics
// (request/response traffic retransmits on loss, epidemic push/pull
// traffic loses its payload).

import (
	"errors"
	"fmt"

	"p2psize/internal/fault"
	"p2psize/internal/xrand"
)

// FaultOptions describes one fault scenario: an alias of the fault
// layer's Spec, whose field comments give each knob's range and whose
// Enabled, MessageFaults, Validate and String methods it shares. The
// zero value is the benign no-fault scenario; fields compose freely.
//
// Drop, DelayFactor, Dup, LieScale, LieFrac and NATFrac are
// message-level faults, enforced by the injector ApplyFaults installs,
// the one route by which faults reach an estimator: they apply to any
// estimator on any overlay. SilentFrac and SybilFrac reshape the
// overlay itself — apply them with Network.ApplyAdversary.
// PartitionFrac and its window need a run timeline to split and heal
// across; the robustness-* experiments and the "partition" trace
// workload realize them.
type FaultOptions = fault.Spec

// ParseFaults parses the comma-separated fault scenario grammar
// p2psize -faults accepts:
//
//	drop=0.05            5% of messages are lost
//	delay=2x             message delays doubled ("2" works too)
//	dup=0.01             1% of messages duplicated
//	partition@40-60      half the peers split off for the 40%-60% window
//	partition=0.3@40-60  30% of the peers split off instead
//	lie=10@0.05          5% of peers scale reported sums by 10
//	silent=0.1           10% of peers stop responding without leaving
//	sybil=0.2            20% phantom peers join the overlay
//	nat=0.2              20% of peers unreachable for inbound requests
//
// An empty spec returns the benign zero FaultOptions; repeated keys are
// rejected.
func ParseFaults(spec string) (FaultOptions, error) {
	s, err := fault.ParseSpec(spec)
	if err != nil {
		return FaultOptions{}, fmt.Errorf("p2psize: %w", err)
	}
	return s, nil
}

// ApplyFaults wraps an estimator so every Estimate call runs under the
// scenario's message-level faults: drop (with the request/response vs
// fire-and-forget transport asymmetry), delay pricing, duplication and
// lying peers. The wrapper installs the fault policy on whatever
// network each Estimate call is handed and removes it afterwards, so
// one wrapped estimator composes with views, clones and the monitor's
// replay machinery unchanged. seed drives the injector's fate draws:
// equal (estimator seed, fault seed) pairs give byte-identical runs.
//
// Population-level fields (PartitionFrac, SilentFrac, SybilFrac) are
// not message faults and are ignored here; see FaultOptions.
func ApplyFaults(e Estimator, f FaultOptions, seed uint64) (Estimator, error) {
	if e == nil {
		return nil, errors.New("p2psize: ApplyFaults needs an estimator, got nil")
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("p2psize: %w", err)
	}
	if !f.Enabled() {
		return e, nil
	}
	// A fresh decorator is never a publicWrap, so it lifts without an
	// unwrap.
	return coreWrap{fault.Decorate(toCore(e), fault.NewInjector(f, xrand.New(seed)))}, nil
}

// ApplyAdversary reshapes the overlay per the scenario's node-
// misbehavior fields: SilentFrac of the peers have all their links
// severed but stay alive (they still count toward the true size), and
// SybilFrac × N phantom peers join through the normal attachment rule.
// It returns how many peers were silenced and how many sybils joined.
// The surgery is deterministic in seed and mutates the network, so
// apply it once, before estimating; message-level fields are ignored
// here (see ApplyFaults). It is the one method that changes a Network's
// membership. Inside an Estimator's Estimate, whose Network is
// read-only, it writes nothing and returns an error.
func (n *Network) ApplyAdversary(f FaultOptions, seed uint64) (silenced, sybils int, err error) {
	if n.readOnly {
		return 0, 0, errors.New("p2psize: ApplyAdversary inside Estimate: an estimator may not change the overlay")
	}
	if err := f.Validate(); err != nil {
		return 0, 0, fmt.Errorf("p2psize: %w", err)
	}
	if f.SilentFrac > 0 {
		silenced = len(fault.Silence(n.net, f.SilentFrac, seed))
	}
	if f.SybilFrac > 0 {
		sybils = fault.InflateSybils(n.net, f.SybilFrac, xrand.New(seed+1))
	}
	return silenced, sybils, nil
}
