// Package fault is the deterministic fault and adversary layer between
// the estimators and the overlay. The comparative study measures its
// candidates only under benign churn; this package supplies the degraded
// conditions real deployments exhibit — lossy links, inflated latency,
// duplicated traffic, network partitions, and misbehaving peers — so the
// robustness experiments can rank every estimator family per scenario.
//
// A scenario is a Spec, parsed from the compact grammar p2psize -faults
// accepts ("drop=0.05,delay=2x,partition@40-60"). Message-level faults (drop,
// delay, duplicate) are enforced by an Injector installed on the overlay
// as its fault policy: every metered Send/SendN consults it, so every
// current and future estimator family runs unmodified under faults.
// Transport semantics follow the protocol class: walk, poll and reply
// traffic is request/response — a dropped message is retransmitted
// (extra metered messages plus timeout latency) but the payload always
// arrives — while epidemic push/pull traffic is fire-and-forget, so a
// dropped message loses its payload (the mass-conservation failure mode
// the IPFS measurement literature documents). Node misbehavior (lying
// aggregators, sybil inflation, silent leavers) and partitions are
// graph- or value-level and are applied by the surgery helpers and the
// epidemic protocols' ReportScale consultation.
//
// Determinism contract: all fate draws come from the Injector's seeded
// *xrand.Rand and all misbehavior selection from salted hashes of stable
// node IDs, so equal (Spec, seed, overlay) give byte-identical fault
// sequences at every worker count.
package fault

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// MaxDrop is the largest loss probability a Spec accepts. A reliable
// message is retransmitted round by round until it arrives, so a batch
// of n takes about H_n / -ln(Drop) retransmit rounds, H_n the n-th
// harmonic number: at the ceiling about 1000 rounds for one message and
// 14 400 for a million. Closer to 1 the count has no useful bound
// (drop=0.9999999999999999 would need some 10^16 rounds).
const MaxDrop = 0.999

// Spec describes one fault scenario. The zero value is the benign
// no-fault scenario; fields compose freely.
type Spec struct {
	// Drop is the per-message loss probability in [0, MaxDrop].
	Drop float64
	// DelayFactor multiplies every message delay (latency pricing only;
	// 0 means the neutral 1x).
	DelayFactor float64
	// Dup is the per-message duplication probability in [0, 1]:
	// duplicated messages are metered again but carry no new payload.
	Dup float64
	// PartitionFrac is the fraction of peers split into the minority
	// component during the partition window (0 = no partition).
	PartitionFrac float64
	// PartitionLo and PartitionHi bound the partition window as
	// fractions of the run sequence (or trace horizon) in [0, 1]; the
	// overlay splits at Lo and heals at Hi.
	PartitionLo, PartitionHi float64
	// LieScale is the factor by which lying aggregators scale the sums
	// they report (0 = no liars; honest is 1).
	LieScale float64
	// LieFrac is the fraction of peers that lie (selected by salted
	// hash, so the liar set is stable per scenario seed).
	LieFrac float64
	// SilentFrac is the fraction of peers that silently stop responding:
	// their links are severed but they never depart the alive set, so
	// they still count toward the true size the estimators chase.
	SilentFrac float64
	// SybilFrac inflates the overlay with SybilFrac × N phantom peers
	// that join normally and answer protocols like honest nodes; error
	// is judged against the honest population.
	SybilFrac float64
	// NATFrac is the fraction of peers behind asymmetric (NAT-limited)
	// connectivity: inbound requests to them fail, while their own
	// outbound sends still work. Selected by salted hash, like liars.
	NATFrac float64
}

// Enabled reports whether the spec requests any fault at all.
func (s Spec) Enabled() bool { return s != Spec{} }

// MessageFaults reports whether the spec carries message-level faults
// the Injector enforces (drop, delay, duplicate, lying, NAT).
func (s Spec) MessageFaults() bool {
	return s.Drop > 0 || s.Dup > 0 || (s.DelayFactor > 0 && s.DelayFactor != 1) || s.LieFrac > 0 || s.NATFrac > 0
}

// Validate checks field ranges; the zero value is valid.
func (s Spec) Validate() error {
	// Every range test is written so that NaN fails it.
	switch {
	case !(s.Drop >= 0 && s.Drop <= MaxDrop):
		return fmt.Errorf("fault: drop probability %g outside [0, %g]", s.Drop, MaxDrop)
	case !(s.DelayFactor >= 0 && s.DelayFactor <= math.MaxFloat64):
		return fmt.Errorf("fault: delay factor %g is not a finite non-negative number", s.DelayFactor)
	case !(s.Dup >= 0 && s.Dup <= 1):
		return fmt.Errorf("fault: duplicate probability %g outside [0, 1]", s.Dup)
	case !(s.PartitionFrac >= 0 && s.PartitionFrac < 1):
		return fmt.Errorf("fault: partition fraction %g outside [0, 1)", s.PartitionFrac)
	case !(s.PartitionLo >= 0 && s.PartitionHi <= 1 && s.PartitionLo <= s.PartitionHi):
		return fmt.Errorf("fault: partition window [%g, %g] not inside [0, 1]", s.PartitionLo, s.PartitionHi)
	case s.PartitionFrac > 0 && s.PartitionLo == s.PartitionHi:
		return errors.New("fault: partition window is empty")
	case !(s.LieFrac >= 0 && s.LieFrac <= 1):
		return fmt.Errorf("fault: liar fraction %g outside [0, 1]", s.LieFrac)
	case math.IsNaN(s.LieScale) || math.IsInf(s.LieScale, 0):
		return fmt.Errorf("fault: liar scale %g is not finite", s.LieScale)
	case s.LieFrac > 0 && s.LieScale <= 0:
		return fmt.Errorf("fault: liar scale %g must be positive", s.LieScale)
	case !(s.SilentFrac >= 0 && s.SilentFrac <= 1):
		return fmt.Errorf("fault: silent fraction %g outside [0, 1]", s.SilentFrac)
	case !(s.SybilFrac >= 0 && s.SybilFrac <= 1):
		return fmt.Errorf("fault: sybil fraction %g outside [0, 1]", s.SybilFrac)
	case !(s.NATFrac >= 0 && s.NATFrac < 1):
		return fmt.Errorf("fault: nat fraction %g outside [0, 1)", s.NATFrac)
	}
	return nil
}

// String renders the spec in the ParseSpec grammar (empty for the
// benign scenario). ParseSpec(s.String()) round-trips.
func (s Spec) String() string {
	var parts []string
	add := func(format string, args ...any) { parts = append(parts, fmt.Sprintf(format, args...)) }
	if s.Drop > 0 {
		add("drop=%g", s.Drop)
	}
	if s.DelayFactor > 0 && s.DelayFactor != 1 {
		add("delay=%gx", s.DelayFactor)
	}
	if s.Dup > 0 {
		add("dup=%g", s.Dup)
	}
	if s.PartitionFrac > 0 {
		add("partition=%g@%g-%g", s.PartitionFrac, 100*s.PartitionLo, 100*s.PartitionHi)
	}
	if s.LieFrac > 0 {
		add("lie=%g@%g", s.LieScale, s.LieFrac)
	}
	if s.SilentFrac > 0 {
		add("silent=%g", s.SilentFrac)
	}
	if s.SybilFrac > 0 {
		add("sybil=%g", s.SybilFrac)
	}
	if s.NATFrac > 0 {
		add("nat=%g", s.NATFrac)
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses the comma-separated fault scenario grammar:
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
// An empty spec returns the benign zero Spec. Repeating a key is
// rejected — a pasted-together spec would otherwise silently measure a
// scenario the caller never asked for (the cadence-spec rule).
func ParseSpec(spec string) (Spec, error) {
	var s Spec
	seen := map[string]bool{}
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		key, rest, _ := strings.Cut(f, "=")
		// partition@40-60 carries its window on the key side.
		var window string
		key, window, _ = strings.Cut(key, "@")
		key = strings.ToLower(strings.TrimSpace(key))
		if seen[key] {
			return Spec{}, fmt.Errorf("fault: duplicate %q in spec %q", key, spec)
		}
		seen[key] = true
		switch key {
		case "drop", "dup", "silent", "sybil", "nat":
			v, err := parseProb(key, rest)
			if err != nil {
				return Spec{}, err
			}
			switch key {
			case "drop":
				s.Drop = v
			case "dup":
				s.Dup = v
			case "silent":
				s.SilentFrac = v
			case "sybil":
				s.SybilFrac = v
			case "nat":
				s.NATFrac = v
			}
		case "delay":
			v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), "x"), 64)
			if err != nil {
				return Spec{}, fmt.Errorf("fault: bad delay %q: %w", rest, err)
			}
			s.DelayFactor = v
		case "partition":
			s.PartitionFrac = 0.5
			if rest != "" {
				rest, w, hasW := strings.Cut(rest, "@")
				if hasW {
					window = w
				}
				v, err := parseProb("partition", rest)
				if err != nil {
					return Spec{}, err
				}
				s.PartitionFrac = v
			}
			if window == "" {
				return Spec{}, fmt.Errorf("fault: partition needs a window, e.g. %q", "partition@40-60")
			}
			lo, hi, ok := strings.Cut(window, "-")
			if !ok {
				return Spec{}, fmt.Errorf("fault: bad partition window %q (want lo-hi percentages)", window)
			}
			l, err1 := strconv.ParseFloat(strings.TrimSpace(lo), 64)
			h, err2 := strconv.ParseFloat(strings.TrimSpace(hi), 64)
			if err1 != nil || err2 != nil {
				return Spec{}, fmt.Errorf("fault: bad partition window %q (want lo-hi percentages)", window)
			}
			s.PartitionLo, s.PartitionHi = l/100, h/100
		case "lie":
			scale, frac, hasFrac := strings.Cut(rest, "@")
			v, err := strconv.ParseFloat(strings.TrimSpace(scale), 64)
			if err != nil {
				return Spec{}, fmt.Errorf("fault: bad lie scale %q: %w", scale, err)
			}
			s.LieScale = v
			s.LieFrac = 0.05
			if hasFrac {
				fv, err := parseProb("lie fraction", frac)
				if err != nil {
					return Spec{}, err
				}
				s.LieFrac = fv
			}
		default:
			return Spec{}, fmt.Errorf("fault: unknown key %q in spec %q (want drop, delay, dup, partition, lie, silent, sybil or nat)", key, spec)
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

func parseProb(key, val string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
	if err != nil {
		return 0, fmt.Errorf("fault: bad %s %q: %w", key, val, err)
	}
	if !(v >= 0 && v <= 1) {
		return 0, fmt.Errorf("fault: %s %g outside [0, 1]", key, v)
	}
	return v, nil
}
