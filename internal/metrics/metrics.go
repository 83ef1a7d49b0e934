// Package metrics implements the cost-accounting side of the comparative
// study. The paper's simulator "counts the messages over the network"; the
// Counter here is that meter, broken down by message kind so that the
// per-algorithm overhead decomposition of §IV-E (spread messages, reply
// messages, random-walk hops, push/pull exchanges) can be reported.
package metrics

import (
	"fmt"
	"strings"
)

// Kind labels a category of simulated message for overhead accounting.
type Kind uint8

// Message kinds used by the three candidate algorithms.
const (
	// KindWalk is one hop of a Sample&Collide random walk.
	KindWalk Kind = iota
	// KindSampleReturn is a sampled node reporting its id to the initiator.
	KindSampleReturn
	// KindGossipSpread is one HopsSampling poll-dissemination message.
	KindGossipSpread
	// KindReply is one HopsSampling response message (or one hop of a
	// routed response).
	KindReply
	// KindPush is the push half of an Aggregation exchange.
	KindPush
	// KindPull is the pull half of an Aggregation exchange.
	KindPull
	// KindControl is protocol control traffic (epoch restarts, probes).
	KindControl
	// NumKinds is the number of defined kinds: every valid Kind is below
	// it, so a [NumKinds] array holds one slot per kind.
	NumKinds
)

var kindNames = [NumKinds]string{
	"walk", "sample-return", "gossip-spread", "reply", "push", "pull", "control",
}

// AllKinds returns every defined message kind.
func AllKinds() []Kind {
	out := make([]Kind, NumKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// String returns the human-readable kind label.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Counter tallies messages by kind. The zero value is ready to use.
// It is not safe for concurrent use; simulations are single-threaded per
// experiment and parallel experiments own separate counters.
type Counter struct {
	counts [NumKinds]uint64
}

// Inc records one message of the given kind.
func (c *Counter) Inc(k Kind) { c.counts[k]++ }

// Add records n messages of the given kind.
func (c *Counter) Add(k Kind, n uint64) { c.counts[k] += n }

// Count returns the number of messages recorded for kind k.
func (c *Counter) Count(k Kind) uint64 { return c.counts[k] }

// Total returns the number of messages recorded across all kinds —
// the paper's overhead figure for an estimation.
func (c *Counter) Total() uint64 {
	var t uint64
	for _, v := range c.counts {
		t += v
	}
	return t
}

// Reset zeroes all counts.
func (c *Counter) Reset() { c.counts = [NumKinds]uint64{} }

// Snapshot returns a copy of the counter, for before/after deltas.
func (c *Counter) Snapshot() Counter { return *c }

// Merge adds the counts of o into c.
func (c *Counter) Merge(o *Counter) {
	for k := range c.counts {
		c.counts[k] += o.counts[k]
	}
}

// String renders the nonzero counts, sorted by kind, e.g.
// "walk=480000 sample-return=6300 (total 486300)".
func (c *Counter) String() string {
	var parts []string
	for k := Kind(0); k < NumKinds; k++ {
		if c.counts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, c.counts[k]))
		}
	}
	if len(parts) == 0 {
		return "(no messages)"
	}
	return fmt.Sprintf("%s (total %d)", strings.Join(parts, " "), c.Total())
}

// Series records an (x, y) time series for one plotted curve, e.g.
// estimation quality against estimation index or round number.
type Series struct {
	Name string
	X, Y []float64
}

// Append adds one point to the series.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }
