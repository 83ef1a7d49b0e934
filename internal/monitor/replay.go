package monitor

import (
	"fmt"

	"p2psize/internal/core"
)

// ReplayMode selects how RunScheduled maps estimator instances onto
// overlay clones and trace replays.
type ReplayMode int

const (
	// ReplayPerInstance gives every instance its own COW clone and its
	// own trace replay — the historical default, byte-identical to all
	// pre-existing output.
	ReplayPerInstance ReplayMode = iota
	// ReplayShared groups read-only instances (core.MutatesOverlay
	// reports false) that sample on the same cadence onto one COW
	// clone with one trace.Player — one replay per cadence group
	// instead of per instance, cutting replay work and clone memory
	// from O(instances) to O(groups). At a tick the group's members
	// estimate side by side, each on its own view of the clone (its own
	// counter and fault-policy slot); observing estimators can perturb
	// neither the overlay nor each other, so every series is bit-equal
	// to ReplayPerInstance. Mutating instances keep private clones in
	// both modes.
	ReplayShared
)

// String returns the mode's flag spelling.
func (m ReplayMode) String() string {
	switch m {
	case ReplayPerInstance:
		return "perinstance"
	case ReplayShared:
		return "shared"
	default:
		return fmt.Sprintf("replay(%d)", int(m))
	}
}

// ParseReplayMode parses a -replay flag value; the empty string selects
// the per-instance default.
func ParseReplayMode(s string) (ReplayMode, error) {
	switch s {
	case "", "perinstance", "per-instance":
		return ReplayPerInstance, nil
	case "shared":
		return ReplayShared, nil
	default:
		return 0, fmt.Errorf("monitor: unknown replay mode %q (want perinstance or shared)", s)
	}
}

// replayGroups partitions instance indices into replay groups, each of
// which gets one clone, one trace.Player and one newRNG() generator.
// Per-instance mode yields singleton groups. Shared mode folds
// read-only instances with equal cadences into one group (bit-equal
// cadences produce bit-equal schedules, so every member is due at
// exactly the same ticks); estimators that mutate the overlay — or do
// not declare the core.OverlayMutator capability — stay in singleton
// groups. A group of two or more therefore holds read-only estimators
// alone, which is what lets RunScheduled run its members concurrently
// at a tick. Groups are ordered by first-member index and members keep
// instance order, so the merge of the members' view counters into the
// base overlay's counter is deterministic.
func replayGroups(instances []Instance, cadences []float64, mode ReplayMode) [][]int {
	groups := make([][]int, 0, len(instances))
	if mode != ReplayShared {
		for k := range instances {
			groups = append(groups, []int{k})
		}
		return groups
	}
	byCadence := make(map[float64]int) // read-only cadence -> group index
	for k, in := range instances {
		if core.MutatesOverlay(in.Estimator) {
			groups = append(groups, []int{k})
			continue
		}
		if gi, ok := byCadence[cadences[k]]; ok {
			groups[gi] = append(groups[gi], k)
		} else {
			byCadence[cadences[k]] = len(groups)
			groups = append(groups, []int{k})
		}
	}
	return groups
}
