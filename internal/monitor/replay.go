package monitor

import "p2psize/internal/core"

// replayGroups partitions instance indices into replay groups, each of
// which gets one clone, one replay (a trace.Player or a churn.Runner)
// and one newRNG() generator — replay work and clone memory are
// O(groups), not O(instances).
// Read-only instances (core.MutatesOverlay reports false) with equal
// cadences fold into one group (bit-equal cadences produce bit-equal
// schedules, so every member is due at exactly the same ticks);
// estimators that mutate the overlay — or do not declare the
// core.OverlayMutator capability — stay in singleton groups. A group of
// two or more therefore holds read-only estimators alone, which is what
// lets the sampling loop run its members concurrently at a tick:
// observing estimators can perturb neither the overlay nor each other,
// so every series is bit-equal to what the instance produces on a
// private clone.
// Groups are ordered by first-member index and members keep instance
// order, so the merge of the members' view counters into the base
// overlay's counter is deterministic.
func replayGroups(instances []Instance, cadences []float64) [][]int {
	groups := make([][]int, 0, len(instances))
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
