package monitor

import "p2psize/internal/core"

// replayGroups is the count RunScheduled and RunScenario report as
// Result.Groups: one per cadence class of instances that deny the
// core.OverlayMutator capability (bit-equal cadences produce bit-equal
// schedules), and one per instance that declares it or does not say.
// It chooses nothing — every instance estimates on a view of the run's
// one trunk — and stays only because the benchmark's pinned gossip
// event count is Groups times the trace's events; it goes with that
// re-pin.
func replayGroups(instances []Instance, cadences []float64) int {
	groups := 0
	readOnly := make(map[float64]bool) // cadence classes seen
	for k, in := range instances {
		if core.MutatesOverlay(in.Estimator) {
			groups++
		} else if !readOnly[cadences[k]] {
			readOnly[cadences[k]] = true
			groups++
		}
	}
	return groups
}
