package monitor

import "p2psize/internal/core"

// replayGroups counts the replay groups a replayed run reports
// (Result.Groups): one per cadence class of read-only instances
// (core.MutatesOverlay reports false; bit-equal cadences produce
// bit-equal schedules, so a class is due at exactly the same ticks),
// and one per instance that mutates the overlay or does not declare
// the core.OverlayMutator capability. Every group reads the run's one
// replay: read-only instances on views of the trunk, each mutator on a
// per-tick COW clone of it, which its estimate may not write.
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
