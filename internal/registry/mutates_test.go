package registry

import (
	"testing"

	"p2psize/internal/core"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// plainEstimator implements only the bare core.Estimator contract.
type plainEstimator struct{}

func (plainEstimator) Name() string                               { return "plain" }
func (plainEstimator) Estimate(*overlay.Network) (float64, error) { return 1, nil }

func TestUnknownEstimatorIsConservativelyMutating(t *testing.T) {
	if !core.MutatesOverlay(plainEstimator{}) {
		t.Fatal("an estimator without the OverlayMutator capability must default to mutating (never share a clone)")
	}
}

// TestDefaultRosterExercisesBothSharingClasses keeps the head-to-head
// monitoring roster covering both code paths of the shared-replay
// monitor: at least one read-only family (groupable) and at least one
// mutating family (pinned to a private clone).
func TestDefaultRosterExercisesBothSharingClasses(t *testing.T) {
	readOnly, mutating := 0, 0
	for _, name := range DefaultSet() {
		d, ok := Get(name)
		if !ok {
			t.Fatalf("default-set name %q does not resolve", name)
		}
		e, err := d.New(testNet(300, 3), xrand.New(4), Options{})
		if err != nil {
			t.Fatalf("%s factory: %v", name, err)
		}
		if core.MutatesOverlay(e) {
			mutating++
		} else {
			readOnly++
		}
	}
	if readOnly == 0 || mutating == 0 {
		t.Fatalf("default roster has %d read-only and %d mutating families; the grouping needs both exercised", readOnly, mutating)
	}
}
