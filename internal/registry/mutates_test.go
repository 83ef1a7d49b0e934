package registry

import (
	"testing"

	"p2psize/internal/core"
	"p2psize/internal/fault"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// TestMutatesOverlayFlagMatchesCapability pins the catalog's
// MutatesOverlay metadata to the runtime capability the monitor's
// shared-replay grouping actually reads (core.MutatesOverlay on the
// built instance): a descriptor must never advertise a sharing class
// its estimator does not implement, in either direction. The fault
// decorator wraps every estimator the Build chokepoint produces, so it
// is checked too — decoration must forward the capability, not reset
// it to the conservative mutating default.
func TestMutatesOverlayFlagMatchesCapability(t *testing.T) {
	for _, d := range All() {
		t.Run(d.Name, func(t *testing.T) {
			net := testNet(300, 3)
			e, err := d.New(net, xrand.New(4), Options{})
			if err != nil {
				t.Fatalf("factory: %v", err)
			}
			if got := core.MutatesOverlay(e); got != d.MutatesOverlay {
				t.Fatalf("core.MutatesOverlay(%s) = %v, descriptor says %v", d.Name, got, d.MutatesOverlay)
			}
			dec := fault.Decorate(e, fault.NewInjector(fault.Spec{Drop: 0.01}, xrand.New(5)))
			if got := core.MutatesOverlay(dec); got != d.MutatesOverlay {
				t.Fatalf("fault-decorated core.MutatesOverlay(%s) = %v, descriptor says %v", d.Name, got, d.MutatesOverlay)
			}
		})
	}
}

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
		if d.MutatesOverlay {
			mutating++
		} else {
			readOnly++
		}
	}
	if readOnly == 0 || mutating == 0 {
		t.Fatalf("default roster has %d read-only and %d mutating families; the grouping needs both exercised", readOnly, mutating)
	}
}
