package monitor

// Concurrent-estimate tests: the instances due at a tick estimate at
// the same moment (two members inside Estimate at once), each on a view
// of its own, whose counter and fault-policy slot no neighbour sees; an
// estimator's error stays its own counted failure, and its panic fails
// the run. CI runs them under -race -count=10.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2psize/internal/core"
	"p2psize/internal/fault"
	"p2psize/internal/hopssampling"
	"p2psize/internal/overlay"
	"p2psize/internal/polling"
	"p2psize/internal/samplecollide"
	"p2psize/internal/xrand"
)

// barrier is a reusable rendezvous: await returns true once n callers
// are waiting in it together, false if the others never come.
type barrier struct {
	mu      sync.Mutex
	n       int
	waiting int
	release chan struct{}
}

func newBarrier(n int) *barrier { return &barrier{n: n, release: make(chan struct{})} }

func (b *barrier) await() bool {
	b.mu.Lock()
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		close(b.release)
		b.release = make(chan struct{})
		b.mu.Unlock()
		return true
	}
	release := b.release
	b.mu.Unlock()
	select {
	case <-release:
		return true
	case <-time.After(30 * time.Second): // a failure report, not a pacing device
		return false
	}
}

// gate counts the estimators inside Estimate and holds each one there
// until the barrier's whole party has arrived.
type gate struct {
	inside, high atomic.Int32
	together     *barrier
}

type gated struct {
	name string
	g    *gate
}

func (e gated) Name() string { return e.name }

func (e gated) Estimate(net *overlay.Network) (float64, error) {
	in := e.g.inside.Add(1)
	defer e.g.inside.Add(-1)
	for {
		h := e.g.high.Load()
		if in <= h || e.g.high.CompareAndSwap(h, in) {
			break
		}
	}
	if !e.g.together.await() {
		return 0, errors.New("gate: the other member never entered Estimate")
	}
	return float64(net.Size()), nil
}

// TestTickForkRunsMembersConcurrently: with two workers or more, both
// members of a run are inside Estimate at the same moment — each one
// is held there until the other arrives, so a sequential tick could not
// finish. With one worker the high-water mark is exactly 1.
func TestTickForkRunsMembersConcurrently(t *testing.T) {
	for _, tc := range []struct{ workers, party, wantHigh int }{
		{1, 1, 1}, {2, 2, 2}, {8, 2, 2},
	} {
		g := &gate{together: newBarrier(tc.party)}
		res, _ := runReplay(t, []Instance{{Estimator: gated{"a", g}}, {Estimator: gated{"b", g}}},
			tc.workers)
		if f := res.Failures[0] + res.Failures[1]; f != 0 {
			t.Fatalf("workers=%d: %d estimations never met their partner", tc.workers, f)
		}
		if high := int(g.high.Load()); high != tc.wantHigh {
			t.Fatalf("workers=%d: %d members in flight at once, want %d", tc.workers, high, tc.wantHigh)
		}
	}
}

// policyProbe fails when the overlay it is handed carries a fault
// policy: an undecorated member must never see a neighbour's.
type policyProbe struct{}

func (policyProbe) Name() string { return "policy-probe" }
func (policyProbe) Estimate(net *overlay.Network) (float64, error) {
	if net.FaultPolicy() != nil {
		return 0, errors.New("policy-probe: a neighbour's fault policy is installed on this view")
	}
	return float64(net.Size()), nil
}

// faultRoster is a Sample&Collide, a Hops Sampling — decorated with a
// lossy, duplicating, NAT-limited injector when faulty is set — a
// polling flood and a policy probe, all on the default cadence.
func faultRoster(faulty bool) []Instance {
	var hops core.Estimator = hopssampling.New(hopssampling.Default(), xrand.New(72))
	if faulty {
		inj := fault.NewInjector(fault.Spec{Drop: 0.2, Dup: 0.1, NATFrac: 0.1}, xrand.New(73))
		hops = fault.Decorate(hops, inj)
	}
	return []Instance{
		{Estimator: samplecollide.New(samplecollide.Config{T: 5, L: 20}, xrand.New(71))},
		{Estimator: hops},
		{Estimator: polling.New(xrand.New(74))},
		{Estimator: policyProbe{}},
	}
}

// TestTickForkFaultPolicyStaysOnItsView: a fault.Decorate'd member
// meters and estimates at workers 2 and 8 exactly as at workers 1, where
// its injector changes its traffic, and its neighbours read exactly
// what they read beside an undecorated one.
func TestTickForkFaultPolicyStaysOnItsView(t *testing.T) {
	const decorated = 1
	want, _ := runReplay(t, faultRoster(true), 1)
	benign, _ := runReplay(t, faultRoster(false), 1)
	if want.Messages[decorated] == benign.Messages[decorated] {
		t.Fatalf("the injector changed nothing: %d messages with and without faults", want.Messages[decorated])
	}
	for _, workers := range []int{1, 2, 8} {
		got := want
		if workers > 1 {
			got, _ = runReplay(t, faultRoster(true), workers)
			assertSameResult(t, want, got)
		}
		for k := range got.Names {
			if got.Failures[k] != 0 {
				t.Fatalf("workers=%d: %s failed %d times", workers, got.Names[k], got.Failures[k])
			}
			if k == decorated {
				continue
			}
			if !sameSeries(got.Raw[k], benign.Raw[k]) || got.Messages[k] != benign.Messages[k] {
				t.Fatalf("workers=%d: %s reads differently beside a decorated member", workers, got.Names[k])
			}
		}
	}
}

// failsAt errors on its n-th estimation and reports the truth otherwise.
type failsAt struct{ n, calls int }

func (*failsAt) Name() string { return "fails-once" }
func (e *failsAt) Estimate(net *overlay.Network) (float64, error) {
	if e.calls++; e.calls == e.n {
		return 0, errors.New("fails-once: no answer this tick")
	}
	return float64(net.Size()), nil
}

// TestTickForkMemberErrorIsItsOwnFailure: an estimator's error is one
// counted failure of that member; the members around it serve the
// series they serve beside a member that never fails.
func TestTickForkMemberErrorIsItsOwnFailure(t *testing.T) {
	roster := func(middle Instance) []Instance {
		return []Instance{
			{Estimator: samplecollide.New(samplecollide.Config{T: 5, L: 20}, xrand.New(81))},
			middle,
			{Estimator: polling.New(xrand.New(82))},
		}
	}
	want, _ := runReplay(t, roster(Instance{Estimator: roTruth{"never-fails"}}), 1)
	for _, workers := range []int{1, 2, 8} {
		got, _ := runReplay(t, roster(Instance{Estimator: &failsAt{n: 2}}), workers)
		if got.Failures[0] != 0 || got.Failures[1] != 1 || got.Failures[2] != 0 {
			t.Fatalf("workers=%d: failures %v, want [0 1 0]", workers, got.Failures)
		}
		if got.Scheduled[1] != len(got.Times) {
			t.Fatalf("workers=%d: the failing member made %d of %d estimations", workers, got.Scheduled[1], len(got.Times))
		}
		for _, k := range []int{0, 2} {
			if !sameSeries(got.Raw[k], want.Raw[k]) || !sameSeries(got.Smoothed[k], want.Smoothed[k]) ||
				got.Messages[k] != want.Messages[k] {
				t.Fatalf("workers=%d: %s moved beside a failing member", workers, got.Names[k])
			}
		}
	}
}

type panics struct{}

func (panics) Name() string { return "panics" }
func (panics) Estimate(*overlay.Network) (float64, error) {
	panic("estimator bug: boom")
}

// TestTickForkMemberPanicFailsTheRun: a panic inside a forked Estimate
// reaches RunScheduled's caller — it is not swallowed by the pool and
// not turned into a counted failure.
func TestTickForkMemberPanicFailsTheRun(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		func() {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatalf("workers=%d: the run returned although a member panicked", workers)
				}
				if msg := fmt.Sprint(v); !strings.Contains(msg, "boom") {
					t.Fatalf("workers=%d: panic lost the estimator's value: %s", workers, msg)
				}
			}()
			const n = 400
			_, _ = RunScheduled([]Instance{{Estimator: roTruth{"ro"}}, {Estimator: panics{}}},
				testNet(n, 22), testTrace(t, n), Config{Cadence: 20},
				func() *xrand.Rand { return xrand.New(23) }, workers)
		}()
	}
}
