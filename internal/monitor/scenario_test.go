package monitor

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"p2psize/internal/aggregation"
	"p2psize/internal/churn"
	"p2psize/internal/core"
	"p2psize/internal/hopssampling"
	"p2psize/internal/overlay"
	"p2psize/internal/samplecollide"
	"p2psize/internal/xrand"
)

// failEvery fails every n-th call without consulting the wrapped
// estimator; like the estimator it wraps it only observes the overlay.
type failEvery struct {
	core.Estimator
	n, calls int
}

func (e *failEvery) Estimate(net *overlay.Network) (float64, error) {
	if e.calls++; e.calls%e.n == 0 {
		return 0, errors.New("scheduled failure")
	}
	return e.Estimator.Estimate(net)
}
func (*failEvery) MutatesOverlay() bool { return false }

// scenarioSequential is the reference RunScenario is compared against:
// one overlay, mutated in place step by step, every instance polled in
// turn on it each `every` steps, its traffic read as the counter delta
// around the call.
func scenarioSequential(instances []core.Estimator, net *overlay.Network, sc churn.Scenario, every int, rng *xrand.Rand) *Result {
	res := &Result{
		Raw:      make([][]float64, len(instances)),
		Failures: make([]int, len(instances)),
		Messages: make([]uint64, len(instances)),
	}
	runner := churn.NewRunner(sc, rng)
	for step := 0; step < sc.TotalSteps; step++ {
		runner.Step(net, step)
		if (step+1)%every != 0 {
			continue
		}
		res.Times = append(res.Times, float64(step+1))
		res.TrueSizes = append(res.TrueSizes, float64(net.Size()))
		for k, e := range instances {
			before := net.Counter().Total()
			est, err := e.Estimate(net)
			res.Messages[k] += net.Counter().Total() - before
			if err != nil {
				res.Failures[k]++
				est = math.NaN()
			}
			res.Raw[k] = append(res.Raw[k], est)
		}
	}
	return res
}

// TestRunScenarioMatchesSequential pins the strongest guarantee of the
// step-clock entry: one trunk, forked ticks and all, it reproduces the
// sequential loop bit for bit, because every instance reads the
// identical trajectory and its own rng consumes the same draws as in
// the sequential interleaving.
func TestRunScenarioMatchesSequential(t *testing.T) {
	const n = 800
	sc := churn.Catastrophic(n, 63)
	// Three observe-only instances (one failing on a schedule) count as
	// one group; Aggregation declares itself mutating and counts alone.
	build := func() []core.Estimator {
		return []core.Estimator{
			samplecollide.New(samplecollide.Config{T: 10, L: 20}, xrand.New(100)),
			hopssampling.New(hopssampling.Default(), xrand.New(101)),
			&failEvery{Estimator: samplecollide.New(samplecollide.Config{T: 10, L: 10}, xrand.New(102)), n: 3},
			aggregation.NewEstimator(aggregation.Config{RoundsPerEpoch: 8, Workers: 1}, xrand.New(103)),
		}
	}
	for _, every := range []int{1, 7} {
		seqNet := testNet(n, 6)
		seq := scenarioSequential(build(), seqNet, sc, every, xrand.New(55))
		if seq.Failures[2] == 0 {
			t.Fatalf("every=%d: the scheduled failures never fired", every)
		}
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("every=%d/workers=%d", every, workers), func(t *testing.T) {
				ests := build()
				ins := make([]Instance, len(ests))
				for k, e := range ests {
					ins[k] = Instance{Estimator: e}
				}
				parNet := testNet(n, 6)
				par, err := RunScenario(ins, parNet, sc, Config{Cadence: float64(every)},
					func() *xrand.Rand { return xrand.New(55) }, workers)
				if err != nil {
					t.Fatal(err)
				}
				if par.Groups != 2 {
					t.Fatalf("Groups = %d, want 2", par.Groups)
				}
				if !sameSeries(par.Times, seq.Times) || !sameSeries(par.TrueSizes, seq.TrueSizes) {
					t.Fatalf("trajectory diverges:\n%v %v\n%v %v", par.Times, par.TrueSizes, seq.Times, seq.TrueSizes)
				}
				for k := range ests {
					if !sameSeries(par.Raw[k], seq.Raw[k]) {
						t.Fatalf("instance %d raw series diverges:\n%v\n%v", k, par.Raw[k], seq.Raw[k])
					}
					if par.Failures[k] != seq.Failures[k] || par.Messages[k] != seq.Messages[k] {
						t.Fatalf("instance %d: failures %d vs %d, messages %d vs %d",
							k, par.Failures[k], seq.Failures[k], par.Messages[k], seq.Messages[k])
					}
				}
				// The sequential run mutates its overlay; the step-clock entry
				// must leave its input untouched and merge the same traffic.
				if parNet.Size() != n {
					t.Fatalf("input overlay mutated to %d nodes", parNet.Size())
				}
				if parNet.Counter().Total() != seqNet.Counter().Total() {
					t.Fatalf("merged traffic %d vs sequential %d", parNet.Counter().Total(), seqNet.Counter().Total())
				}
			})
		}
	}
}
