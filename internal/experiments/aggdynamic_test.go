package experiments

import (
	"fmt"
	"math"
	"testing"

	"p2psize/internal/aggregation"
	"p2psize/internal/churn"
	"p2psize/internal/metrics"
	"p2psize/internal/xrand"
)

// perCloneAggDynamic is the loop aggDynamic replaced, kept as its
// reference: every process on its own COW clone, each clone replaying
// the scenario with its own runner from the same seed.
func perCloneAggDynamic(t *testing.T, scenario churn.Scenario, p Params, stream uint64) (series []*metrics.Series, messages uint64) {
	t.Helper()
	net := hetNet(p.N100k, p, stream)
	for k := 0; k < 3; k++ {
		clone := net.CloneCOW()
		proto := aggregation.New(aggConfig(1), xrand.New(p.Seed+stream+10+uint64(k)))
		if err := proto.StartEpoch(clone); err != nil {
			t.Fatal(err)
		}
		runner := churn.NewRunner(scenario, xrand.New(p.Seed+stream+1))
		real := &metrics.Series{Name: "Real size"}
		est := &metrics.Series{Name: fmt.Sprintf("Estimation #%d", k+1)}
		for round := 0; round < scenario.TotalSteps; round++ {
			runner.Step(clone, round)
			if clone.Size() == 0 {
				break
			}
			proto.RunRound(clone)
			real.Append(float64(round+1), float64(clone.Size()))
			if (round+1)%epochLen != 0 {
				continue
			}
			v, ok := proto.Estimate(clone)
			if !ok {
				v = math.NaN()
			}
			est.Append(float64(round+1), v)
			if err := proto.StartEpoch(clone); err != nil {
				t.Fatal(err)
			}
		}
		if k == 0 {
			series = append(series, real)
		}
		series = append(series, est)
		net.Counter().Merge(clone.Counter())
	}
	return series, net.Counter().Total()
}

// TestAggDynamicMatchesPerCloneLoop: three processes on metering views
// of ONE clone under ONE runner, forked within each round, produce the
// series and the message total of three private clones replaying the
// scenario three times — at every worker count.
func TestAggDynamicMatchesPerCloneLoop(t *testing.T) {
	p := determinismParams(1)
	want, wantMsgs := perCloneAggDynamic(t, churn.Growing(p.N100k, p.AggHorizon, 0.5), p, 0x1000)
	for _, workers := range []int{1, 2, 8} {
		fig, err := Run("fig16", determinismParams(workers))
		if err != nil {
			t.Fatal(err)
		}
		if fig.Messages != wantMsgs {
			t.Fatalf("workers=%d: %d messages, per-clone loop metered %d", workers, fig.Messages, wantMsgs)
		}
		if len(fig.Series) != len(want) {
			t.Fatalf("workers=%d: %d series, want %d", workers, len(fig.Series), len(want))
		}
		for si, s := range fig.Series {
			w := want[si]
			if s.Name != w.Name || s.Len() != w.Len() {
				t.Fatalf("workers=%d: series %d is %q with %d points, want %q with %d",
					workers, si, s.Name, s.Len(), w.Name, w.Len())
			}
			for i := range s.Y {
				if s.X[i] != w.X[i] || math.Float64bits(s.Y[i]) != math.Float64bits(w.Y[i]) {
					t.Fatalf("workers=%d: %q point %d = (%g, %g), per-clone loop has (%g, %g)",
						workers, s.Name, i, s.X[i], s.Y[i], w.X[i], w.Y[i])
				}
			}
		}
	}
}
