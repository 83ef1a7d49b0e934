package trace

import (
	"math"
	"testing"

	"p2psize/internal/model"
	"p2psize/internal/xrand"
)

// FuzzGenerate draws small workload configs and compositor arguments,
// non-finite values included. Nothing may panic or hang; a config or an
// argument is either an error or accepted, and an accepted trace must
// be valid and equal to the model's generator followed by the model's
// compositors, generator position included (a rejected composition
// leaves the trace alone and is skipped).
func FuzzGenerate(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(uint16(300), uint8(1), 100.0, 0.0, 60.0, 0.5, 0.0, 0.0, uint64(1), uint8(1),
		30.0, 50, 5.0, 70.0, 0.25, 20.0, 60.0, 0.5)
	f.Add(uint16(9000), uint8(0), 50.0, 80.0, 50.0, 0.0, 0.6, 10.0, uint64(2), uint8(3),
		15.0, 2000, 0.0, 35.0, 1.0, 0.0, 50.0, 1.0)
	f.Add(uint16(40), uint8(3), 10.0, 3.0, 2.0, 1.5, 0.0, 0.0, uint64(3), uint8(2),
		10.0, 7, 1e-15, 10.0, 0.0, 9.0, 10.0, 0.1)
	f.Add(uint16(200), uint8(2), nan, 0.0, 60.0, 1.5, 0.0, 0.0, uint64(4), uint8(1),
		nan, -1, nan, nan, nan, nan, nan, nan)
	f.Add(uint16(200), uint8(0), 100.0, inf, 60.0, 0.0, 0.0, 0.0, uint64(5), uint8(1),
		inf, math.MaxInt, inf, -inf, inf, -1.0, inf, -inf)
	f.Add(uint16(200), uint8(1), 100.0, 1e300, inf, 0.5, nan, inf, uint64(6), uint8(1),
		50.0, math.MaxInt32, 5.0, 50.0, 0.5, 50.0, 40.0, 0.5)
	f.Add(uint16(200), uint8(1), 100.0, 0.0, 5e-324, 1e-300, 0.0, 0.0, uint64(7), uint8(1),
		50.0, 10, -5.0, 100.0, 0.5, 99.0, 100.0, 0.5)
	f.Fuzz(func(t *testing.T, initial uint16, kind uint8, horizon, rate, mean, shape, amp, period float64,
		seed uint64, workers uint8, crowdAt float64, count int, crowdMean, failAt, failFrac, splitAt, healAt, partFrac float64) {
		cfg := Config{
			Initial:          int(initial % 20000),
			Horizon:          horizon,
			ArrivalRate:      rate,
			Session:          SessionDist{Kind: SessionKind(kind % 5), Mean: mean, Shape: shape},
			DiurnalAmplitude: amp,
			DiurnalPeriod:    period,
		}
		// Keep accepted workloads small; validate's own bound is what
		// keeps the rest from running away.
		if cfg.validate() == nil && float64(cfg.Initial)+cfg.arrivalRate()*cfg.Horizon > 50000 {
			return
		}
		got, err := GenerateParallel(cfg, seed, int(workers%4)+1)
		if err != nil {
			return
		}
		want := model.Generate(workload(cfg), seed)
		if err := sameEvents(got.Events, want.Events); err != nil {
			t.Fatalf("generated: %v", err)
		}
		if count > 5000 && count <= math.MaxInt32-got.Sessions() {
			count %= 5000
		}
		crowd := SessionDist{Kind: Pareto, Mean: crowdMean, Shape: 1.5}
		composeBoth(t, "AddFlashCrowd", got, want, seed,
			func(tr *Trace, rng *xrand.Rand) error { return tr.AddFlashCrowd(crowdAt, count, crowd, rng) },
			func(tr *model.Trace, rng *xrand.Rand) {
				tr.FlashCrowd(crowdAt, count, int(Pareto), crowdMean, 1.5, rng)
			})
		composeBoth(t, "AddMassFailure", got, want, seed+1,
			func(tr *Trace, rng *xrand.Rand) error { return tr.AddMassFailure(failAt, failFrac, rng) },
			func(tr *model.Trace, rng *xrand.Rand) { tr.MassFailure(failAt, failFrac, rng) })
		composeBoth(t, "AddPartitionHeal", got, want, seed+2,
			func(tr *Trace, rng *xrand.Rand) error { return tr.AddPartitionHeal(splitAt, healAt, partFrac, rng) },
			func(tr *model.Trace, rng *xrand.Rand) { tr.PartitionHeal(splitAt, healAt, partFrac, rng) })
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted trace is invalid: %v", err)
		}
	})
}
