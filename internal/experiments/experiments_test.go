package experiments

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// testParams shrinks the workloads so the full suite runs in seconds
// while keeping every protocol parameter at the paper's value. The node
// floor matters: Sample&Collide with l=200 needs l << N (it draws
// X ≈ sqrt(2lN) samples), so the "100k" network must stay at 10k nodes
// or the birthday estimator saturates and reads high.
func testParams() Params {
	p := Scaled(10) // N100k -> 10000, N1M -> 100000
	p.SCRuns = 30
	p.SCRuns1M = 8
	p.HopsRuns = 30
	p.HopsRuns1M = 8
	p.Fig18Runs = 20
	p.TableRuns = 12
	return p
}

func TestScaledFloors(t *testing.T) {
	p := Scaled(1000000)
	if p.N100k < 1000 || p.N1M < 2000 {
		t.Fatalf("floors not applied: %+v", p)
	}
	if p.AggHorizon < 20*p.EpochLen {
		t.Fatalf("agg horizon too short: %d", p.AggHorizon)
	}
	if d := Scaled(1); d.N100k != 100000 {
		t.Fatalf("Scaled(1) changed defaults: %+v", d)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ext-classes", "ext-cyclon", "ext-delay", "ext-walks",
		"fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
		"fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18",
		"robustness-adversary", "robustness-delay", "robustness-drop",
		"robustness-dup", "robustness-nat", "robustness-partition",
		"static-new", "table1",
		"trace-diurnal", "trace-flashcrowd", "trace-ipfs", "trace-ipfs-all", "trace-weibull",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if _, ok := Get("fig01"); !ok {
		t.Fatal("Get(fig01) failed")
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("Get(nope) succeeded")
	}
	if _, err := Run("nope", testParams()); err == nil {
		t.Fatal("Run(nope) succeeded")
	}
}

func TestFig01SampleCollideStatic(t *testing.T) {
	fig, err := fig01(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series count = %d", len(fig.Series))
	}
	lastK, oneShot := fig.Series[0], fig.Series[1]
	if lastK.Name != "Last 10 runs" || oneShot.Name != "one shot" {
		t.Fatalf("series names: %q, %q", lastK.Name, oneShot.Name)
	}
	// Paper: oneShot mostly within 10%, peaks to 20%; last10runs within
	// 3-4%. Allow slack at reduced scale.
	tail := lastK.Y[len(lastK.Y)/2:]
	for _, q := range tail {
		if math.Abs(q-100) > 15 {
			t.Fatalf("last10runs quality %g drifted far from 100", q)
		}
	}
}

func TestFig02Scales(t *testing.T) {
	fig, err := fig02(testParams())
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	lastK := fig.Series[0]
	if lastK.Len() != p.SCRuns1M {
		t.Fatalf("points = %d", lastK.Len())
	}
	// Paper: Sample&Collide stays unbiased at the large size, its
	// last10runs within a few percent of the truth. Seeds 1–5 keep
	// every point in 96–108 %.
	for i, q := range lastK.Y {
		if q < 85 || q > 115 {
			t.Fatalf("lastK quality %.1f%% at estimation %d, want 85–115%%", q, i+1)
		}
	}
}

func TestFig03HopsUnderestimates(t *testing.T) {
	fig, err := fig03(testParams())
	if err != nil {
		t.Fatal(err)
	}
	lastK := fig.Series[0]
	// Paper: consistent tendency for under-estimation (≈ -20%),
	// last10runs within a 20% band. Allow the band to widen at scale.
	var sum float64
	for _, q := range lastK.Y {
		sum += q
	}
	mean := sum / float64(len(lastK.Y))
	if mean > 102 {
		t.Fatalf("HopsSampling mean quality %.1f%%: expected under-estimation", mean)
	}
	if mean < 55 {
		t.Fatalf("HopsSampling mean quality %.1f%%: too low", mean)
	}
	// Reached-fraction note present.
	found := false
	for _, n := range fig.Notes {
		if strings.Contains(n, "reached") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing reached-fraction note: %v", fig.Notes)
	}
}

func TestFig05AggregationConverges(t *testing.T) {
	fig, err := fig05(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("want 3 estimations, got %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		final := s.Y[s.Len()-1]
		if math.Abs(final-100) > 3 {
			t.Fatalf("%s final quality %.1f%%, want ≈100%%", s.Name, final)
		}
		// Starts near zero (initiator estimate 1 out of 1000).
		if s.Y[0] > 5 {
			t.Fatalf("%s starts at %.1f%%, want ≈0", s.Name, s.Y[0])
		}
	}
}

// TestFig06AggConverges is fig06's claim at Scaled(12): the paper's
// Aggregation reaches the size of a static network in a few tens of
// rounds (≈50 at 1M nodes), and stays there. The 83k-node overlay runs
// on 16 shards, so most exchanges go through the engine's tournament.
// Seeds 1–5 bring every estimation within 1 % of the truth for good
// from round 33–55 (the figure's notes read "within 1% of truth from
// round N"), and none is above 3 % at round 10 (the test allows 50).
func TestFig06AggConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("three 100-round epochs on 83k nodes (over a minute under -race)")
	}
	const settled = 60
	p := Scaled(12)
	fig, err := fig06(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("want 3 estimations, got %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if s.Len() != p.AggStaticRounds+1 {
			t.Fatalf("%s has %d points, want %d", s.Name, s.Len(), p.AggStaticRounds+1)
		}
		if q := s.Y[10]; q >= 50 {
			t.Fatalf("%s already at %.1f%% in round 10: the epoch did not start from one initiator", s.Name, q)
		}
		for r := settled; r < s.Len(); r++ {
			if q := s.Y[r]; q < 99 || q > 101 {
				t.Fatalf("%s at %.2f%% in round %d, want within 1%% of the truth from round %d", s.Name, q, r, settled)
			}
		}
	}
}

func TestFig07ScaleFreeDistribution(t *testing.T) {
	fig, err := fig07(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if !fig.LogLog {
		t.Fatal("fig07 must be log-log")
	}
	s := fig.Series[0]
	// Minimum degree is m=3; the hub is far above the average of ≈6.
	if s.X[0] < 3 {
		t.Fatalf("min degree %g < 3", s.X[0])
	}
	maxDeg := s.X[s.Len()-1]
	if maxDeg < 30 {
		t.Fatalf("max degree %g: no heavy tail", maxDeg)
	}
}

func TestFig08AllThreeOnScaleFree(t *testing.T) {
	fig, err := fig08(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	byName := map[string]float64{}
	for _, s := range fig.Series {
		var sum float64
		for _, q := range s.Y {
			sum += q
		}
		byName[s.Name] = sum / float64(s.Len())
	}
	// Paper: S&C unbiased on scale-free, Aggregation accurate, Hops
	// under-estimation amplified.
	if math.Abs(byName["Sample&collide"]-100) > 15 {
		t.Fatalf("S&C mean quality %.1f%% on scale-free", byName["Sample&collide"])
	}
	if math.Abs(byName["Aggregation"]-100) > 5 {
		t.Fatalf("Aggregation mean quality %.1f%%", byName["Aggregation"])
	}
	if byName["HopsSampling"] > byName["Sample&collide"] {
		t.Fatalf("Hops (%.1f%%) not below S&C (%.1f%%) on scale-free",
			byName["HopsSampling"], byName["Sample&collide"])
	}
}

func TestFig09CatastrophicTracking(t *testing.T) {
	fig, err := fig09(testParams())
	if err != nil {
		t.Fatal(err)
	}
	real := fig.Series[0]
	if real.Name != "Real network size" {
		t.Fatalf("first series = %q", real.Name)
	}
	// The catastrophe schedule must actually shrink the real size.
	lo, hi := slices.Min(real.Y), slices.Max(real.Y)
	if lo >= hi || lo > 0.8*real.Y[0] {
		t.Fatalf("real size never dropped: range [%g, %g]", lo, hi)
	}
	// Estimates exist for 3 instances and roughly track (paper: "reacts
	// very well to changes").
	for k := 1; k <= 3; k++ {
		est := fig.Series[k]
		bad := 0
		for i := range est.Y {
			if math.IsNaN(est.Y[i]) || math.Abs(est.Y[i]-real.Y[i])/real.Y[i] > 0.5 {
				bad++
			}
		}
		if bad > est.Len()/4 {
			t.Fatalf("instance %d off-track at %d/%d points", k, bad, est.Len())
		}
	}
}

func TestFig10GrowingAndFig11Shrinking(t *testing.T) {
	grow, err := fig10(testParams())
	if err != nil {
		t.Fatal(err)
	}
	gr := grow.Series[0]
	if gr.Y[gr.Len()-1] <= gr.Y[0] {
		t.Fatal("growing scenario did not grow")
	}
	shrink, err := fig11(testParams())
	if err != nil {
		t.Fatal(err)
	}
	sr := shrink.Series[0]
	if sr.Y[sr.Len()-1] >= sr.Y[0] {
		t.Fatal("shrinking scenario did not shrink")
	}
}

func TestFig12HopsDynamic(t *testing.T) {
	fig, err := fig12(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	// ~100 estimation points over the horizon.
	real := fig.Series[0]
	n := real.Len()
	if n < 50 {
		t.Fatalf("only %d points", n)
	}
	// The recovery wave at 80% of the horizon adds n0/4 peers to the
	// 0.5625·n0 the two failures left: the true size grows by +44%.
	// Each curve's last10runs window holds only trough samples just
	// before the wave and only recovered ones at the end.
	trough, end := n*8/10-1, n-1
	if g := real.Y[end] / real.Y[trough]; g < 1.35 || g > 1.55 {
		t.Fatalf("true size %v -> %v (x%.2f), want the wave's +44%%", real.Y[trough], real.Y[end], g)
	}
	// The estimates rise with it. Seeds 1–5 lift every curve (by x1.15
	// or more) and the three curves' mean by x1.48–2.22.
	var before, after float64
	for k, est := range fig.Series[1:] {
		if est.Y[end] <= est.Y[trough] {
			t.Errorf("estimation #%d fell across the recovery wave: %.0f -> %.0f", k+1, est.Y[trough], est.Y[end])
		}
		before += est.Y[trough]
		after += est.Y[end]
	}
	if after < 1.25*before {
		t.Fatalf("mean last10runs estimate %.0f -> %.0f (x%.2f), want it to rise at least x1.25 with the true size",
			before/3, after/3, after/before)
	}
}

func TestTrackingErrorAllFailed(t *testing.T) {
	if te := trackingError([]float64{math.NaN()}, []float64{100}); !math.IsNaN(te) {
		t.Fatalf("trackingError = %g, want NaN", te)
	}
	// Gaps and an empty overlay are skipped, not averaged in.
	if te := trackingError([]float64{110, math.NaN(), 5}, []float64{100, 100, 0}); math.Abs(te-10) > 1e-9 {
		t.Fatalf("trackingError = %g, want 10", te)
	}
}

func TestFig15AggCatastrophic(t *testing.T) {
	fig, err := fig15(testParams())
	if err != nil {
		t.Fatal(err)
	}
	real := fig.Series[0]
	if real.Len() == 0 {
		t.Fatal("no epoch points")
	}
	// Real size path: -25%, -25%, +25% of n0. Depending on how the scaled
	// horizon aligns with epoch boundaries the first recorded point may
	// already include a shock, so assert the shocks are visible in the
	// range rather than comparing endpoints.
	lo, hi := slices.Min(real.Y), slices.Max(real.Y)
	if lo > 0.85*hi {
		t.Fatalf("failure shocks not visible in real size: range [%g, %g]", lo, hi)
	}
	// Estimates must exist and be finite for most epochs in the growing
	// phase; under failures some loss is expected and acceptable.
	est := fig.Series[1]
	finite := 0
	for _, y := range est.Y {
		if !math.IsNaN(y) {
			finite++
		}
	}
	if finite < est.Len()/2 {
		t.Fatalf("estimation #1 usable at only %d/%d epochs", finite, est.Len())
	}
}

func TestFig16AggGrowingTracks(t *testing.T) {
	fig, err := fig16(testParams())
	if err != nil {
		t.Fatal(err)
	}
	real := fig.Series[0]
	est := fig.Series[1]
	// Paper: "fairly good adaptation to a growing network". Check the
	// final estimate is within 25% of the final (grown) size.
	fr, fe := real.Y[real.Len()-1], est.Y[est.Len()-1]
	if math.IsNaN(fe) || math.Abs(fe-fr)/fr > 0.25 {
		t.Fatalf("final estimate %g vs real %g", fe, fr)
	}
}

func TestFig17AggShrinkingDegrades(t *testing.T) {
	fig, err := fig17(testParams())
	if err != nil {
		t.Fatal(err)
	}
	real := fig.Series[0]
	if real.Y[real.Len()-1] >= real.Y[0] {
		t.Fatal("shrinking scenario did not shrink")
	}
	// The paper's point: beyond ≈30% departures the estimates stop
	// tracking (connectivity loss). We only assert the run completes and
	// produces the series; the divergence itself is data, not a failure.
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d", len(fig.Series))
	}
}

func TestFig18CheapConfig(t *testing.T) {
	fig, err := fig18(testParams())
	if err != nil {
		t.Fatal(err)
	}
	oneShot := fig.Series[1]
	// l=10: relative error ~1/sqrt(10) ≈ 32%; values stay positive and
	// centered near 100 on average.
	var sum float64
	for _, q := range oneShot.Y {
		if q <= 0 {
			t.Fatalf("non-positive quality %g", q)
		}
		sum += q
	}
	mean := sum / float64(oneShot.Len())
	if math.Abs(mean-100) > 30 {
		t.Fatalf("l=10 mean quality %.1f%%", mean)
	}
}

func TestTableIShape(t *testing.T) {
	p := testParams()
	tbl, rows, err := TableI(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]TableIRow{}
	for _, r := range rows {
		byKey[r.Algorithm+"/"+r.Heuristic] = r
	}
	scOne := byKey["Sample&Collide (l=200)/oneShot"]
	scTen := byKey["Sample&Collide (l=200)/last10runs"]
	hops := byKey["HopsSampling/last10runs"]
	agg := byKey["Aggregation/50 rounds"]
	// Accuracy ordering (paper): Aggregation ≈ exact; S&C last10runs
	// beats oneShot; Hops systematically under-estimates.
	if agg.MeanAbsErrPct > 5 {
		t.Fatalf("Aggregation error %.1f%%, want ≈1%%", agg.MeanAbsErrPct)
	}
	if scTen.MeanAbsErrPct > scOne.MeanAbsErrPct+1 {
		t.Fatalf("last10runs (%.1f%%) not better than oneShot (%.1f%%)",
			scTen.MeanAbsErrPct, scOne.MeanAbsErrPct)
	}
	if hops.MeanSignedErrPct > -2 {
		t.Fatalf("Hops signed error %.1f%%, want clear under-estimation", hops.MeanSignedErrPct)
	}
	// Overhead orderings that hold at any scale: last10runs = 10× oneShot,
	// and Hops (O(N) per shot) stays below Aggregation (N·rounds·2).
	if scTen.OverheadPerEstimate <= scOne.OverheadPerEstimate {
		t.Fatal("last10runs overhead not above oneShot")
	}
	if math.Abs(scTen.OverheadPerEstimate-10*scOne.OverheadPerEstimate) > 1e-6*scTen.OverheadPerEstimate {
		t.Fatalf("last10runs overhead %.0f != 10× oneShot %.0f",
			scTen.OverheadPerEstimate, scOne.OverheadPerEstimate)
	}
	if hops.OverheadPerEstimate >= agg.OverheadPerEstimate {
		t.Fatalf("Hops overhead %.0f not below Aggregation's %.0f",
			hops.OverheadPerEstimate, agg.OverheadPerEstimate)
	}
	// The paper's cost ordering, S&C oneShot < Hops < Aggregation, is a
	// function of N (S&C costs ~sqrt(N)); it holds from the 8.3k-node
	// Scaled(12) overlay up (142.3k < 323k < 833.3k messages), so at
	// this test's 10k nodes too.
	if scOne.OverheadPerEstimate >= hops.OverheadPerEstimate {
		t.Fatalf("S&C oneShot overhead %.0f not below Hops' %.0f",
			scOne.OverheadPerEstimate, hops.OverheadPerEstimate)
	}
	wantAgg := float64(p.N100k * p.EpochLen * 2)
	if math.Abs(agg.OverheadPerEstimate-wantAgg)/wantAgg > 0.05 {
		t.Fatalf("Aggregation overhead %.0f, want ≈N·rounds·2 = %.0f",
			agg.OverheadPerEstimate, wantAgg)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rendered rows = %d", len(tbl.Rows))
	}
}

func TestTable1RegistryEntry(t *testing.T) {
	fig, err := Run("table1", testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Notes) < 5 {
		t.Fatalf("table notes = %v", fig.Notes)
	}
}
