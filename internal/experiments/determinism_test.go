package experiments

import (
	"fmt"
	"math"
	"testing"

	"p2psize/internal/core"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/registry"
)

// determinismParams shrinks every workload far enough that one experiment
// runs in well under a second; the determinism assertions are about bit
// equality, not statistical shape, so scale does not matter.
func determinismParams(workers int) Params {
	p := Scaled(100) // N100k -> 1000, N1M -> 2000
	p.SCRuns = 12
	p.SCRuns1M = 4
	p.HopsRuns = 12
	p.HopsRuns1M = 4
	p.AggStaticRounds = 30
	p.Fig18Runs = 8
	p.HopsHorizon = 100
	p.TableRuns = 8
	p.TraceHorizon = 100 // 10 monitor samples at the default cadence
	p.Workers = workers
	return p
}

// shardedIDs are the experiments whose round sweeps run on
// parallel.RoundEngine. Auto-sizing picks one shard at
// determinismParams' scale, so idParams runs these at shardedN100k,
// where it picks four, and two for ext-cyclon's 60% survivors,
// covering the cross-shard fix-up passes.
var shardedIDs = map[string]bool{"fig05": true, "ext-cyclon": true, "static-new": true}

const shardedN100k = 4 * parallel.MinShardNodes

// idParams is determinismParams for experiment id, at shardedN100k for
// shardedIDs. It fails t when that size no longer auto-sizes to several
// shards, for the 100k workloads or for ext-cyclon's survivors, so the
// sharded path cannot drop out of the coverage unnoticed.
func idParams(t *testing.T, id string, workers int) Params {
	t.Helper()
	p := determinismParams(workers)
	if !shardedIDs[id] {
		return p
	}
	survivors := shardedN100k - shardedN100k*4/10
	if parallel.Shards(0, shardedN100k) < 2 || parallel.Shards(0, survivors) < 2 {
		t.Fatalf("N100k=%d auto-sizes to %d shards (%d for %d survivors); the sharded path needs at least 2",
			shardedN100k, parallel.Shards(0, shardedN100k), parallel.Shards(0, survivors), survivors)
	}
	p.N100k = shardedN100k
	return p
}

// figuresEqual compares two figures bit-for-bit: metadata, notes, message
// totals, and every series point (NaN == NaN, via Float64bits).
func figuresEqual(a, b *Figure) error {
	if a.ID != b.ID || a.Title != b.Title || a.XLabel != b.XLabel ||
		a.YLabel != b.YLabel || a.LogLog != b.LogLog {
		return fmt.Errorf("metadata differs: %+v vs %+v", a, b)
	}
	if a.Messages != b.Messages {
		return fmt.Errorf("messages differ: %d vs %d", a.Messages, b.Messages)
	}
	if len(a.Notes) != len(b.Notes) {
		return fmt.Errorf("note counts differ: %d vs %d", len(a.Notes), len(b.Notes))
	}
	for i := range a.Notes {
		if a.Notes[i] != b.Notes[i] {
			return fmt.Errorf("note %d differs:\n  %s\n  %s", i, a.Notes[i], b.Notes[i])
		}
	}
	if len(a.Series) != len(b.Series) {
		return fmt.Errorf("series counts differ: %d vs %d", len(a.Series), len(b.Series))
	}
	for si := range a.Series {
		sa, sb := a.Series[si], b.Series[si]
		if sa.Name != sb.Name {
			return fmt.Errorf("series %d name %q vs %q", si, sa.Name, sb.Name)
		}
		if sa.Len() != sb.Len() {
			return fmt.Errorf("series %q length %d vs %d", sa.Name, sa.Len(), sb.Len())
		}
		for i := range sa.X {
			if math.Float64bits(sa.X[i]) != math.Float64bits(sb.X[i]) ||
				math.Float64bits(sa.Y[i]) != math.Float64bits(sb.Y[i]) {
				return fmt.Errorf("series %q diverges at point %d: (%v,%v) vs (%v,%v)",
					sa.Name, i, sa.X[i], sa.Y[i], sb.X[i], sb.Y[i])
			}
		}
	}
	return nil
}

// TestWorkerCountInvariance is the engine's core guarantee: the same
// Params.Seed yields byte-identical Figure series at workers=1 and
// workers=8, covering a static experiment per estimator (fig01 S&C,
// fig03 Hops, fig05 Aggregation), every dynamic shape (fig09 S&C churn,
// fig12 Hops churn, fig15 epoch-restarted Aggregation), Table I, and —
// at a size that auto-sizes to several shards — the sharded
// Aggregation/CYCLON/push-sum round paths (fig05, ext-cyclon,
// static-new) including their cross-shard fix-up passes.
func TestWorkerCountInvariance(t *testing.T) {
	ids := []string{"fig01", "fig03", "fig05", "fig09", "fig12", "fig15", "table1",
		"trace-weibull", "trace-diurnal", "trace-flashcrowd", "trace-ipfs",
		"ext-cyclon",
		// The PR-5 families: static-new covers their run-indexed static
		// streams (including push-sum's sharded sweeps),
		// trace-ipfs-all their per-instance monitoring streams.
		"static-new", "trace-ipfs-all",
		// The other shapes of compare: three fresh scale-free builds
		// (fig08), five views of one overlay (ext-classes), eight
		// candidates over four sizes (ext-walks).
		"fig08", "ext-classes", "ext-walks"}
	if testing.Short() {
		ids = []string{"fig01", "fig12", "table1", "trace-flashcrowd",
			"fig05", "ext-cyclon", "static-new"}
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			seq, err := Run(id, idParams(t, id, 1))
			if err != nil {
				t.Fatal(err)
			}
			par, err := Run(id, idParams(t, id, 8))
			if err != nil {
				t.Fatal(err)
			}
			if err := figuresEqual(seq, par); err != nil {
				t.Fatalf("workers=1 vs workers=8: %v", err)
			}
		})
	}
}

// TestCompareMatchesHandRolledLoop pins compare against the loop every
// static head-to-head used to write out by hand — perRun, then
// core.RunStaticParallel, per candidate, sequentially — on both overlay
// shapes callers hand it: a fresh build and a metering View() of a
// shared one. Estimates, per-run overheads and each overlay's counter
// are bit-equal at every worker count, and a view's traffic stays off
// the overlay it views.
func TestCompareMatchesHandRolledLoop(t *testing.T) {
	p := determinismParams(1)
	cands := []candidate{
		{"s&c", "samplecollide", p.Seed + 0x7701, 6, registry.Options{SCL: 20}},
		{"agg", "aggregation", p.Seed + 0x7702, 3, epochOpts()},
	}
	build := func() *overlay.Network { return hetNet(p.N100k, p, 0x7700) }
	wantNets := []*overlay.Network{build(), build().View()}
	want := make([]*core.StaticResult, len(cands))
	for ci, c := range cands {
		mk, err := perRun("by hand", c.family, wantNets[ci], c.seed, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if want[ci], err = core.RunStaticParallel(mk, wantNets[ci], c.runs, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		p.Workers = workers
		shared := build()
		got, nets, err := compare("test", cands, func(ci int) *overlay.Network {
			if ci == 0 {
				return build()
			}
			return shared.View()
		}, p)
		if err != nil {
			t.Fatal(err)
		}
		for ci, c := range cands {
			if len(got[ci].Estimates) != c.runs {
				t.Fatalf("workers=%d %s: %d estimates, want %d", workers, c.name, len(got[ci].Estimates), c.runs)
			}
			for i := range want[ci].Estimates {
				if math.Float64bits(got[ci].Estimates[i]) != math.Float64bits(want[ci].Estimates[i]) ||
					got[ci].Overheads[i] != want[ci].Overheads[i] {
					t.Fatalf("workers=%d %s run %d: (%v, %d msgs), by hand (%v, %d msgs)", workers, c.name, i,
						got[ci].Estimates[i], got[ci].Overheads[i], want[ci].Estimates[i], want[ci].Overheads[i])
				}
			}
			if g, w := nets[ci].Counter().Total(), wantNets[ci].Counter().Total(); g != w || g == 0 {
				t.Fatalf("workers=%d %s: overlay metered %d messages, by hand %d", workers, c.name, g, w)
			}
		}
		if n := shared.Counter().Total(); n != 0 {
			t.Fatalf("workers=%d: the viewed overlay's own counter moved by %d", workers, n)
		}
	}
}

// TestTableIWorkerCountInvariance pins the table rows themselves (the
// figure wrapper above only sees the rendered text).
func TestTableIWorkerCountInvariance(t *testing.T) {
	seqRows, seqMsgs, err := TableIRows(determinismParams(1))
	if err != nil {
		t.Fatal(err)
	}
	parRows, parMsgs, err := TableIRows(determinismParams(8))
	if err != nil {
		t.Fatal(err)
	}
	if seqMsgs != parMsgs {
		t.Fatalf("message totals differ: %d vs %d", seqMsgs, parMsgs)
	}
	if len(seqRows) != len(parRows) {
		t.Fatalf("row counts differ: %d vs %d", len(seqRows), len(parRows))
	}
	for i := range seqRows {
		if seqRows[i] != parRows[i] {
			t.Fatalf("row %d differs:\n  %+v\n  %+v", i, seqRows[i], parRows[i])
		}
	}
}

// TestSeedSensitivity guards against the opposite failure: per-run
// streams that ignore the seed entirely would also pass the invariance
// test, so check a different seed actually changes the data.
func TestSeedSensitivity(t *testing.T) {
	p1 := determinismParams(0)
	p2 := determinismParams(0)
	p2.Seed = 99
	a, err := Run("fig01", p1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fig01", p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := figuresEqual(a, b); err == nil {
		t.Fatal("seeds 1 and 99 produced identical figures")
	}
}

// TestRunSuiteChecksumsInvariant runs a small suite at both worker
// settings and compares the deterministic report fields (checksums,
// point counts, message totals) — the same signal CI consumes.
func TestRunSuiteChecksumsInvariant(t *testing.T) {
	ids := []string{"fig01", "fig05", "fig18"}
	seq, _, err := RunSuite(ids, determinismParams(1))
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := RunSuite(ids, determinismParams(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Experiments) != len(par.Experiments) {
		t.Fatalf("experiment counts differ")
	}
	for i := range seq.Experiments {
		a, b := seq.Experiments[i], par.Experiments[i]
		if a.ID != b.ID || a.Messages != b.Messages || len(a.Series) != len(b.Series) {
			t.Fatalf("report entry %d differs: %+v vs %+v", i, a, b)
		}
		for j := range a.Series {
			if a.Series[j] != b.Series[j] {
				t.Fatalf("%s series %d: %+v vs %+v", a.ID, j, a.Series[j], b.Series[j])
			}
		}
	}
}

// TestRunSuiteReportShape checks the report carries what CI needs.
func TestRunSuiteReportShape(t *testing.T) {
	report, figs, err := RunSuite([]string{"fig01"}, determinismParams(0))
	if err != nil {
		t.Fatal(err)
	}
	if report.Schema != ReportSchema {
		t.Fatalf("schema = %q", report.Schema)
	}
	if len(report.Experiments) != 1 || report.Experiments[0].ID != "fig01" {
		t.Fatalf("experiments = %+v", report.Experiments)
	}
	e := report.Experiments[0]
	if e.Messages == 0 || len(e.Series) != 2 || e.Series[0].Points == 0 || len(e.Series[0].Checksum) != 16 {
		t.Fatalf("entry incomplete: %+v", e)
	}
	if figs["fig01"] == nil {
		t.Fatal("figure missing from result map")
	}
	if _, _, err := RunSuite([]string{"nope"}, determinismParams(0)); err == nil {
		t.Fatal("unknown id did not error")
	}
}
