package experiments

import (
	"math"
	"testing"
)

var robustnessIDs = []string{
	"robustness-drop", "robustness-delay", "robustness-dup",
	"robustness-partition", "robustness-adversary", "robustness-nat",
}

func rankingsEqual(t *testing.T, a, b *Figure) {
	t.Helper()
	if len(a.Rankings) != len(b.Rankings) {
		t.Fatalf("ranking counts differ: %d vs %d", len(a.Rankings), len(b.Rankings))
	}
	for i := range a.Rankings {
		if a.Rankings[i] != b.Rankings[i] {
			t.Fatalf("ranking %d differs:\n  %+v\n  %+v", i, a.Rankings[i], b.Rankings[i])
		}
	}
}

// TestRobustnessWorkerInvariance extends the engine's core guarantee to
// the fault layer: every robustness scenario — fate draws, injector
// latency clocks, partition surgery between run segments — must be
// byte-identical at workers 1, 2 and 8.
func TestRobustnessWorkerInvariance(t *testing.T) {
	ids := robustnessIDs
	if testing.Short() {
		ids = []string{"robustness-drop", "robustness-partition"}
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			base, err := Run(id, determinismParams(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				got, err := Run(id, determinismParams(workers))
				if err != nil {
					t.Fatal(err)
				}
				if err := figuresEqual(base, got); err != nil {
					t.Fatalf("workers=1 vs workers=%d: %v", workers, err)
				}
				rankingsEqual(t, base, got)
			}
		})
	}
}

// TestRobustnessShape pins the report contract: nine ranked families,
// most robust first, each with latency percentiles, and two series
// (quality + latency) per family.
func TestRobustnessShape(t *testing.T) {
	fig, err := Run("robustness-drop", determinismParams(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rankings) != 9 {
		t.Fatalf("rankings = %d families, want 9", len(fig.Rankings))
	}
	if len(fig.Series) != 18 {
		t.Fatalf("series = %d, want 18 (quality + latency per family)", len(fig.Series))
	}
	for i, r := range fig.Rankings {
		if r.Name == "" || r.MAE < 0 || r.MAPE < 0 {
			t.Fatalf("ranking %d malformed: %+v", i, r)
		}
		if !(r.P50 <= r.P95 && r.P95 <= r.P99) {
			t.Fatalf("%s: latency percentiles out of order: %+v", r.Name, r)
		}
		if i > 0 && fig.Rankings[i].MAPE < fig.Rankings[i-1].MAPE {
			t.Fatalf("rankings not sorted most-robust-first at %d: %+v", i, fig.Rankings)
		}
	}
}

// TestNATEnvelope pins the asymmetric-connectivity scenario's class
// separation: the structured dht family is NAT-oblivious (identifier
// records outlive reachability, so its density estimate barely moves),
// the poll class loses the fated fifth of the population plus its
// gossip tail, and the fire-and-forget epidemic class leaks mass on
// every push into the fated set. The margins are wide at test scale.
func TestNATEnvelope(t *testing.T) {
	fig, err := Run("robustness-nat", determinismParams(0))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Ranking{}
	for _, r := range fig.Rankings {
		byName[r.Name] = r
	}
	dht, ok1 := byName["dht"]
	poll, ok2 := byName["polling"]
	ps, ok3 := byName["pushsum"]
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("families missing from rankings: %+v", fig.Rankings)
	}
	if dht.MAPE > 15 {
		t.Fatalf("dht MAPE %.1f%% under nat, want NAT-oblivious (<= 15%%)", dht.MAPE)
	}
	if poll.MAPE < 10 {
		t.Fatalf("polling MAPE %.1f%% under nat=0.2, want the unreached-fraction bias (>= 10%%)", poll.MAPE)
	}
	if ps.MAPE < 2*dht.MAPE {
		t.Fatalf("push-sum MAPE %.1f%% vs dht %.1f%%: NAT did not degrade the epidemic class",
			ps.MAPE, dht.MAPE)
	}
}

// TestDropEnvelope is the scenario suite's headline statistical claim:
// message loss corrupts the conserved mass of the fire-and-forget
// epidemic class (push-sum), while the request/response sampling class
// (capture-recapture) just retransmits and keeps its accuracy. The
// margin is wide — an order of magnitude at 10% drop — so the assertion
// is statistically safe at test scale.
func TestDropEnvelope(t *testing.T) {
	fig, err := Run("robustness-drop", determinismParams(0))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Ranking{}
	for _, r := range fig.Rankings {
		byName[r.Name] = r
	}
	ps, ok1 := byName["pushsum"]
	cr, ok2 := byName["capturerecapture"]
	if !ok1 || !ok2 {
		t.Fatalf("families missing from rankings: %+v", fig.Rankings)
	}
	if cr.MAPE > 25 {
		t.Fatalf("capture-recapture MAPE %.1f%% under drop, want the benign envelope (<= 25%%)", cr.MAPE)
	}
	if ps.MAPE < 2*cr.MAPE {
		t.Fatalf("push-sum MAPE %.1f%% vs capture-recapture %.1f%%: drop did not degrade the epidemic class",
			ps.MAPE, cr.MAPE)
	}
}

// TestRobustnessCountsIsolatedInitiator pins that an estimator error
// under a fault scenario is a counted failure of that family, not a
// failed experiment: on these seeds the partition and the adversary
// isolate a Random Tour initiator (the parent aborted with
// "randomtour: initiator is isolated"). The failure shows up in the
// ranking and as a NaN point, identically at every worker count.
func TestRobustnessCountsIsolatedInitiator(t *testing.T) {
	for _, tc := range []struct {
		id   string
		seed uint64
	}{{"robustness-partition", 5}, {"robustness-adversary", 4}} {
		t.Run(tc.id, func(t *testing.T) {
			p := determinismParams(1)
			p.Seed = tc.seed
			fig, err := Run(tc.id, p)
			if err != nil {
				t.Fatalf("an isolated initiator failed the experiment: %v", err)
			}
			var rt *Ranking
			for i := range fig.Rankings {
				if fig.Rankings[i].Name == "randomtour" {
					rt = &fig.Rankings[i]
				}
			}
			if rt == nil || rt.Failures == 0 {
				t.Fatalf("randomtour ranking %+v, want Failures > 0", rt)
			}
			nans := 0
			for _, s := range fig.Series {
				if s.Name == "randomtour" {
					for _, y := range s.Y {
						if math.IsNaN(y) {
							nans++
						}
					}
				}
			}
			if nans != rt.Failures {
				t.Fatalf("%d NaN quality points for %d counted failures", nans, rt.Failures)
			}
			p.Workers = 8
			par, err := Run(tc.id, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := figuresEqual(fig, par); err != nil {
				t.Fatalf("workers=1 vs workers=8: %v", err)
			}
			rankingsEqual(t, fig, par)
		})
	}
}

// TestSortRankingsNoSuccessLast pins the order's tail: a family whose
// every run failed carries zero MAE/MAPE (JSON has no NaN) and must not
// rank first for it.
func TestSortRankingsNoSuccessLast(t *testing.T) {
	rs := []Ranking{
		{Name: "b-none", Failures: 4},
		{Name: "worse", MAPE: 30, Failures: 3},
		{Name: "a-none", Failures: 4},
		{Name: "better", MAPE: 10},
	}
	sortRankings(rs, 4)
	if got := rankingOrder(rs); got != "better > worse > a-none > b-none" {
		t.Fatalf("order = %s", got)
	}
}
