package registry

import (
	"strings"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

func testNet(n int, seed uint64) *overlay.Network {
	return overlay.New(graph.Heterogeneous(n, 10, xrand.New(seed)), 10, nil)
}

// TestEveryDescriptorRoundTrips is the catalog's core guarantee: every
// registered name resolves to a descriptor whose factory builds a
// runnable estimator that produces a plausible estimate on a small
// overlay — name → factory → run, for all six built-in families.
func TestEveryDescriptorRoundTrips(t *testing.T) {
	const n = 600
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			d, ok := Get(name)
			if !ok {
				t.Fatalf("Names() listed %q but Get does not resolve it", name)
			}
			if d.Name != name {
				t.Fatalf("Get(%q).Name = %q", name, d.Name)
			}
			net := testNet(n, 1)
			// Small Sample&Collide target so the test stays fast.
			e, err := d.New(net, xrand.New(2), Options{SCL: 20})
			if err != nil {
				t.Fatalf("factory: %v", err)
			}
			if e.Name() == "" {
				t.Fatal("estimator has an empty name")
			}
			est, err := e.Estimate(net)
			if err != nil {
				t.Fatalf("estimate: %v", err)
			}
			if est <= 0 || est > 100*n {
				t.Fatalf("estimate %g implausible for a %d node overlay", est, n)
			}
			if net.Counter().Total() == 0 {
				t.Fatalf("%s metered no messages; per-run accounting would be blind", name)
			}
		})
	}
}

// TestBadKnobsRejected: a negative integer knob is an error naming the
// option, not a silent fall-back to the paper default.
func TestBadKnobsRejected(t *testing.T) {
	for _, c := range []struct {
		family string
		opts   Options
		want   string
	}{
		{"samplecollide", Options{SCL: -7}, "SCL -7"},
		{"randomtour", Options{Tours: -1}, "Tours -1"},
		{"hopssampling", Options{MinHops: -2}, "MinHops -2"},
		{"aggregation", Options{Rounds: -5}, "Rounds -5"},
		{"pushsum", Options{Rounds: -1}, "Rounds -1"},
	} {
		d, _ := Get(c.family)
		if _, err := d.Build(nil, xrand.New(1), c.opts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %+v: err = %v, want one naming %q", c.family, c.opts, err, c.want)
		}
	}
}

func TestAliasesResolve(t *testing.T) {
	for alias, want := range map[string]string{
		"sc": "samplecollide", "SC": "samplecollide", " sample&collide ": "samplecollide",
		"tour": "randomtour", "hops": "hopssampling", "agg": "aggregation",
		"id-density": "idspace", "poll": "polling",
		"ps": "pushsum", "push-sum": "pushsum",
		"cr": "capturerecapture", "lincoln-petersen": "capturerecapture",
		"dhtext": "dht", "kclosest": "dht",
	} {
		d, ok := Get(alias)
		if !ok || d.Name != want {
			t.Fatalf("Get(%q) = (%q, %v), want %q", alias, d.Name, ok, want)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("unknown name resolved")
	}
}

func TestDefaultSetIsTheMonitoringRoster(t *testing.T) {
	want := []string{"samplecollide", "randomtour", "hopssampling", "aggregation"}
	got := DefaultSet()
	if len(got) != len(want) {
		t.Fatalf("DefaultSet() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DefaultSet()[%d] = %q, want %q (order is part of the stream-offset contract)", i, got[i], want[i])
		}
		d, _ := Get(want[i])
		if d.Snapshot {
			t.Fatalf("%s is in the default set but is snapshot-based", want[i])
		}
	}
}

func TestStreamOffsetsAreFrozen(t *testing.T) {
	// These values reproduce the pre-registry rosters bit for bit; see
	// builtin.go. Changing one silently changes experiment output.
	for name, want := range map[string]uint64{
		"samplecollide": 10, "randomtour": 11, "hopssampling": 12,
		"aggregation": 13, "idspace": 14, "polling": 15,
		"pushsum": 16, "capturerecapture": 17, "dht": 18,
	} {
		d, _ := Get(name)
		if d.StreamOffset != want {
			t.Fatalf("%s stream offset = %d, want %d", name, d.StreamOffset, want)
		}
	}
}

// TestNewFamilyDescriptors pins the PR-5 families' contract: fresh
// frozen offsets (asserted above), none of them snapshot-based, and
// — critically — absence from the paper's default head-to-head roster,
// which is what keeps the default-roster experiment checksums
// byte-identical across the registry growth.
func TestNewFamilyDescriptors(t *testing.T) {
	for name, class := range map[string]string{
		"pushsum": "epidemic", "capturerecapture": "random-walk", "dht": "structured",
	} {
		d := mustGet(t, name)
		if d.InDefaultSet {
			t.Fatalf("%s must not join the default roster (frozen checksums)", name)
		}
		if d.Snapshot {
			t.Fatalf("%s must follow a churning overlay, not be snapshot-based", name)
		}
		if d.Class != class {
			t.Fatalf("%s class = %q, want %q", name, d.Class, class)
		}
	}
	// Capture-recapture and dht run their family defaults; push-sum
	// honors the gossip knobs.
	net := testNet(400, 9)
	e, err := mustGet(t, "capturerecapture").New(net, xrand.New(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Name(); !strings.Contains(got, "marks=300") || !strings.Contains(got, "recaptures=300") {
		t.Fatalf("capture-recapture defaults not applied: %s", got)
	}
	e, err = mustGet(t, "dht").New(net, xrand.New(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Name(); !strings.Contains(got, "k=20") || !strings.Contains(got, "probes=16") {
		t.Fatalf("dht defaults not applied: %s", got)
	}
	e, err = mustGet(t, "pushsum").New(net, xrand.New(1), Options{Rounds: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Name(); !strings.Contains(got, "rounds=7") {
		t.Fatalf("pushsum rounds option ignored: %s", got)
	}
}

func TestRegisterRejectsBadDescriptors(t *testing.T) {
	ok := Descriptor{Name: "t-valid", StreamOffset: 9001, New: mustGet(t, "polling").New}
	cases := []struct {
		name string
		d    Descriptor
		want string
	}{
		{"empty name", Descriptor{StreamOffset: 9100, New: ok.New}, "must not be empty"},
		{"nil factory", Descriptor{Name: "t-nil", StreamOffset: 9101}, "must not be nil"},
		{"dup name", Descriptor{Name: "polling", StreamOffset: 9102, New: ok.New}, "duplicate"},
		{"dup alias", Descriptor{Name: "t-dupalias", Aliases: []string{"sc"}, StreamOffset: 9103, New: ok.New}, "duplicate"},
		{"reserved", Descriptor{Name: "all", StreamOffset: 9104, New: ok.New}, "reserved"},
		{"dup offset", Descriptor{Name: "t-dupoff", StreamOffset: 13, New: ok.New}, "stream offset"},
	}
	for _, c := range cases {
		err := Register(c.d)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Register err = %v, want substring %q", c.name, err, c.want)
		}
	}
	if err := Register(ok); err != nil {
		t.Fatalf("valid descriptor rejected: %v", err)
	}
	if _, found := Get("t-valid"); !found {
		t.Fatal("registered descriptor not resolvable")
	}
	// Registering the same descriptor twice is itself a duplicate.
	if err := Register(ok); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func mustGet(t *testing.T, name string) Descriptor {
	t.Helper()
	d, ok := Get(name)
	if !ok {
		t.Fatalf("built-in %q missing", name)
	}
	return d
}

func TestResolveAndParse(t *testing.T) {
	ds, err := Resolve(nil)
	if err != nil || len(ds) != 4 {
		t.Fatalf("Resolve(nil) = %d descriptors, err %v; want the 4-family default set", len(ds), err)
	}
	ds, err = Parse("agg, sc,agg")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 || ds[0].Name != "aggregation" || ds[1].Name != "samplecollide" {
		t.Fatalf("Parse dedup/order wrong: %+v", ds)
	}
	if _, err := Parse("sc,unknown"); err == nil || !strings.Contains(err.Error(), "unknown estimator") {
		t.Fatalf("unknown selector err = %v", err)
	}
	if all, err := Parse("all"); err != nil || len(all) < 6 {
		t.Fatalf("Parse(all) = %d, err %v", len(all), err)
	}
	if def, err := Parse(" default "); err != nil || len(def) != 4 {
		t.Fatalf("Parse(default) = %d, err %v", len(def), err)
	}
	if _, err := Parse(" , ,"); err == nil {
		t.Fatal("blank spec accepted")
	}
}

func TestParseCadenceSpec(t *testing.T) {
	base, per, err := ParseCadenceSpec("5, agg=50 ,hops=1")
	if err != nil {
		t.Fatal(err)
	}
	if base != 5 {
		t.Fatalf("base = %g, want 5", base)
	}
	if len(per) != 2 || per["aggregation"] != 50 || per["hopssampling"] != 1 {
		t.Fatalf("overrides = %v", per)
	}
	if base, per, err = ParseCadenceSpec("agg=50"); err != nil || base != 0 || per["aggregation"] != 50 {
		t.Fatalf("unset base: base %g per %v err %v", base, per, err)
	}
	if base, per, err = ParseCadenceSpec(""); err != nil || base != 0 || per != nil {
		t.Fatalf("empty spec: base %g per %v err %v", base, per, err)
	}
	// NaN passes naive `v <= 0` validation and would crash the monitor's
	// schedule sizing; Inf would make the schedule empty.
	for _, bad := range []string{"x=1", "agg=zero", "agg=-1", "-3", "0", "NaN", "agg=NaN", "Inf", "agg=+Inf"} {
		if _, _, err := ParseCadenceSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// TestParseCadenceSpecRejectsDuplicates: a later bare base or repeated
// name= entry used to clobber the earlier one silently, measuring a
// configuration the caller never asked for.
func TestParseCadenceSpecRejectsDuplicates(t *testing.T) {
	for _, bad := range []string{
		"5,agg=50,10,agg=2",    // the issue's example: both kinds at once
		"5,10",                 // duplicate base
		"5, 5",                 // duplicate base, equal values too
		"agg=50,agg=50",        // repeated override, same value
		"agg=50,aggregation=2", // aliases resolve to the same family
	} {
		if _, _, err := ParseCadenceSpec(bad); err == nil ||
			!strings.Contains(err.Error(), "duplicate") {
			t.Fatalf("spec %q: err = %v, want duplicate rejection", bad, err)
		}
	}
	// A base plus distinct overrides is still fine.
	base, per, err := ParseCadenceSpec("5,agg=50,hops=1")
	if err != nil || base != 5 || len(per) != 2 {
		t.Fatalf("valid mixed spec rejected: base %g per %v err %v", base, per, err)
	}
}

// TestMonitoringCadences pins the one monitoring-roster rule both the
// experiments layer and cmd/p2psize apply.
func TestMonitoringCadences(t *testing.T) {
	roster, err := Parse("sc,agg,hops")
	if err != nil {
		t.Fatal(err)
	}
	// "ps" is not in the roster; "agg" reaches its slot through the alias.
	_, per, err := ParseCadenceSpec("5,agg=50")
	if err != nil {
		t.Fatal(err)
	}
	got, err := MonitoringCadences(roster, per)
	if err != nil || len(got) != 3 || got[0] != 0 || got[1] != 50 || got[2] != 0 {
		t.Fatalf("slot layout = %v, err %v; want [0 50 0]", got, err)
	}
	if got, err := MonitoringCadences(roster, nil); err != nil || len(got) != 3 || got[0]+got[1]+got[2] != 0 {
		t.Fatalf("no overrides = %v, err %v; want three base-cadence slots", got, err)
	}
	snapshot, err := Parse("sc,idspace")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MonitoringCadences(snapshot, nil); err == nil ||
		!strings.Contains(err.Error(), `"idspace" does not support continuous monitoring`) {
		t.Fatalf("snapshot family err = %v", err)
	}
	_, err = MonitoringCadences(roster, map[string]float64{"randomtour": 2, "aggregation": 50, "polling": 3})
	if err == nil || !strings.Contains(err.Error(), "[polling randomtour], not in the monitored roster") {
		t.Fatalf("orphan err = %v, want both orphans, sorted", err)
	}
}

func TestPerRunIsRunIndexed(t *testing.T) {
	net := testNet(500, 3)
	d := mustGet(t, "samplecollide")
	mk, err := d.PerRun(net, 42, Options{SCL: 20})
	if err != nil {
		t.Fatal(err)
	}
	a, err := mk(7).Estimate(net)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk(7).Estimate(net)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same run index gave %g then %g; per-run streams must be index-fixed", a, b)
	}
	c, err := mk(8).Estimate(net)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("distinct run indices shared a stream")
	}
	// Configuration errors surface at PerRun time, not mid-run.
	if _, err := mustGet(t, "aggregation").PerRun(net, 1, Options{Rounds: -1}); err == nil {
		t.Fatal("negative rounds accepted")
	}
}

func TestIDSpaceNeedsRingOrOverlay(t *testing.T) {
	d := mustGet(t, "idspace")
	if _, err := d.New(nil, xrand.New(1), Options{}); err == nil {
		t.Fatal("nil overlay without a ring accepted")
	}
	if !d.Snapshot {
		t.Fatal("idspace is snapshot-based; it must say so")
	}
}
