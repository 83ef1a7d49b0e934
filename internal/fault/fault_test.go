package fault

import (
	"math"
	"strings"
	"testing"

	"p2psize/internal/aggregation"
	"p2psize/internal/capturerecapture"
	"p2psize/internal/core"
	"p2psize/internal/dhtext"
	"p2psize/internal/graph"
	"p2psize/internal/hopssampling"
	"p2psize/internal/idspace"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/polling"
	"p2psize/internal/pushsum"
	"p2psize/internal/randomtour"
	"p2psize/internal/samplecollide"
	"p2psize/internal/xrand"
)

func TestParseSpecRoundTrip(t *testing.T) {
	for _, in := range []string{
		"",
		"drop=0.05",
		"delay=2x",
		"dup=0.01",
		"partition@40-60",
		"partition=0.3@40-60",
		"lie=10@0.05",
		"silent=0.1",
		"sybil=0.2",
		"drop=0.05,delay=2x,partition@40-60",
		"drop=0.999", // MaxDrop itself
		"drop=0.1,dup=0.1,lie=10@0.05,silent=0.1,sybil=0.15",
	} {
		s, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", in, err)
		}
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q.String() = %q): %v", in, s.String(), err)
		}
		if back != s {
			t.Fatalf("%q does not round-trip: %+v -> %q -> %+v", in, s, s.String(), back)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"drop=1.5", "outside"},
		{"drop=0.9999999999999999", "outside"}, // no bound on the retransmit rounds
		{"drop=0.9991", "outside"},
		{"drop=x", "bad drop"},
		{"drop=0.1,drop=0.2", "duplicate"},
		{"partition=0.5", "window"},
		{"partition@40", "lo-hi"},
		{"partition@70-30", "not inside"},
		{"lie=0@0.1", "must be positive"},
		{"flood=1", "unknown key"},
		{"delay=-1", "negative"},
	} {
		if _, err := ParseSpec(tc.in); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", tc.in)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("ParseSpec(%q) = %v, want mention of %q", tc.in, err, tc.want)
		}
	}
}

// TestRetransmitRoundsAtMaxDrop holds MaxDrop's documented cost: a
// reliable batch of n messages at the ceiling retransmits for about
// H_n / -ln(MaxDrop) rounds (one timeout each on a concurrent kind), so
// OnSend returns for one message and for a million.
func TestRetransmitRoundsAtMaxDrop(t *testing.T) {
	inj := NewInjector(Spec{Drop: MaxDrop}, xrand.New(1))
	rounds := func(n uint64) float64 {
		before := inj.clock
		inj.OnSend(metrics.KindReply, n)
		return (inj.clock - before) / inj.rto
	}
	const trials = 400
	var sum float64
	for range trials {
		sum += rounds(1)
	}
	want := 1 / -math.Log(MaxDrop) // H_1 = 1: about 1000
	if mean := sum / trials; math.Abs(mean-want) > 0.2*want {
		t.Fatalf("one message: %.0f rounds on average, want about %.0f", mean, want)
	}
	want = (math.Log(1e6) + 0.5772) / -math.Log(MaxDrop) // H_n ≈ ln n + γ: about 14 400
	if got := rounds(1e6); math.Abs(got-want) > 0.5*want {
		t.Fatalf("a million messages: %.0f rounds, want about %.0f", got, want)
	}
}

// specFields lists every numeric field of a spec, by name.
func specFields(s *Spec) map[string]*float64 {
	return map[string]*float64{
		"Drop": &s.Drop, "DelayFactor": &s.DelayFactor, "Dup": &s.Dup,
		"PartitionFrac": &s.PartitionFrac, "PartitionLo": &s.PartitionLo, "PartitionHi": &s.PartitionHi,
		"LieScale": &s.LieScale, "LieFrac": &s.LieFrac,
		"SilentFrac": &s.SilentFrac, "SybilFrac": &s.SybilFrac, "NATFrac": &s.NATFrac,
	}
}

// TestValidateRejectsNonFinite: NaN passes every test written x < 0 ||
// x > 1, and an infinite delay or liar scale is no scenario at all.
func TestValidateRejectsNonFinite(t *testing.T) {
	valid := Spec{Drop: 0.1, DelayFactor: 2, PartitionFrac: 0.5, PartitionLo: 0.4, PartitionHi: 0.6, LieScale: 2, LieFrac: 0.1}
	if err := valid.Validate(); err != nil {
		t.Fatal(err)
	}
	for name := range specFields(&valid) {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			s := valid
			*specFields(&s)[name] = v
			if err := s.Validate(); err == nil {
				t.Errorf("Validate accepted %s = %g", name, v)
			}
		}
	}
	for _, in := range []string{
		"drop=NaN", "dup=+Inf", "silent=NaN", "sybil=Inf", "nat=NaN", "nat=-Inf",
		"delay=+Inf", "delay=NaN", "lie=Inf@0.1", "lie=NaN", "lie=-Inf@0.1", "lie=2@NaN",
		"partition=NaN@40-60", "partition@NaN-60", "partition@40-Inf", "partition@-Inf-60",
	} {
		if s, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted %+v", in, s)
		}
	}
}

// feed drives an injector through a fixed metering sequence and returns
// the extras plus the estimate latency.
func feed(inj *Injector, net *overlay.Network) ([]uint64, float64) {
	inj.BeginEstimate(net)
	var extras []uint64
	for i := 0; i < 50; i++ {
		extras = append(extras, inj.OnSend(metrics.KindWalk, 1))
		extras = append(extras, inj.OnSend(metrics.KindGossipSpread, 10))
		extras = append(extras, inj.OnSend(metrics.KindPush, 100))
	}
	return extras, inj.EndEstimate()
}

func TestInjectorDeterminism(t *testing.T) {
	net := overlay.New(graph.Heterogeneous(200, 10, xrand.New(7)), 10, nil)
	spec := Spec{Drop: 0.2, Dup: 0.1, DelayFactor: 2, LieScale: 10, LieFrac: 0.05}
	a := NewInjector(spec, xrand.New(42))
	b := NewInjector(spec, xrand.New(42))
	ea, la := feed(a, net)
	eb, lb := feed(b, net)
	if la != lb {
		t.Fatalf("latencies differ: %g vs %g", la, lb)
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("extra %d differs: %d vs %d", i, ea[i], eb[i])
		}
	}
	for id := overlay.NodeID(0); id < 200; id++ {
		if a.ReportScale(id) != b.ReportScale(id) {
			t.Fatalf("ReportScale(%d) differs", id)
		}
	}
	c := NewInjector(spec, xrand.New(43))
	ec, _ := feed(c, net)
	same := true
	for i := range ea {
		if ea[i] != ec[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical fault sequences")
	}
}

// TestTransportAsymmetry pins the drop semantics: reliable kinds
// retransmit (extra metered messages, payload always arrives), the
// epidemic kinds never do — their loss is the payload itself, priced by
// the protocols through DropProb.
func TestTransportAsymmetry(t *testing.T) {
	net := overlay.New(graph.Heterogeneous(200, 10, xrand.New(7)), 10, nil)
	inj := NewInjector(Spec{Drop: 0.3}, xrand.New(1))
	inj.BeginEstimate(net)
	var walkExtra, pushExtra uint64
	for i := 0; i < 100; i++ {
		walkExtra += inj.OnSend(metrics.KindWalk, 10)
		pushExtra += inj.OnSend(metrics.KindPush, 10)
	}
	if walkExtra == 0 {
		t.Fatal("30% drop on 1000 reliable messages caused no retransmissions")
	}
	if pushExtra != 0 {
		t.Fatalf("fire-and-forget push retransmitted %d times", pushExtra)
	}
	if got := inj.DropProb(); got != 0.3 {
		t.Fatalf("DropProb = %g, want 0.3", got)
	}
	if lat := inj.EndEstimate(); lat <= 0 {
		t.Fatalf("latency = %g, want > 0", lat)
	}
}

func TestReportScale(t *testing.T) {
	inj := NewInjector(Spec{LieScale: 10, LieFrac: 0.2}, xrand.New(5))
	liars := 0
	for id := overlay.NodeID(0); id < 1000; id++ {
		switch inj.ReportScale(id) {
		case 10:
			liars++
		case 1:
		default:
			t.Fatalf("ReportScale(%d) = %g, want 1 or 10", id, inj.ReportScale(id))
		}
	}
	if liars < 150 || liars > 250 {
		t.Fatalf("%d liars of 1000 at LieFrac 0.2", liars)
	}
	honest := NewInjector(Spec{Drop: 0.1}, xrand.New(5))
	if honest.ReportScale(3) != 1 {
		t.Fatal("liar-free spec scaled a report")
	}
}

func TestPartitionHeal(t *testing.T) {
	g := graph.Heterogeneous(500, 10, xrand.New(3))
	net := overlay.New(g, 10, nil)
	if graph.LargestComponent(g) != 500 {
		t.Fatal("test overlay not connected")
	}
	degrees := make(map[graph.NodeID]int, 500)
	g.ForEachAlive(func(u graph.NodeID) { degrees[u] = g.Degree(u) })

	severed := Partition(net, 0.4, 99)
	if len(severed) == 0 {
		t.Fatal("partition severed nothing")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("after split: %v", err)
	}
	if g.NumAlive() != 500 {
		t.Fatalf("partition changed the population: %d", g.NumAlive())
	}
	sizes := graph.ComponentSizes(g)
	if len(sizes) < 2 {
		t.Fatalf("graph still has %d component(s) after the split", len(sizes))
	}
	for _, e := range severed {
		if g.HasEdge(e.U, e.V) {
			t.Fatalf("severed edge %v still present", e)
		}
	}

	Heal(net, severed)
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("after heal: %v", err)
	}
	if graph.LargestComponent(g) != 500 {
		t.Fatalf("heal did not reconnect: largest = %d", graph.LargestComponent(g))
	}
	g.ForEachAlive(func(u graph.NodeID) {
		if g.Degree(u) != degrees[u] {
			t.Fatalf("node %d degree %d after heal, %d before split", u, g.Degree(u), degrees[u])
		}
	})
}

func TestPartitionDeterministic(t *testing.T) {
	a := Partition(overlay.New(graph.Heterogeneous(300, 10, xrand.New(3)), 10, nil), 0.3, 7)
	b := Partition(overlay.New(graph.Heterogeneous(300, 10, xrand.New(3)), 10, nil), 0.3, 7)
	if len(a) != len(b) {
		t.Fatalf("severed counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("severed edge %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSilence(t *testing.T) {
	g := graph.Heterogeneous(400, 10, xrand.New(4))
	net := overlay.New(g, 10, nil)
	silent := Silence(net, 0.25, 11)
	if len(silent) == 0 {
		t.Fatal("nothing silenced")
	}
	if g.NumAlive() != 400 {
		t.Fatalf("silence changed the true size: %d", g.NumAlive())
	}
	for _, id := range silent {
		if !g.Alive(id) {
			t.Fatalf("silent peer %d left the alive set", id)
		}
		if g.Degree(id) != 0 {
			t.Fatalf("silent peer %d still has %d links", id, g.Degree(id))
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInflateSybils(t *testing.T) {
	net := overlay.New(graph.Heterogeneous(400, 10, xrand.New(4)), 10, nil)
	joined := InflateSybils(net, 0.25, xrand.New(9))
	if joined != 100 {
		t.Fatalf("joined %d sybils, want 100", joined)
	}
	if net.Size() != 500 {
		t.Fatalf("size %d after inflation, want 500", net.Size())
	}
	if err := net.Graph().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

type constEstimator struct{ seen overlay.FaultPolicy }

func (c *constEstimator) Name() string { return "const" }
func (c *constEstimator) Estimate(net *overlay.Network) (float64, error) {
	c.seen = net.FaultPolicy()
	net.Send(metrics.KindWalk)
	return 42, nil
}

// TestDecorate pins the wrapper contract: the policy is installed only
// for the duration of the estimate, restored afterwards, and every
// estimate records one latency.
func TestDecorate(t *testing.T) {
	net := overlay.New(graph.Heterogeneous(100, 10, xrand.New(2)), 10, nil)
	inner := &constEstimator{}
	inj := NewInjector(Spec{Drop: 0.1}, xrand.New(1))
	e := Decorate(inner, inj)
	if e.Name() != "const" {
		t.Fatalf("name %q", e.Name())
	}
	for i := 1; i <= 3; i++ {
		inj.last = -1 // the estimate's EndEstimate must overwrite it
		est, err := e.Estimate(net)
		if err != nil || est != 42 {
			t.Fatalf("estimate %d: %g, %v", i, est, err)
		}
		if inner.seen != overlay.FaultPolicy(inj) {
			t.Fatal("policy not installed during the estimate")
		}
		if net.FaultPolicy() != nil {
			t.Fatal("policy still installed after the estimate")
		}
		if lat := inj.LastLatency(); !(lat > 0) {
			t.Fatalf("estimate %d recorded latency %g, want > 0", i, lat)
		}
	}
}

// TestDecorateForwardsOverlayCapability: the fault decorator wraps
// every estimator the registry builds, so it must forward each family's
// MutatesOverlay declaration, not reset it to the conservative
// mutating default that would cost an observe-only family its shared
// replay group.
func TestDecorateForwardsOverlayCapability(t *testing.T) {
	net := overlay.New(graph.Heterogeneous(300, 10, xrand.New(3)), 10, nil)
	rng := xrand.New(4)
	for _, tc := range []struct {
		name    string
		e       core.Estimator
		mutates bool
	}{
		{"samplecollide", samplecollide.New(samplecollide.Default(), rng), false},
		{"randomtour", randomtour.New(randomtour.Default(), rng), false},
		{"hopssampling", hopssampling.New(hopssampling.Default(), rng), false},
		{"aggregation", aggregation.NewEstimator(aggregation.Default(), rng), true},
		{"idspace", idspace.New(idspace.NewRing(net, rng), rng), false},
		{"polling", polling.New(rng), false},
		{"pushsum", pushsum.NewEstimator(pushsum.Default(), rng), true},
		{"capturerecapture", capturerecapture.New(rng), false},
		{"dht", dhtext.New(rng), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := core.MutatesOverlay(tc.e); got != tc.mutates {
				t.Fatalf("core.MutatesOverlay(%s) = %v, want %v", tc.name, got, tc.mutates)
			}
			dec := Decorate(tc.e, NewInjector(Spec{Drop: 0.01}, xrand.New(5)))
			if got := core.MutatesOverlay(dec); got != tc.mutates {
				t.Fatalf("fault-decorated core.MutatesOverlay(%s) = %v, want %v", tc.name, got, tc.mutates)
			}
		})
	}
}
