package trace

import (
	"bytes"
	"math"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

func testDist() SessionDist {
	return SessionDist{Kind: Weibull, Mean: 200, Shape: 0.5}
}

func testConfig() Config {
	return Config{
		Name:    "test",
		Initial: 500,
		Horizon: 1000,
		Session: testDist(),
	}
}

func mustGenerate(t *testing.T, cfg Config, seed uint64) *Trace {
	t.Helper()
	tr, err := Generate(cfg, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	return tr
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, testConfig(), 1)
	b := mustGenerate(t, testConfig(), 1)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	c := mustGenerate(t, testConfig(), 2)
	same := len(a.Events) == len(c.Events)
	if same {
		for i := range a.Events {
			if a.Events[i] != c.Events[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical traces")
	}
}

func TestGenerateStationaryPopulation(t *testing.T) {
	// With the default (stationary) arrival rate the population should
	// stay near Initial throughout; exponential sessions make the
	// renewal approximation exact.
	cfg := testConfig()
	cfg.Initial = 2000
	cfg.Session = SessionDist{Kind: Exponential, Mean: 200}
	tr := mustGenerate(t, cfg, 3)
	for _, at := range []float64{250, 500, 750, 1000} {
		n := tr.SizeAt(at)
		if n < cfg.Initial*7/10 || n > cfg.Initial*13/10 {
			t.Fatalf("population at t=%g is %d, want within 30%% of %d", at, n, cfg.Initial)
		}
	}
}

func TestGenerateDiurnal(t *testing.T) {
	cfg := testConfig()
	cfg.Initial = 0
	cfg.ArrivalRate = 20
	cfg.DiurnalAmplitude = 0.9
	cfg.DiurnalPeriod = 1000
	cfg.Session = SessionDist{Kind: Exponential, Mean: 1e9} // nobody leaves
	tr := mustGenerate(t, cfg, 4)
	// sin is positive on the first half-period and negative on the
	// second, so arrivals must concentrate in the first half.
	first, second := 0, 0
	for _, ev := range tr.Events {
		if ev.Op != Join {
			continue
		}
		if ev.T < 500 {
			first++
		} else {
			second++
		}
	}
	if first < 2*second {
		t.Fatalf("diurnal modulation had no effect: %d joins in peak half vs %d in trough half", first, second)
	}
}

func TestSessionDistMeans(t *testing.T) {
	rng := xrand.New(5)
	for _, d := range []SessionDist{
		{Kind: Exponential, Mean: 100},
		{Kind: Weibull, Mean: 100, Shape: 0.5},
		{Kind: LogNormal, Mean: 100, Shape: 1.2},
		{Kind: Pareto, Mean: 100, Shape: 2.5},
	} {
		sum := 0.0
		const draws = 300000
		for i := 0; i < draws; i++ {
			v := d.Draw(rng)
			if v < 0 {
				t.Fatalf("%s drew negative %g", d, v)
			}
			sum += v
		}
		mean := sum / draws
		if math.Abs(mean-d.Mean) > 0.1*d.Mean {
			t.Fatalf("%s mean = %g, want ~%g", d, mean, d.Mean)
		}
	}
}

func TestFlashCrowd(t *testing.T) {
	tr := mustGenerate(t, testConfig(), 6)
	before := tr.SizeAt(600)
	if err := tr.AddFlashCrowd(600, 300, SessionDist{Kind: Pareto, Mean: 20, Shape: 2}, xrand.New(7)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.SizeAt(600); got != before+300 {
		t.Fatalf("size right after flash crowd = %d, want %d", got, before+300)
	}
}

func TestMassFailure(t *testing.T) {
	tr := mustGenerate(t, testConfig(), 8)
	before := tr.SizeAt(500)
	if err := tr.AddMassFailure(500, 0.5, xrand.New(9)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	want := before - before/2
	if got := tr.SizeAt(500); got != want {
		t.Fatalf("size right after mass failure = %d, want %d", got, want)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := mustGenerate(t, testConfig(), 10)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, tr, back)
}

func TestCSVRoundTrip(t *testing.T) {
	tr := mustGenerate(t, testConfig(), 11)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, tr, back)
}

func tracesEqual(t *testing.T, a, b *Trace) {
	t.Helper()
	if a.Name != b.Name || a.Initial != b.Initial ||
		math.Float64bits(a.Horizon) != math.Float64bits(b.Horizon) {
		t.Fatalf("metadata differs: {%s %d %g} vs {%s %d %g}",
			a.Name, a.Initial, a.Horizon, b.Name, b.Initial, b.Horizon)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i].Session != b.Events[i].Session || a.Events[i].Op != b.Events[i].Op ||
			math.Float64bits(a.Events[i].T) != math.Float64bits(b.Events[i].T) {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString(`{"schema":"nope"}`)); err == nil {
		t.Fatal("bad JSON schema accepted")
	}
	if _, err := ReadCSV(bytes.NewBufferString("#horizon 10\n1,0,dance\n")); err == nil {
		t.Fatal("bad CSV op accepted")
	}
	if _, err := ReadCSV(bytes.NewBufferString("#initial 1\n#horizon 10\n5,0,join\n")); err == nil {
		t.Fatal("initial session joining accepted")
	}
	// Renumbered, joining session 5 becomes 0, the id the leave names.
	if _, err := ReadCSV(bytes.NewBufferString("#initial 0\n#horizon 10\n1,5,join\n2,0,leave\n")); err == nil {
		t.Fatal("a leave of a session that never joined accepted")
	}
}

func TestValidateCatchesStructureErrors(t *testing.T) {
	for name, tr := range map[string]*Trace{
		"leave before join": {Horizon: 10, Events: []Event{{T: 1, Session: 0, Op: Leave}}},
		"double join": {Horizon: 10, Events: []Event{
			{T: 1, Session: 0, Op: Join}, {T: 2, Session: 0, Op: Join}}},
		"event past horizon": {Horizon: 10, Events: []Event{{T: 11, Session: 0, Op: Join}}},
		"unsorted": {Horizon: 10, Events: []Event{
			{T: 5, Session: 0, Op: Join}, {T: 1, Session: 1, Op: Join}}},
		"zero horizon": {},
	} {
		if err := tr.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted invalid trace", name)
		}
	}
}

func newNet(n int, seed uint64) *overlay.Network {
	return overlay.New(graph.Heterogeneous(n, 10, xrand.New(seed)), 10, nil)
}

func TestPlayerReplaysSizes(t *testing.T) {
	cfg := testConfig()
	tr := mustGenerate(t, cfg, 12)
	net := newNet(cfg.Initial, 13)
	p, err := NewPlayer(tr, net)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(14)
	for _, at := range []float64{100, 400, 700, 1000} {
		p.AdvanceTo(net, at, rng)
		if got, want := net.Size(), tr.SizeAt(at); got != want {
			t.Fatalf("overlay size at t=%g is %d, trace says %d", at, got, want)
		}
	}
	if !p.Done() {
		t.Fatal("player not done after advancing to the horizon")
	}
}

func TestPlayerDeterministicReplay(t *testing.T) {
	cfg := testConfig()
	cfg.Initial = 300
	tr := mustGenerate(t, cfg, 15)
	base := newNet(cfg.Initial, 16)

	run := func() *overlay.Network {
		net := base.CloneCOW()
		p, err := NewPlayer(tr, net)
		if err != nil {
			t.Fatal(err)
		}
		p.Finish(net, xrand.New(17))
		return net
	}
	a, b := run(), run()
	if a.Size() != b.Size() {
		t.Fatalf("replay sizes differ: %d vs %d", a.Size(), b.Size())
	}
	ga, gb := a.Graph(), b.Graph()
	if ga.NumIDs() != gb.NumIDs() || ga.NumEdges() != gb.NumEdges() {
		t.Fatalf("replay graphs differ: %d/%d ids, %d/%d edges",
			ga.NumIDs(), gb.NumIDs(), ga.NumEdges(), gb.NumEdges())
	}
}

func TestPlayerRejectsSizeMismatch(t *testing.T) {
	tr := mustGenerate(t, testConfig(), 18)
	if _, err := NewPlayer(tr, newNet(7, 19)); err == nil {
		t.Fatal("player accepted an overlay smaller than the initial population")
	}
}

// TestPlayerReservesTheLastTicksIDs: a player reserves, on the clone it
// replays onto, the ids its overlay will have allocated at the horizon,
// the last tick of a run: dead ids already there plus one per join. The
// ceiling holds at every tick and is met exactly at the horizon, on a
// Weibull trace and on a flash crowd plus a mass failure. The base the
// clone was taken from keeps its own ceiling.
func TestPlayerReservesTheLastTicksIDs(t *testing.T) {
	for _, c := range []struct {
		name string
		tr   *Trace
	}{
		{"weibull", mustGenerate(t, testConfig(), 40)},
		{"flashcrowd+fails", composed(t, 400, 41)},
	} {
		name, tr := c.name, c.tr
		const dead = 7
		base := newNet(tr.Initial+dead, 42)
		for range dead {
			base.Leave(base.Graph().AliveAt(0))
		}
		baseCeil := base.Graph().IDCeiling()
		net := base.CloneCOW()
		p, err := NewPlayer(tr, net)
		if err != nil {
			t.Fatal(err)
		}
		g := net.Graph()
		if want := tr.Initial + dead + tr.Joins(); g.IDCeiling() != want {
			t.Fatalf("%s: ceiling %d, want %d ids and %d joins", name, g.IDCeiling(), tr.Initial+dead, tr.Joins())
		}
		rng := xrand.New(43)
		for _, at := range []float64{tr.Horizon / 4, tr.Horizon / 2, 3 * tr.Horizon / 4, tr.Horizon} {
			p.AdvanceTo(net, at, rng)
			if g.NumIDs() > g.IDCeiling() {
				t.Fatalf("%s: %d ids at t=%g, past the reserved %d", name, g.NumIDs(), at, g.IDCeiling())
			}
		}
		if g.NumIDs() != g.IDCeiling() {
			t.Fatalf("%s: %d ids at the horizon, reserved %d", name, g.NumIDs(), g.IDCeiling())
		}
		if got := base.Graph().IDCeiling(); got != baseCeil || got != base.Graph().NumIDs() {
			t.Fatalf("%s: the base's ceiling moved from %d to %d", name, baseCeil, got)
		}
	}
}
