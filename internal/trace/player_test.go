package trace

import (
	"slices"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/model"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// composed is the flash-crowd workload in small: a crowd joining at one
// instant, a mass failure (hundreds of leaves at one T) at another.
func composed(t *testing.T, initial int, seed uint64) *Trace {
	t.Helper()
	cfg := testConfig()
	cfg.Initial = initial
	tr := mustGenerate(t, cfg, seed)
	if err := tr.AddFlashCrowd(300, initial/2, SessionDist{Kind: Exponential, Mean: 50}, xrand.New(seed+1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddMassFailure(700, 0.5, xrand.New(seed+2)); err != nil {
		t.Fatal(err)
	}
	return tr
}

// handBuilt covers what a generator rarely produces: sessions that join
// and leave inside one block (their peer does not exist yet when the
// block's departures are hinted), in-block joins and leaves at one T,
// a leaver whose list is spilled, leavers that are neighbours within
// one block, sessions bound in the block just before their departure
// (the session entry changes between the hint and the apply), and more
// departures than the Size() <= 1 floor lets through. It is replayed on
// handNet.
func handBuilt() *Trace {
	tr := &Trace{Name: "hand", Initial: handInitial, Horizon: 100}
	ev := func(t float64, s int, op Op) { tr.Events = append(tr.Events, Event{T: t, Session: int32(s), Op: op}) }
	ev(1, 20, Join)
	ev(1, 20, Leave) // same instant, same block
	ev(2, 21, Join)
	ev(3, 5, Leave)
	ev(3, 22, Join)
	ev(4, 21, Leave)
	ev(4, 22, Leave)
	ev(5, 0, Leave) // the hub: a spilled list
	ev(6, 2, Leave) // three ring neighbours at one instant: two share a block
	ev(6, 3, Leave)
	ev(6, 4, Leave)
	for s := 23; s < 46; s++ { // a burst longer than one block, each gone at once
		ev(10, s, Join)
		ev(10+float64(s)/100, s, Leave)
	}
	// Sixteen joins, then their sixteen departures: under any block
	// alignment each departure sits in the block after its join.
	for s := 46; s < 46+stageBlock; s++ {
		ev(20, s, Join)
		ev(20.5, s, Leave)
	}
	// Every remaining peer leaves; the last one is skipped by the floor.
	for i, s := range []int{1, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19} {
		ev(50+float64(i)/10, s, Leave)
	}
	s := 46 + stageBlock
	ev(60, s, Join)
	ev(61, s, Leave) // applied: two peers are alive again
	tr.Normalize()
	return tr
}

// handInitial is handBuilt's initial session count.
const handInitial = 20

// handNet is handBuilt's overlay: node 0 is a hub linked to every other
// node, so its list is spilled out of its record, and nodes 1..19 form
// a ring.
func handNet() *overlay.Network {
	g := graph.NewWithNodes(handInitial)
	for v := graph.NodeID(1); v < handInitial; v++ {
		g.AddEdge(0, v)
		g.AddEdge(v, 1+v%(handInitial-1))
	}
	return overlay.New(g, 10, nil)
}

// replayCase is a trace of the reference tests and the overlay it is
// replayed on.
type replayCase struct {
	tr  *Trace
	net func() *overlay.Network
	// long marks the trace every "per-48" advance of which spans three
	// blocks or more, so that each runs the whole hint pipeline.
	long bool
	// big marks an overlay large enough for the join hints to run (the
	// graph package skips them below 1<<16 live nodes); it is stopped
	// per 48 events and once only, for time.
	big bool
}

// replayCases returns the reference tests' traces by name.
func replayCases(t *testing.T) map[string]replayCase {
	generated := func(tr *Trace) replayCase {
		return replayCase{tr: tr, net: func() *overlay.Network { return newNet(tr.Initial, 31) }}
	}
	long := generated(mustGenerate(t, func() Config { c := testConfig(); c.Initial = 2000; return c }(), 24))
	long.long = true
	big := generated(crowd(t, 80_000, 25))
	big.big = true
	return map[string]replayCase{
		"hand":          {tr: handBuilt(), net: handNet},
		"weibull-300":   generated(mustGenerate(t, func() Config { c := testConfig(); c.Initial = 300; return c }(), 21)),
		"composed-400":  generated(composed(t, 400, 22)),
		"composed-3000": generated(composed(t, 3000, 23)),
		"weibull-2000":  long,
		"crowd-80000":   big,
	}
}

// crowd is a short trace on a large overlay: exponential sessions (mean
// 200) over a horizon of 20, 2000 visitors at T=5 and a twentieth of the
// peers failing together at T=15, so that the overlay never shrinks by
// more than about a tenth.
func crowd(t *testing.T, initial int, seed uint64) *Trace {
	t.Helper()
	cfg := testConfig()
	cfg.Initial, cfg.Horizon = initial, 20
	cfg.Session = SessionDist{Kind: Exponential, Mean: 200}
	tr := mustGenerate(t, cfg, seed)
	if err := tr.AddFlashCrowd(5, 2000, SessionDist{Kind: Exponential, Mean: 2}, xrand.New(seed+1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddMassFailure(15, 0.05, xrand.New(seed+2)); err != nil {
		t.Fatal(err)
	}
	return tr
}

// ticks returns the times a reference test stops the replay at, by
// scheme. They cut the Player's blocks at every offset: one advance per
// event time, one per seven events (neither on a big trace), one per 48
// (three blocks; the last advance takes up to twice that), one for all.
func (rc replayCase) ticks() map[string][]float64 {
	tr := rc.tr
	perEvent := make([]float64, len(tr.Events))
	var perSeven, per48 []float64
	for i, ev := range tr.Events {
		perEvent[i] = ev.T
		if i%7 == 6 {
			perSeven = append(perSeven, ev.T)
		}
		if i%48 == 47 && len(tr.Events)-i > 48 {
			per48 = append(per48, ev.T)
		}
	}
	ticks := map[string][]float64{
		"per-48": append(per48, tr.Horizon),
		"whole":  {tr.Horizon},
	}
	if !rc.big {
		ticks["per-event"], ticks["per-seven"] = perEvent, append(perSeven, tr.Horizon)
	}
	return ticks
}

// replayBoth replays tr on a COW clone of base with the Player and on
// the model's copy of base with the model's event-at-a-time player
// (internal/model), stopping at the same ticks, and demands identical
// counts, cursors, session tables and generator states at every tick
// and identical graphs — alive list and adjacency lists in order — at
// the end, where no event may be left. Every advance must span at
// least minSpan events.
func replayBoth(t *testing.T, tr *Trace, base *overlay.Network, ticks []float64, minSpan int) {
	t.Helper()
	got, want := base.CloneCOW(), model.FromGraph(base.Graph())
	ref := model.NewPlayer(toModel(tr), want)
	p, err := NewPlayer(tr, got)
	if err != nil {
		t.Fatal(err)
	}
	wantRng, gotRng := xrand.New(32), xrand.New(32)
	for _, tick := range ticks {
		from := p.next
		wj, wl := ref.AdvanceTo(want, got.MaxDegree(), tick, wantRng)
		gj, gl := p.AdvanceTo(got, tick, gotRng)
		if gj != wj || gl != wl {
			t.Fatalf("advance to %g: %d joins %d leaves, model %d and %d", tick, gj, gl, wj, wl)
		}
		if *gotRng != *wantRng {
			t.Fatalf("advance to %g: generator state differs", tick)
		}
		if p.next != ref.Next || !slices.Equal(p.nodes, ref.Nodes) {
			t.Fatalf("advance to %g: cursor or session table differs", tick)
		}
		if p.next-from < minSpan {
			t.Fatalf("advance to %g spans %d events, fewer than %d", tick, p.next-from, minSpan)
		}
		if tr.Initial <= 400 {
			if err := got.Graph().CheckInvariants(); err != nil {
				t.Fatalf("advance to %g: %v", tick, err)
			}
		}
	}
	if !p.Done() {
		t.Fatal("events left after the last tick")
	}
	if err := want.Diff(got.Graph()); err != nil {
		t.Fatal(err)
	}
	if err := got.Graph().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPlayerReference holds the Player to the model's player on every
// trace of replayCases at every tick scheme; on the long trace each
// per-48 advance spans three blocks or more, so each runs the whole
// hint pipeline.
func TestPlayerReference(t *testing.T) {
	for name, rc := range replayCases(t) {
		if err := rc.tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for tickName, ticks := range rc.ticks() {
			t.Run(name+"/"+tickName, func(t *testing.T) {
				minSpan := 0
				if rc.long && tickName == "per-48" {
					minSpan = 3 * stageBlock
				}
				replayBoth(t, rc.tr, rc.net(), ticks, minSpan)
			})
		}
	}
}

// FuzzPlayer holds the Player to the model's player on fuzzed
// compositions: a generated trace of up to 2000 initial sessions, a
// flash crowd, a mass failure and a partition at fuzzed instants and
// fractions (a composition the trace rejects is skipped), replayed in
// advances of a fuzzed number of events.
func FuzzPlayer(f *testing.F) {
	f.Add(uint64(1), uint16(300), 0.3, 0.2, 0.5, 0.4, 0.25, uint8(7))
	f.Add(uint64(2), uint16(20), 0.9, 1.0, 0.1, 1.0, 0.0, uint8(0))
	f.Add(uint64(3), uint16(1500), 0.5, 0.5, 0.05, 0.6, 0.9, uint8(47))
	f.Fuzz(func(t *testing.T, seed uint64, initial uint16, at, crowd, fail, split, part float64, every uint8) {
		cfg := testConfig()
		cfg.Initial = 1 + int(initial%2000)
		tr := mustGenerate(t, cfg, seed)
		h := cfg.Horizon
		_ = tr.AddFlashCrowd(at*h, int(crowd*float64(cfg.Initial)), SessionDist{Kind: Exponential, Mean: 50}, xrand.New(seed+1))
		_ = tr.AddMassFailure(at*h/2, fail, xrand.New(seed+2))
		_ = tr.AddPartitionHeal(split*h/2, split*h/2+(1-split/2)*h/2, part, xrand.New(seed+3))
		var ticks []float64
		for i := int(every); i < len(tr.Events); i += 1 + int(every) {
			ticks = append(ticks, tr.Events[i].T)
		}
		replayBoth(t, tr, newNet(tr.Initial, seed), append(ticks, h), 0)
	})
}

// TestPlayerHintsEachDepartureBeforeItsLeave pins the departure hints'
// schedule: the peer of every Leave whose session is bound when its
// block is hinted (an initial session, or one whose Join sits in an
// earlier block) is handed to HintRemove exactly once, by that block's
// hint pass, while alive; no other peer is. A hint pass run after its
// block's events would find those sessions unbound and hint nothing.
func TestPlayerHintsEachDepartureBeforeItsLeave(t *testing.T) {
	for name, rc := range replayCases(t) {
		evs := rc.tr.Events
		joinAt := map[int32]int{} // session -> index of its Join
		for i, ev := range evs {
			if ev.Op == Join {
				joinAt[ev.Session] = i
			}
		}
		for tickName, ticks := range rc.ticks() {
			t.Run(name+"/"+tickName, func(t *testing.T) {
				net := rc.net().CloneCOW()
				p, err := NewPlayer(rc.tr, net)
				if err != nil {
					t.Fatal(err)
				}
				hinted := map[int32]int{} // session -> hints of its peer
				p.hintRemove = func(g *graph.Graph, id graph.NodeID) {
					s := int32(-1)
					for _, ev := range evs[p.next:min(p.next+stageBlock, len(evs))] {
						if ev.Op == Leave && p.nodes[ev.Session] == id {
							s = ev.Session
						}
					}
					if s < 0 || g != net.Graph() || !g.Alive(id) {
						t.Fatalf("at event %d: peer %d hinted outside its block, dead or unbound", p.next, id)
					}
					hinted[s]++
					g.HintRemove(id)
				}
				rng := xrand.New(32)
				want := 0
				for _, tick := range ticks {
					from := p.next
					p.AdvanceTo(net, tick, rng)
					for i := from; i < p.next; i++ {
						ev := evs[i]
						if ev.Op != Leave {
							continue
						}
						j, joined := joinAt[ev.Session]
						bound := !joined || j < from+(i-from)/stageBlock*stageBlock
						if n := hinted[ev.Session]; bound && n != 1 || !bound && n != 0 {
							t.Fatalf("leave at event %d (session %d, bound %v) hinted %d times", i, ev.Session, bound, n)
						}
						if bound {
							want++
						}
					}
				}
				if want == 0 || len(hinted) != want {
					t.Fatalf("%d sessions hinted, %d bound departures", len(hinted), want)
				}
			})
		}
	}
}

// TestPlayerFloorSkipsLeaves pins what the hand-built trace is for: the
// replay reaches the Size() <= 1 floor and a departure is refused.
func TestPlayerFloorSkipsLeaves(t *testing.T) {
	tr := handBuilt()
	net := handNet()
	p, err := NewPlayer(tr, net)
	if err != nil {
		t.Fatal(err)
	}
	joins, leaves := p.Finish(net, xrand.New(32))
	if joins != tr.Joins() {
		t.Fatalf("%d joins applied, trace has %d", joins, tr.Joins())
	}
	if leaves >= tr.Leaves() || net.Size() != tr.Initial+joins-leaves || net.Size() < 1 {
		t.Fatalf("%d of %d leaves applied, size %d: the floor skipped nothing", leaves, tr.Leaves(), net.Size())
	}
}

// Finish applies all remaining events (AdvanceTo the horizon).
func (p *Player) Finish(net *overlay.Network, rng *xrand.Rand) (joins, leaves int) {
	return p.AdvanceTo(net, p.tr.Horizon, rng)
}

// Done reports whether every event has been applied.
func (p *Player) Done() bool { return p.next >= len(p.tr.Events) }
