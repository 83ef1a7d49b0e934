package trace

import (
	"fmt"
	"slices"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// refPlayer is the replay one event at a time: no blocks, no read-ahead.
// It is the reference Player.AdvanceTo must match at every tick.
type refPlayer struct {
	tr            *Trace
	next          int
	nodes         []graph.NodeID
	joins, leaves int
}

func newRefPlayer(tr *Trace, net *overlay.Network) *refPlayer {
	p := &refPlayer{tr: tr, nodes: make([]graph.NodeID, tr.Initial+tr.Joins())}
	for s := range p.nodes {
		p.nodes[s] = graph.None
		if s < tr.Initial {
			p.nodes[s] = net.Graph().AliveAt(s)
		}
	}
	return p
}

func (p *refPlayer) advanceTo(net *overlay.Network, t float64, rng *xrand.Rand) (joins, leaves int) {
	for p.next < len(p.tr.Events) && p.tr.Events[p.next].T <= t {
		ev := p.tr.Events[p.next]
		p.next++
		switch ev.Op {
		case Join:
			p.nodes[ev.Session] = net.JoinRandomDegree(rng)
			joins++
		case Leave:
			id := p.nodes[ev.Session]
			if !net.Alive(id) || net.Size() <= 1 {
				continue
			}
			net.Leave(id)
			p.nodes[ev.Session] = graph.None
			leaves++
		}
	}
	p.joins += joins
	p.leaves += leaves
	return joins, leaves
}

// sameGraph compares two graphs element for element: alive sets, alive
// list order, adjacency lists in order.
func sameGraph(a, b *graph.Graph) error {
	if a.NumIDs() != b.NumIDs() || a.NumAlive() != b.NumAlive() || a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("shape differs: ids %d/%d alive %d/%d edges %d/%d",
			a.NumIDs(), b.NumIDs(), a.NumAlive(), b.NumAlive(), a.NumEdges(), b.NumEdges())
	}
	for id := graph.NodeID(0); int(id) < a.NumIDs(); id++ {
		if a.Alive(id) != b.Alive(id) {
			return fmt.Errorf("alive state differs at %d", id)
		}
		if !slices.Equal(a.Neighbors(id), b.Neighbors(id)) {
			return fmt.Errorf("adjacency differs at %d: %v vs %v", id, a.Neighbors(id), b.Neighbors(id))
		}
	}
	for i := 0; i < a.NumAlive(); i++ {
		if a.AliveAt(i) != b.AliveAt(i) {
			return fmt.Errorf("alive list differs at slot %d", i)
		}
	}
	return nil
}

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
	ev := func(t float64, s int, op Op) { tr.Events = append(tr.Events, Event{T: t, Session: s, Op: op}) }
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

// TestPlayerReference replays each trace twice on equal overlays — the
// Player and the event-at-a-time reference — stopping at the same ticks,
// and demands identical counts, session tables and generator states at
// every tick and identical graphs (on COW clones: identical owned page
// counts) at the end.
func TestPlayerReference(t *testing.T) {
	for name, rc := range replayCases(t) {
		tr := rc.tr
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for tickName, ticks := range rc.ticks() {
			t.Run(name+"/"+tickName, func(t *testing.T) {
				base := rc.net()
				want, got := base.CloneCOW(), base.CloneCOW()
				ref := newRefPlayer(tr, want)
				p, err := NewPlayer(tr, got)
				if err != nil {
					t.Fatal(err)
				}
				wantRng, gotRng := xrand.New(32), xrand.New(32)
				small := tr.Initial <= 400
				joins, leaves := 0, 0
				for _, tick := range ticks {
					from := p.next
					wj, wl := ref.advanceTo(want, tick, wantRng)
					gj, gl := p.AdvanceTo(got, tick, gotRng)
					joins, leaves = joins+gj, leaves+gl
					if gj != wj || gl != wl {
						t.Fatalf("advance to %g: %d joins %d leaves, reference %d and %d", tick, gj, gl, wj, wl)
					}
					if *gotRng != *wantRng {
						t.Fatalf("advance to %g: generator state differs", tick)
					}
					if p.next != ref.next || !slices.Equal(p.nodes, ref.nodes) {
						t.Fatalf("advance to %g: cursor or session table differs", tick)
					}
					if rc.long && tickName == "per-48" && p.next-from < 3*stageBlock {
						t.Fatalf("advance to %g spans %d events, fewer than three blocks", tick, p.next-from)
					}
					if small {
						if err := got.Graph().CheckInvariants(); err != nil {
							t.Fatalf("advance to %g: %v", tick, err)
						}
					}
				}
				if !p.Done() || joins != ref.joins || leaves != ref.leaves {
					t.Fatalf("totals: done %v, %d joins %d leaves, reference %d and %d",
						p.Done(), joins, leaves, ref.joins, ref.leaves)
				}
				if err := sameGraph(want.Graph(), got.Graph()); err != nil {
					t.Fatal(err)
				}
				if err := got.Graph().CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				wg, gg := want.Graph(), got.Graph()
				if w, g := wg.TotalPages()-wg.SharedPages(), gg.TotalPages()-gg.SharedPages(); w != g {
					t.Fatalf("Player owns %d pages, the reference %d", g, w)
				}
			})
		}
	}
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
		joinAt := map[int]int{} // session -> index of its Join
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
				hinted := map[int]int{} // session -> hints of its peer
				p.hintRemove = func(g *graph.Graph, id graph.NodeID) {
					s := -1
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
