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
// block's departures are staged), in-block joins and leaves at one T,
// and more departures than the Size() <= 1 floor lets through.
func handBuilt() *Trace {
	tr := &Trace{Name: "hand", Initial: 4, Horizon: 100}
	ev := func(t float64, s int, op Op) { tr.Events = append(tr.Events, Event{T: t, Session: s, Op: op}) }
	ev(1, 4, Join)
	ev(1, 4, Leave) // same instant, same block
	ev(2, 5, Join)
	ev(3, 0, Leave)
	ev(3, 6, Join)
	ev(4, 5, Leave)
	ev(4, 6, Leave)
	for s := 7; s < 30; s++ { // a burst longer than one block, each gone at once
		ev(10, s, Join)
		ev(10+float64(s)/100, s, Leave)
	}
	ev(50, 1, Leave)
	ev(51, 2, Leave)
	ev(52, 3, Leave) // the last peer: skipped by the floor
	ev(60, 30, Join)
	ev(61, 30, Leave) // applied: two peers are alive again
	tr.Normalize()
	return tr
}

// TestPlayerReference replays each trace twice on equal overlays — the
// Player and the event-at-a-time reference — stopping at the same ticks,
// and demands identical counts, session tables and generator states at
// every tick and identical graphs (on COW clones: identical owned page
// counts) at the end. The tick sets cut the Player's blocks at every
// offset: one advance per event time, one per seven events, one for all.
func TestPlayerReference(t *testing.T) {
	traces := map[string]*Trace{
		"hand":          handBuilt(),
		"weibull-300":   mustGenerate(t, func() Config { c := testConfig(); c.Initial = 300; return c }(), 21),
		"composed-400":  composed(t, 400, 22),
		"composed-3000": composed(t, 3000, 23),
	}
	for name, tr := range traces {
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		perEvent := make([]float64, len(tr.Events))
		var perSeven []float64
		for i, ev := range tr.Events {
			perEvent[i] = ev.T
			if i%7 == 6 {
				perSeven = append(perSeven, ev.T)
			}
		}
		for tickName, ticks := range map[string][]float64{
			"per-event": perEvent,
			"per-seven": append(perSeven, tr.Horizon),
			"whole":     {tr.Horizon},
		} {
			t.Run(name+"/"+tickName, func(t *testing.T) {
				base := newNet(tr.Initial, 31)
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

// TestPlayerFloorSkipsLeaves pins what the hand-built trace is for: the
// replay reaches the Size() <= 1 floor and a departure is refused.
func TestPlayerFloorSkipsLeaves(t *testing.T) {
	tr := handBuilt()
	net := newNet(tr.Initial, 31)
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
