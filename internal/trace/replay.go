package trace

import (
	"fmt"

	"p2psize/internal/graph"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// Player replays a trace onto an overlay, mapping trace sessions to
// overlay peers. Joins wire new peers with the overlay's usual random-
// degree rule (drawing from the caller's rng) and departures use the
// paper's non-repairing Leave, so a replayed trace exercises exactly the
// membership dynamics the comparative study simulates — only the
// schedule comes from the trace instead of per-step rates.
//
// A Player advances monotonically; build a fresh Player (and an
// identically seeded rng) to replay the same trace again. Replays are
// deterministic: equal (trace, overlay, rng seed) give byte-identical
// overlay states at every point in time, which is what lets concurrent
// monitoring instances replay one trace on per-instance clones.
type Player struct {
	tr     *Trace
	next   int
	nodes  []graph.NodeID // by session; graph.None before the join and after the leave
	joins  int
	leaves int
}

// NewPlayer validates the trace against the overlay and binds the
// initial sessions: session i maps to the overlay's i-th live peer, so
// the overlay must hold exactly tr.Initial peers.
func NewPlayer(tr *Trace, net *overlay.Network) (*Player, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if net.Size() != tr.Initial {
		return nil, fmt.Errorf("trace: overlay has %d peers, trace expects %d initial sessions",
			net.Size(), tr.Initial)
	}
	// Validate bounds every session id by Initial + Joins, so one flat
	// table indexed by session replaces a map probe per event.
	p := &Player{tr: tr, nodes: make([]graph.NodeID, tr.Initial+tr.Joins())}
	g := net.Graph()
	for s := range p.nodes {
		p.nodes[s] = graph.None
		if s < tr.Initial {
			p.nodes[s] = g.AliveAt(s)
		}
	}
	return p, nil
}

// AdvanceTo applies every event with T <= t (that has not been applied
// yet) to the overlay and returns the join and leave counts of this
// advance. Leaves of already-dead peers (or when only one peer remains)
// are skipped, mirroring the churn runner's floor.
func (p *Player) AdvanceTo(net *overlay.Network, t float64, rng *xrand.Rand) (joins, leaves int) {
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

// Finish applies all remaining events (AdvanceTo the horizon).
func (p *Player) Finish(net *overlay.Network, rng *xrand.Rand) (joins, leaves int) {
	return p.AdvanceTo(net, p.tr.Horizon, rng)
}

// Done reports whether every event has been applied.
func (p *Player) Done() bool { return p.next >= len(p.tr.Events) }

// TotalJoins returns the number of peers added so far.
func (p *Player) TotalJoins() int { return p.joins }

// TotalLeaves returns the number of peers removed so far.
func (p *Player) TotalLeaves() int { return p.leaves }
