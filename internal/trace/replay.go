package trace

import (
	"fmt"
	"sort"

	"p2psize/internal/graph"
	"p2psize/internal/overlay"
	"p2psize/internal/prefetch"
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
	tr    *Trace
	next  int
	nodes []graph.NodeID // by session; graph.None before the join and after the leave
	// hintRemove is (*graph.Graph).HintRemove: a field, so that a test
	// can watch when each departure is hinted.
	hintRemove func(*graph.Graph, graph.NodeID)
}

// stageBlock is how many events AdvanceTo applies between hint passes;
// the departure hints run one and two blocks ahead of it. Chosen with
// BenchmarkPlayerAdvance.
const stageBlock = 16

// NewPlayer validates the trace against the overlay and binds the
// initial sessions: session i maps to the overlay's i-th live peer, so
// the overlay must hold exactly tr.Initial peers. It reserves on the
// overlay's graph the ids the replay will add (graph.ReserveIDs): one
// per join up to the horizon, the last time a run samples, so that
// tables indexed by id are made once at the ids of the replay's last
// tick.
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
	joins := tr.Joins()
	p := &Player{tr: tr, nodes: make([]graph.NodeID, tr.Initial+joins), hintRemove: (*graph.Graph).HintRemove}
	g := net.Graph()
	g.ReserveIDs(g.NumIDs() + joins)
	g.CopyAlive(p.nodes[:tr.Initial])
	for s := tr.Initial; s < len(p.nodes); s++ {
		p.nodes[s] = graph.None
	}
	return p, nil
}

// AdvanceTo applies every event with T <= t (that has not been applied
// yet) to the overlay and returns the join and leave counts of this
// advance. Leaves of already-dead peers (or when only one peer remains)
// are skipped, mirroring the churn runner's floor.
//
// Events are applied in blocks of stageBlock, and the departures are
// hinted as a pipeline (see hint) so that a Leave finds the lines it
// writes in cache. The hints draw nothing and write nothing.
func (p *Player) AdvanceTo(net *overlay.Network, t float64, rng *xrand.Rand) (joins, leaves int) {
	evs := p.tr.Events
	end := p.next + sort.Search(len(evs)-p.next, func(i int) bool { return evs[p.next+i].T > t })
	g := net.Graph()
	for p.next < end {
		p.hint(g, evs[p.next:end])
		for _, ev := range evs[p.next:min(p.next+stageBlock, end)] {
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
	}
	return joins, leaves
}

// hint runs the departure pipeline for the block at the head of evs:
// two blocks ahead it hints the leaving sessions' p.nodes entries, one
// block ahead the bound leavers' records (read from those entries), and
// for the block itself it reads each leaver's record, hinted a block
// ago, and hints what RemoveNode will write (graph.HintRemove). A
// session whose Join has not been applied yet is still graph.None and
// is passed over; a leave the floor will refuse is hinted anyway — a
// wasted hint, never a wrong result.
func (p *Player) hint(g *graph.Graph, evs []Event) {
	b1, b2, b3 := min(stageBlock, len(evs)), min(2*stageBlock, len(evs)), min(3*stageBlock, len(evs))
	var b prefetch.Batch
	for _, ev := range evs[b2:b3] {
		if ev.Op == Leave {
			b.Add(prefetch.Addr(p.nodes, int(ev.Session)))
		}
	}
	for _, ev := range evs[b1:b2] {
		if id := p.leaver(ev); id != graph.None {
			b.Add(g.RecordAddr(id))
		}
	}
	b.Flush()
	for _, ev := range evs[:b1] {
		if id := p.leaver(ev); id != graph.None {
			p.hintRemove(g, id)
		}
	}
}

// leaver returns the peer ev would remove: graph.None for a Join, and
// for a Leave whose session is not bound to a peer.
func (p *Player) leaver(ev Event) graph.NodeID {
	if ev.Op != Leave {
		return graph.None
	}
	return p.nodes[ev.Session]
}
