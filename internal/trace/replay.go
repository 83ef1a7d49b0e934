package trace

import (
	"fmt"
	"sort"

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
	tr    *Trace
	next  int
	nodes []graph.NodeID // by session; graph.None before the join and after the leave
	// staged accumulates what AdvanceTo's read-ahead loaded, so that the
	// compiler keeps the loads; nothing reads it.
	staged int
}

// stageBlock is how many events AdvanceTo applies between read-aheads
// (4, 16 and 64 measured alike).
const stageBlock = 16

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
	net.Graph().CopyAlive(p.nodes[:tr.Initial])
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
// Events are applied in blocks: before each, the records its departures
// will write (the leaver's and its neighbours') are read as independent
// loads. Only a session whose Join sits in the same block is left out —
// it has no peer yet. The read-ahead draws nothing and writes nothing
// but p.staged.
func (p *Player) AdvanceTo(net *overlay.Network, t float64, rng *xrand.Rand) (joins, leaves int) {
	evs := p.tr.Events
	end := p.next + sort.Search(len(evs)-p.next, func(i int) bool { return evs[p.next+i].T > t })
	g := net.Graph()
	var leaving [stageBlock]graph.NodeID
	for p.next < end {
		block := evs[p.next:min(p.next+stageBlock, end)]
		ids := leaving[:0]
		for _, ev := range block {
			if id := p.nodes[ev.Session]; ev.Op == Leave && id != graph.None {
				ids = append(ids, id)
			}
		}
		p.staged += g.NeighborhoodDegreeSum(ids)
		for _, ev := range block {
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
