package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"p2psize/internal/graph"
	"p2psize/internal/monitor"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/registry"
	"p2psize/internal/transport"
	"p2psize/internal/xrand"
)

// The monitor grid's spacing and the accepted live-vs-simulated
// divergence. The cadence is simulated time between samples; wall time
// is however long the estimations take. A benign run is bit-equal, so
// the tolerance only absorbs liveness-driven membership changes.
const (
	cadence   = 10
	tolerance = 0.05
)

// Config drives one coordinator run.
type Config struct {
	// Plan is the target topology; its alive nodes must be exactly
	// 0..N-1, one per in-process daemon. Required.
	Plan *graph.Graph
	// MaxDeg is the overlay degree cap for joins (0 = 10).
	MaxDeg int
	// Estimators is the roster; no descriptor may be Snapshot.
	// Required.
	Estimators []registry.Descriptor
	// Opts carries the families' tunable knobs.
	Opts registry.Options
	// Seed fixes each family's rng stream (seed + StreamOffset); the
	// live and simulated runs share it, which is what makes the benign
	// case bit-equal.
	Seed uint64
	// Samples is the estimations per family (0 = 3).
	Samples int
	// Logf, when set, receives progress lines. It is called from one
	// goroutine at a time, so it needs no lock of its own.
	Logf func(format string, args ...any)

	// started, when set, is handed the daemons once they are
	// bootstrapped, and rto and retries tune the coordinator's
	// retransmission (0 = the transport's defaults): the package's tests
	// close daemons in the middle of a run and need them to go
	// unreachable fast.
	started func([]*Node)
	rto     time.Duration
	retries int
}

// Family is one estimator family's cross-validation outcome.
type Family struct {
	// Name is the canonical registry name.
	Name string
	// Live and Sim are the per-sample raw estimates of the live-cluster
	// and simulated runs.
	Live, Sim []float64
	// MaxDivergence is max |live/sim - 1| over the samples (+Inf when
	// exactly one side failed a sample; 0 for the benign bit-equal case).
	MaxDivergence float64
	// Messages is the live run's metered protocol traffic.
	Messages uint64
}

// Report is the outcome of a coordinator run.
type Report struct {
	// Nodes is the cluster size.
	Nodes int
	// Families holds the per-family cross-validation, in roster order.
	Families []Family
	// Tolerance is the applied bound and Within whether every family's
	// MaxDivergence respected it.
	Tolerance float64
	Within    bool
	// Departed lists daemons that stopped answering during the run.
	Departed []transport.NodeID
	// Transport is the coordinator transport's delivery accounting.
	Transport transport.Stats
	// Received is how many protocol messages the surviving daemons
	// report having absorbed, read off their ping replies after the
	// final flush. It equals Transport.Delivered unless a socket buffer
	// overflowed or a daemon departed with its count.
	Received uint64
}

// pingSource is the coordinator's monitor.Timeline: every grid tick it
// pings the daemons still considered alive and Leaves the ones that
// exhausted the retransmission budget, so the overlay mirror tracks
// real liveness.
type pingSource struct {
	tr       transport.Transport
	departed []transport.NodeID
	logf     func(string, ...any)
}

func (s *pingSource) AdvanceTo(net *overlay.Network, t float64) error {
	for _, id := range net.Graph().AliveIDs() { // a copy: Leave below does not disturb it
		//detlint:allow meterseam — liveness probes are control-plane RPC, not metered protocol traffic
		if _, err := s.tr.Request(id, "ping", nil); err != nil {
			if !errors.Is(err, transport.ErrPeerUnreachable) {
				return err
			}
			if net.Size() <= 1 {
				return fmt.Errorf("cluster: daemon %d unreachable and no peers left", id)
			}
			net.Leave(id)
			s.departed = append(s.departed, id)
			if s.logf != nil {
				s.logf("daemon %d stopped answering at t=%g; removed from the live overlay", id, t)
			}
		}
	}
	return nil
}

// Run bootstraps one in-process daemon per plan node, wires them to
// the plan topology, runs the roster over the live cluster and over a
// simulated overlay on the identical topology, and reports the
// per-family divergence against the tolerance.
func Run(cfg Config) (*Report, error) {
	if cfg.Plan == nil {
		return nil, errors.New("cluster: Config.Plan is required")
	}
	n := cfg.Plan.NumAlive()
	if n < 2 {
		return nil, fmt.Errorf("cluster: plan has %d nodes; need >= 2", n)
	}
	for i := 0; i < n; i++ {
		if !cfg.Plan.Alive(graph.NodeID(i)) {
			return nil, fmt.Errorf("cluster: plan node IDs must be dense 0..%d (node %d is not alive)", n-1, i)
		}
	}
	if len(cfg.Estimators) == 0 {
		return nil, errors.New("cluster: Config.Estimators is required")
	}
	for _, d := range cfg.Estimators {
		if d.Snapshot {
			return nil, fmt.Errorf("cluster: estimator %q does not support the live transport (snapshot-based); drop it from the roster", d.Name)
		}
	}
	maxDeg := cfg.MaxDeg
	if maxDeg == 0 {
		maxDeg = 10
	}
	samples := cfg.Samples
	if samples == 0 {
		samples = 3
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// One daemon per plan node, in this process, on an ephemeral port.
	nodes := make([]*Node, 0, n)
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		nd, err := NewNode("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("cluster: bootstrap daemon %d: %w", i, err)
		}
		nodes = append(nodes, nd)
		addrs = append(addrs, nd.Addr())
	}
	if cfg.started != nil {
		cfg.started(nodes)
	}
	logf("bootstrapped %d in-process daemons on 127.0.0.1", n)

	// The coordinator's own transport: control-plane RPCs plus the live
	// overlay's protocol traffic.
	coord, err := transport.NewUDP(transport.UDPConfig{
		Addr: "127.0.0.1:0", Self: graph.None, RTO: cfg.rto, Retries: cfg.retries,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: coordinator socket: %w", err)
	}
	defer coord.Close()
	for i := 0; i < n; i++ {
		if err := coord.SetPeer(graph.NodeID(i), addrs[i]); err != nil {
			return nil, err
		}
	}

	// Assign IDs and neighbor tables per the plan, then read the tables
	// back and assemble the live topology from the daemons' own answers —
	// the overlay the estimators run on is what the cluster reports, not
	// what the coordinator intended.
	for i := 0; i < n; i++ {
		id := graph.NodeID(i)
		nbs := planNeighbors(cfg.Plan, id, addrs)
		payload, err := json.Marshal(assignPayload{ID: id, Neighbors: nbs})
		if err != nil {
			return nil, err
		}
		//detlint:allow meterseam — topology assignment is control-plane RPC, not metered protocol traffic
		if _, err := coord.Request(id, "assign", payload); err != nil {
			return nil, fmt.Errorf("cluster: assign daemon %d (%s): %w", i, addrs[i], err)
		}
	}
	live := graph.NewWithNodes(n)
	for i := 0; i < n; i++ {
		id := graph.NodeID(i)
		//detlint:allow meterseam — neighbor-table readback is control-plane RPC, not metered protocol traffic
		resp, err := coord.Request(id, "neighbors", nil)
		if err != nil {
			return nil, fmt.Errorf("cluster: neighbors of daemon %d: %w", i, err)
		}
		var tab neighborsPayload
		if err := json.Unmarshal(resp, &tab); err != nil {
			return nil, fmt.Errorf("cluster: neighbors of daemon %d: %w", i, err)
		}
		if tab.ID != id {
			return nil, fmt.Errorf("cluster: daemon at %s answers as %d, assigned %d", addrs[i], tab.ID, id)
		}
		want := planNeighbors(cfg.Plan, id, addrs)
		if len(tab.Neighbors) != len(want) {
			return nil, fmt.Errorf("cluster: daemon %d reports %d neighbors, plan has %d", i, len(tab.Neighbors), len(want))
		}
		for j, nb := range tab.Neighbors {
			if nb.ID != want[j].ID {
				return nil, fmt.Errorf("cluster: daemon %d neighbor %d is %d, plan says %d", i, j, nb.ID, want[j].ID)
			}
			if nb.ID > id { // each edge once, from its lower endpoint
				live.AddEdge(id, nb.ID)
			}
		}
	}
	logf("cluster of %d daemons wired and verified against the plan topology", n)

	// Two overlays on the identical assembled topology: the live one
	// hands every metered send to the coordinator transport, the
	// simulated oracle keeps everything in-process. Same seeds, same
	// adjacency order, so benign estimates are bit-equal. The live one
	// is a copy-on-write clone of the assembled graph, its trunk: the
	// ping source Leaves on it, and the oracle, which nothing writes,
	// reads the assembled graph itself.
	liveNet := overlay.New(live.CloneCOW(), maxDeg, nil)
	liveNet.SetTransport(coord)
	simNet := overlay.New(live, maxDeg, nil)
	liveIns, err := roster(cfg, liveNet)
	if err != nil {
		return nil, err
	}
	simIns, err := roster(cfg, simNet)
	if err != nil {
		return nil, err
	}

	// The oracle runs beside the live run. The two share only the
	// assembled graph, which neither writes; the oracle owns its roster
	// and streams, installs no transport and logs nothing, so logf
	// keeps one caller at a time. Map joins both on every path and returns
	// the live run's error ahead of the oracle's.
	horizon := cadence * float64(samples)
	mcfg := monitor.Config{Cadence: cadence}
	src := &pingSource{tr: coord, logf: logf}
	res, err := parallel.Map(2, 2, func(i int) (*monitor.Result, error) {
		if i == 0 {
			r, err := monitor.RunLive(liveIns, liveNet, src, horizon, mcfg)
			if err != nil {
				return nil, fmt.Errorf("cluster: live run: %w", err)
			}
			return r, nil
		}
		r, err := monitor.RunLive(simIns, simNet, nil, horizon, mcfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: simulated run: %w", err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	liveRes, simRes := res[0], res[1]

	report := &Report{
		Nodes:     n,
		Tolerance: tolerance,
		Within:    true,
		Departed:  src.departed,
	}
	for k := range liveIns {
		f := Family{
			Name:     cfg.Estimators[k].Name,
			Live:     liveRes.Raw[k],
			Sim:      simRes.Raw[k],
			Messages: liveRes.Messages[k],
		}
		f.MaxDivergence = maxDivergence(f.Live, f.Sim)
		if !(f.MaxDivergence <= tolerance) {
			report.Within = false
		}
		report.Families = append(report.Families, f)
		logf("%s: live %v vs sim %v (max divergence %.3g, %d msgs)",
			f.Name, f.Live, f.Sim, f.MaxDivergence, f.Messages)
	}

	// Conservation across the wire: everything delivered is flushed (the
	// pings do it, like every request), the daemons serve their sockets
	// in order, so each reply counts all that reached its daemon. A
	// daemon that stops answering now keeps its count to itself; the
	// shortfall shows in the line below.
	for _, id := range liveNet.Graph().AliveIDs() {
		//detlint:allow meterseam — the counter readback is control-plane RPC, not metered protocol traffic
		resp, err := coord.Request(id, "ping", nil)
		if err == nil && len(resp) == 8 {
			report.Received += binary.BigEndian.Uint64(resp)
		}
	}
	logf("daemons absorbed %d of %d delivered protocol messages", report.Received, coord.Stats().Delivered)

	report.Transport = coord.Stats()
	return report, nil
}

// planNeighbors builds a node's neighbor table from the plan, sorted by
// ID (graph adjacency order is insertion order, not sorted).
func planNeighbors(plan *graph.Graph, id graph.NodeID, addrs []string) []NeighborInfo {
	nbs := append([]graph.NodeID(nil), plan.Neighbors(id)...)
	slices.Sort(nbs)
	out := make([]NeighborInfo, len(nbs))
	for i, nb := range nbs {
		out[i] = NeighborInfo{ID: nb, Addr: addrs[nb]}
	}
	return out
}

// roster builds one monitor instance per family on net, each family on
// its fixed (Seed + StreamOffset) stream.
func roster(cfg Config, net *overlay.Network) ([]monitor.Instance, error) {
	out := make([]monitor.Instance, len(cfg.Estimators))
	for k, d := range cfg.Estimators {
		e, err := d.Build(net, xrand.New(cfg.Seed+d.StreamOffset), cfg.Opts)
		if err != nil {
			return nil, fmt.Errorf("cluster: estimator %q: %w", d.Name, err)
		}
		out[k] = monitor.Instance{Estimator: e}
	}
	return out, nil
}

// maxDivergence is max |live/sim - 1| over the samples where at least
// one side produced a value; a one-sided failure is +Inf, matching
// failures on both sides are skipped.
func maxDivergence(live, sim []float64) float64 {
	div := 0.0
	for i := range live {
		ln, sn := math.IsNaN(live[i]), math.IsNaN(sim[i])
		switch {
		case ln && sn:
			continue
		case ln != sn:
			return math.Inf(1)
		case sim[i] == 0:
			if live[i] != 0 {
				return math.Inf(1)
			}
		default:
			div = math.Max(div, math.Abs(live[i]/sim[i]-1))
		}
	}
	return div
}
