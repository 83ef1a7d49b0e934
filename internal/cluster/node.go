// Package cluster is the live runtime behind p2psize.RunCluster: node
// daemons started in this process, each on its own loopback UDP socket,
// and a coordinator that wires them into a plan topology, drives the
// registry's transport-capable estimator families against them through
// internal/monitor, and cross-validates every live estimate against a
// simulated run on the identical topology.
//
// The paper's evaluation is simulation-only, and so is this runtime's
// arithmetic: the daemons hold a neighbor table and count the protocol
// messages they receive, while the estimators run in the coordinator.
// What the live run exercises is the wire (frame codec, sockets,
// retransmission, the control plane). The correctness argument is the
// transport seam's: metering happens before delivery and delivery
// errors never reach estimator arithmetic, so a benign live run is
// bit-equal to the simulated oracle under equal seeds — divergence can
// only enter through liveness-driven membership changes, which is
// exactly what the coordinator's tolerance check bounds.
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/transport"
)

// NeighborInfo is one entry of a node's neighbor table: the peer's
// overlay ID and its transport address.
type NeighborInfo struct {
	ID   transport.NodeID `json:"id"`
	Addr string           `json:"addr"`
}

// RPC payloads (JSON-encoded in Frame.Payload). The coordinator speaks
// these ops; ping and neighbors carry no request payload, and the ping
// reply is the daemon's Received counter, 8 bytes big-endian.
type assignPayload struct {
	// ID is the overlay ID the coordinator assigns to the daemon.
	ID transport.NodeID `json:"id"`
	// Neighbors is the daemon's full neighbor table per the plan topology.
	Neighbors []NeighborInfo `json:"neighbors"`
}

type neighborsPayload struct {
	ID        transport.NodeID `json:"id"`
	Neighbors []NeighborInfo   `json:"neighbors"`
}

// Node is one daemon: a UDP transport endpoint plus the neighbor
// bookkeeping the coordinator's RPCs maintain. It serves the cluster
// control plane (assign/neighbors/ping) and absorbs the estimators'
// one-way protocol traffic, keeping one total of it.
type Node struct {
	tr *transport.UDP

	mu        sync.Mutex
	id        transport.NodeID
	neighbors map[transport.NodeID]string

	received atomic.Uint64
}

// NewNode opens a daemon on addr ("127.0.0.1:0" for an ephemeral port)
// and starts serving. The overlay ID arrives later via the "assign" RPC.
func NewNode(addr string) (*Node, error) {
	n := &Node{
		id:        graph.None,
		neighbors: make(map[transport.NodeID]string),
	}
	tr, err := transport.NewUDP(transport.UDPConfig{Addr: addr, Self: graph.None})
	if err != nil {
		return nil, err
	}
	n.tr = tr
	tr.SetHandler(n)
	return n, nil
}

// Addr returns the daemon's bound socket address.
func (n *Node) Addr() string { return n.tr.LocalAddr() }

// neighborList snapshots the table sorted by ID; callers hold n.mu.
func (n *Node) neighborList() []NeighborInfo {
	out := make([]NeighborInfo, 0, len(n.neighbors))
	for id, addr := range n.neighbors {
		out = append(out, NeighborInfo{ID: id, Addr: addr})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Received returns how many one-way protocol messages landed here.
func (n *Node) Received() uint64 { return n.received.Load() }

// Close releases the daemon's socket. Idempotent.
func (n *Node) Close() error { return n.tr.Close() }

// ServeOneway implements transport.Handler: protocol traffic is counted
// and absorbed (the estimator arithmetic runs at the coordinator; the
// daemons are the network it exercises).
func (n *Node) ServeOneway(from transport.NodeID, kind metrics.Kind, count uint64) {
	n.received.Add(count)
}

// ServeRequest implements transport.Handler: the cluster control plane.
func (n *Node) ServeRequest(from transport.NodeID, op string, payload []byte) ([]byte, error) {
	switch op {
	case "ping":
		return binary.BigEndian.AppendUint64(nil, n.Received()), nil
	case "assign":
		var req assignPayload
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, fmt.Errorf("assign: %w", err)
		}
		n.mu.Lock()
		n.id = req.ID
		n.neighbors = make(map[transport.NodeID]string, len(req.Neighbors))
		for _, nb := range req.Neighbors {
			n.neighbors[nb.ID] = nb.Addr
		}
		n.mu.Unlock()
		n.tr.SetSelf(req.ID)
		for _, nb := range req.Neighbors {
			if err := n.tr.SetPeer(nb.ID, nb.Addr); err != nil {
				return nil, fmt.Errorf("assign: %w", err)
			}
		}
		return nil, nil
	case "neighbors":
		n.mu.Lock()
		resp := neighborsPayload{ID: n.id, Neighbors: n.neighborList()}
		n.mu.Unlock()
		return json.Marshal(resp)
	default:
		return nil, fmt.Errorf("unknown op %q", op)
	}
}
