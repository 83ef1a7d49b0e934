// Package transport is the physical message layer underneath the
// overlay's metering surface. The simulation path needs no transport at
// all — overlay.Send/SendN meter and return — but a deployment needs the
// metered message to actually cross a wire. The seam is deliberately
// one-way: the overlay hands every metered send to the installed
// Transport for delivery and ignores delivery errors, so estimator
// arithmetic (and therefore every frozen experiment checksum) is
// identical whether the bytes move in-process, over UDP, or not at all.
// Delivery failures surface out-of-band instead: on the liveness channel
// (for failure detection by a coordinator) and on the transport's error
// counter (for diagnostics).
//
// Two implementations ship:
//
//   - Loopback: an in-process bus. Frames are dispatched to registered
//     handlers synchronously; with no handler registered it is a metered
//     null device. Safe for concurrent use, so the parallel experiment
//     harnesses can share one.
//   - UDP: real sockets. Length-prefixed binary frames (frame.go);
//     pending oneway traffic is an atomic count per (peer, kind) that a
//     send adds to without a lock, written as one frame per kind in a
//     single datagram — at once when the sender is idle, folded into
//     the next datagram under load, always before a Request or Close —
//     request/response matching by sequence number, retransmission on a
//     timeout mirroring the fault layer's RTO pricing model, and
//     liveness events when a peer stops answering.
package transport

import (
	"p2psize/internal/graph"
	"p2psize/internal/metrics"
)

// NodeID aliases the graph node identifier: transports address peers by
// the same dense IDs the overlay uses.
type NodeID = graph.NodeID

// Event is one liveness observation: a peer transitioned up or down.
type Event struct {
	// Peer is the overlay ID of the observed peer.
	Peer NodeID
	// Up reports the new state: true when the peer (re)appeared, false
	// when it stopped answering.
	Up bool
	// Addr is the peer's transport address, when known ("" for loopback).
	Addr string
}

// Transport moves metered overlay messages between peers. Deliver is the
// overlay seam (fire-and-forget, called on every metered Send/SendN);
// Request is the control-plane RPC surface the cluster runtime uses for
// join/leave/neighbor bookkeeping.
//
// Implementations must be safe for concurrent use: the parallel
// experiment harnesses share one transport across estimation instances.
type Transport interface {
	// Deliver carries count protocol messages of the given kind to the
	// peer (graph.None for unaddressed sends, e.g. batch metering whose
	// destinations the protocol does not expose). The overlay ignores
	// the error by design; implementations record failures internally
	// and signal persistent ones on the liveness channel.
	Deliver(to NodeID, kind metrics.Kind, count uint64) error
	// Request sends an op with a payload to the peer and waits for the
	// matching response.
	Request(to NodeID, op string, payload []byte) ([]byte, error)
	// Liveness returns the channel of peer up/down transitions. The
	// channel is closed by Close. Receivers must drain promptly;
	// implementations drop events rather than block.
	Liveness() <-chan Event
	// Close releases the transport's resources and closes the liveness
	// channel. Close is idempotent.
	Close() error
}

// Stats is a snapshot of a transport's delivery accounting, exposed by
// both implementations for tests and diagnostics.
type Stats struct {
	// Delivered counts protocol messages handed over successfully
	// (written to the socket for UDP, dispatched for loopback).
	Delivered uint64
	// Datagrams counts the datagrams that carried them (UDP only): the
	// flusher's writes of oneway frames, not the request/response
	// exchanges.
	Datagrams uint64
	// Requests counts completed request/response exchanges.
	Requests uint64
	// Retransmits counts frames resent after an RTO expiry (UDP only).
	Retransmits uint64
	// Errors counts deliveries and requests that ultimately failed.
	Errors uint64
}
