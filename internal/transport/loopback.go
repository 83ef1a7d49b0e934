package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"p2psize/internal/metrics"
)

// Handler receives a peer's inbound traffic from a transport. The
// cluster node daemon implements it; estimator-only deployments leave
// peers unbound and the transport acts as a metered null device.
type Handler interface {
	// ServeOneway receives count protocol messages of the kind.
	ServeOneway(from NodeID, kind metrics.Kind, count uint64)
	// ServeRequest answers an RPC; the returned payload (or error) is
	// sent back to the requester.
	ServeRequest(from NodeID, op string, payload []byte) ([]byte, error)
}

// Loopback is the in-process transport: frames are dispatched to bound
// handlers synchronously on the caller's goroutine. With no handler
// bound for the destination, Deliver counts and returns — which is
// exactly the simulated path, so installing a Loopback under the overlay
// is behaviourally invisible to the estimators (the byte-identity the
// determinism suite asserts). Safe for concurrent use.
type Loopback struct {
	mu       sync.RWMutex
	handlers map[NodeID]Handler
	closed   bool
	events   chan Event

	delivered   atomic.Uint64
	requests    atomic.Uint64
	errOutcomes atomic.Uint64
}

// NewLoopback builds an empty in-process bus.
func NewLoopback() *Loopback {
	return &Loopback{
		handlers: make(map[NodeID]Handler),
		events:   make(chan Event, 64),
	}
}

// Deliver implements Transport: dispatch to the destination's handler,
// or count and return when none (or no destination) is bound.
func (l *Loopback) Deliver(to NodeID, kind metrics.Kind, count uint64) error {
	l.mu.RLock()
	h := l.handlers[to]
	closed := l.closed
	l.mu.RUnlock()
	if closed {
		l.errOutcomes.Add(1)
		return fmt.Errorf("transport: loopback is closed")
	}
	l.delivered.Add(count)
	if h != nil && to != noneID {
		h.ServeOneway(noneID, kind, count)
	}
	return nil
}

// Request implements Transport: a synchronous call into the
// destination's handler.
func (l *Loopback) Request(to NodeID, op string, payload []byte) ([]byte, error) {
	l.mu.RLock()
	h := l.handlers[to]
	closed := l.closed
	l.mu.RUnlock()
	if closed {
		l.errOutcomes.Add(1)
		return nil, fmt.Errorf("transport: loopback is closed")
	}
	if h == nil {
		l.errOutcomes.Add(1)
		return nil, fmt.Errorf("transport: no handler bound for peer %d", to)
	}
	resp, err := h.ServeRequest(noneID, op, payload)
	if err != nil {
		l.errOutcomes.Add(1)
		return nil, err
	}
	l.requests.Add(1)
	return resp, nil
}

// Liveness implements Transport.
func (l *Loopback) Liveness() <-chan Event { return l.events }

// Close implements Transport; it is idempotent.
func (l *Loopback) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.handlers = make(map[NodeID]Handler)
	close(l.events)
	return nil
}
