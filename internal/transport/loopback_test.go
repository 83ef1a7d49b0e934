package transport

import (
	"errors"
	"sync/atomic"
	"testing"

	"p2psize/internal/metrics"
)

// testHandler is a scriptable Handler for transport tests.
type testHandler struct {
	oneway  atomic.Uint64
	request func(from NodeID, op string, payload []byte) ([]byte, error)
}

func (h *testHandler) ServeOneway(from NodeID, kind metrics.Kind, count uint64) {
	h.oneway.Add(count)
}

func (h *testHandler) ServeRequest(from NodeID, op string, payload []byte) ([]byte, error) {
	if h.request == nil {
		return []byte("ok"), nil
	}
	return h.request(from, op, payload)
}

func TestLoopbackNullDevice(t *testing.T) {
	l := NewLoopback()
	defer l.Close()
	// With nothing bound, Deliver counts and succeeds — the metered
	// null-device behavior the byte-identity suite relies on.
	if err := l.Deliver(3, metrics.KindWalk, 5); err != nil {
		t.Fatalf("unbound deliver: %v", err)
	}
	if err := l.Deliver(noneID, metrics.KindPush, 2); err != nil {
		t.Fatalf("unaddressed deliver: %v", err)
	}
	if got := l.Stats().Delivered; got != 7 {
		t.Fatalf("delivered = %d, want 7", got)
	}
	if _, err := l.Request(3, "ping", nil); err == nil {
		t.Fatal("request to unbound peer succeeded")
	}
}

func TestLoopbackDispatchAndLiveness(t *testing.T) {
	l := NewLoopback()
	defer l.Close()
	h := &testHandler{}
	l.Bind(4, h)
	if ev := <-l.Liveness(); ev.Peer != 4 || !ev.Up {
		t.Fatalf("bind event = %+v", ev)
	}
	if err := l.Deliver(4, metrics.KindPush, 3); err != nil {
		t.Fatal(err)
	}
	if got := h.oneway.Load(); got != 3 {
		t.Fatalf("handler received %d, want 3", got)
	}
	resp, err := l.Request(4, "ping", nil)
	if err != nil || string(resp) != "ok" {
		t.Fatalf("request = %q, %v", resp, err)
	}
	h.request = func(NodeID, string, []byte) ([]byte, error) {
		return nil, errors.New("boom")
	}
	if _, err := l.Request(4, "ping", nil); err == nil {
		t.Fatal("handler error not propagated")
	}
	l.Unbind(4)
	if ev := <-l.Liveness(); ev.Peer != 4 || ev.Up {
		t.Fatalf("unbind event = %+v", ev)
	}
	st := l.Stats()
	if st.Requests != 1 || st.Errors != 1 {
		t.Fatalf("stats = %+v, want 1 request, 1 error", st)
	}
}

func TestLoopbackClose(t *testing.T) {
	l := NewLoopback()
	l.Bind(1, &testHandler{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := l.Deliver(1, metrics.KindWalk, 1); err == nil {
		t.Fatal("deliver after close succeeded")
	}
	// The liveness channel must be closed (the bind event was drained by
	// nobody, so two reads may be needed).
	for range l.Liveness() {
	}
}

// Bind registers the handler for a peer's inbound traffic (replacing any
// previous binding) and signals the peer up.
func (l *Loopback) Bind(id NodeID, h Handler) {
	l.mu.Lock()
	if !l.closed {
		l.handlers[id] = h
	}
	closed := l.closed
	l.mu.Unlock()
	if !closed {
		l.signal(Event{Peer: id, Up: true})
	}
}

// Unbind removes a peer's handler and signals the peer down.
func (l *Loopback) Unbind(id NodeID) {
	l.mu.Lock()
	_, had := l.handlers[id]
	delete(l.handlers, id)
	closed := l.closed
	l.mu.Unlock()
	if had && !closed {
		l.signal(Event{Peer: id, Up: false})
	}
}

// Stats returns a snapshot of the delivery accounting.
func (l *Loopback) Stats() Stats {
	return Stats{
		Delivered: l.delivered.Load(),
		Requests:  l.requests.Load(),
		Errors:    l.errOutcomes.Load(),
	}
}

// signal pushes a liveness event without ever blocking the caller.
func (l *Loopback) signal(ev Event) {
	select {
	case l.events <- ev:
	default:
	}
}
