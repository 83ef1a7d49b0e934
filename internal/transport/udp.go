package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"p2psize/internal/metrics"
)

// Default retransmission parameters. The RTO mirrors the fault layer's
// pricing model: a lost request costs one timeout and is resent until it
// lands or the sender gives the peer up for dead (the fault.Injector
// prices exactly this loop as rto = 3×q99 of the delay distribution; on
// a real socket the delay distribution is the network's, so the timeout
// is a configured constant instead of a modeled quantile).
const (
	defaultRTO     = 250 * time.Millisecond
	defaultRetries = 4
)

// maxDatagram caps a datagram of oneway frames, at most one per kind
// (else the array below fails to compile). It sits under the 1280-byte
// IPv6 minimum MTU, so a datagram never fragments on any conforming path.
const maxDatagram = 1200

var _ [maxDatagram - int(metrics.NumKinds)*onewayLen]struct{}

// ErrPeerUnreachable is returned when a request exhausts its
// retransmission budget; the peer is signalled down on the liveness
// channel at the same time.
var ErrPeerUnreachable = errors.New("transport: peer unreachable")

// errClosed is returned by sends on a closed transport.
var errClosed = errors.New("transport: udp transport is closed")

// UDPConfig parameterizes a UDP transport.
type UDPConfig struct {
	// Addr is the local listen address ("127.0.0.1:0" for an ephemeral
	// port).
	Addr string
	// Self is the local overlay ID stamped on outgoing frames
	// (graph.None before the coordinator assigns one; see SetSelf).
	Self NodeID
	// Handler receives inbound traffic (nil to start; see SetHandler).
	Handler Handler
	// RTO is the request retransmission timeout (defaultRTO if 0).
	RTO time.Duration
	// Retries is how many times a timed-out request is resent before
	// the peer is declared unreachable (defaultRetries if 0).
	Retries int
}

// UDP is the real-socket transport: length-prefixed binary frames over
// a single UDP socket, per-peer addressing, sequence-matched
// request/response with RTO retransmission, and liveness events when a
// peer stops answering. Safe for concurrent use.
//
// Delivery rule: a peer's pending oneway traffic is a count per message
// kind. Deliver adds to it and, when the peer had nothing pending, wakes
// the flusher goroutine, which writes one datagram of one frame per
// nonzero kind. A lone message leaves at once, messages that arrive
// while a datagram is in sendto ride the next one, and all leave before
// a Request or Close. Memory per peer is fixed, and the batch size
// clocks itself without a timer or a threshold.
type UDP struct {
	conn    *net.UDPConn
	rto     time.Duration
	retries int

	mu      sync.Mutex
	self    NodeID
	handler Handler
	peers   map[NodeID]*peer
	order   []*peer // bound peers in bind order: round-robin and flush sweep
	next    int     // round-robin cursor for unaddressed sends
	down    map[NodeID]bool
	pending map[uint64]chan Frame
	closed  bool

	// wmu serializes the flush writes, so flush returns only once
	// everything delivered before it is written. It owns out, the buffer
	// a flush encodes into (lock order: wmu, then mu).
	wmu sync.Mutex
	out []byte

	seq    atomic.Uint64
	kick   chan struct{} // wakes the flusher; one token is enough
	events chan Event
	done   chan struct{}
	wg     sync.WaitGroup

	delivered   atomic.Uint64
	datagrams   atomic.Uint64
	requests    atomic.Uint64
	retransmits atomic.Uint64
	errOutcomes atomic.Uint64
}

// peer is one bound destination. Fields are guarded by UDP.mu.
type peer struct {
	id     NodeID
	addr   netip.AddrPort
	counts [metrics.NumKinds]uint64 // pending oneway messages by kind
	total  uint64                   // their sum; nonzero means a flush is due
}

// NewUDP opens the socket and starts the receive loop and the flusher.
func NewUDP(cfg UDPConfig) (*UDP, error) {
	laddr, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", cfg.Addr, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", cfg.Addr, err)
	}
	u := &UDP{
		conn:    conn,
		rto:     cfg.RTO,
		retries: cfg.Retries,
		self:    cfg.Self,
		handler: cfg.Handler,
		peers:   make(map[NodeID]*peer),
		down:    make(map[NodeID]bool),
		pending: make(map[uint64]chan Frame),
		kick:    make(chan struct{}, 1),
		events:  make(chan Event, 64),
		done:    make(chan struct{}),
	}
	if u.rto <= 0 {
		u.rto = defaultRTO
	}
	if u.retries <= 0 {
		u.retries = defaultRetries
	}
	u.wg.Add(2)
	go u.readLoop()
	go u.flushLoop()
	return u, nil
}

// LocalAddr returns the bound socket address (with the resolved port).
func (u *UDP) LocalAddr() string { return u.conn.LocalAddr().String() }

// SetSelf assigns the local overlay ID (the coordinator hands IDs out at
// bootstrap, after the socket already exists).
func (u *UDP) SetSelf(id NodeID) {
	u.mu.Lock()
	u.self = id
	u.mu.Unlock()
}

// SetHandler installs the inbound dispatch target.
func (u *UDP) SetHandler(h Handler) {
	u.mu.Lock()
	u.handler = h
	u.mu.Unlock()
}

// SetPeer binds a peer ID to its address; later frames to the ID go
// there. Rebinding an ID replaces the address.
func (u *UDP) SetPeer(id NodeID, addr string) error {
	a, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("transport: resolve peer %d addr %q: %w", id, addr, err)
	}
	u.mu.Lock()
	u.bind(id, unmap(a.AddrPort()))
	u.mu.Unlock()
	return nil
}

// unmap strips the IPv4-in-IPv6 form a resolver or a dual-stack socket
// may hand over: an IPv4 socket refuses to write to it, and learned
// addresses must compare equal to bound ones.
func unmap(addr netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(addr.Addr().Unmap(), addr.Port())
}

// bind points a peer ID at an (unmapped) address, creating the peer on
// first sight. Callers hold u.mu.
func (u *UDP) bind(id NodeID, addr netip.AddrPort) {
	p := u.peers[id]
	if p == nil {
		p = &peer{id: id}
		u.peers[id] = p
		u.order = append(u.order, p)
	}
	p.addr = addr
}

// resolve picks the destination of a send: the bound peer for an
// addressed one, the next bound peer round-robin for an unaddressed one
// (batch metering does not expose destinations, but the traffic still
// has to cross a wire somewhere). Callers hold u.mu.
func (u *UDP) resolve(to NodeID) *peer {
	if to != noneID {
		return u.peers[to]
	}
	if len(u.order) == 0 {
		return nil
	}
	p := u.order[u.next%len(u.order)]
	u.next++
	return p
}

// Deliver implements Transport: it adds count to the destination's
// pending count for the kind. An unknown or unaddressed destination
// with no bound peers is a metered no-op, which keeps the
// null-deployment path (no daemons yet) identical to the simulation; a
// kind outside metrics.NumKinds is an error outcome.
func (u *UDP) Deliver(to NodeID, kind metrics.Kind, count uint64) error {
	if count == 0 {
		return nil
	}
	if kind >= metrics.NumKinds {
		u.errOutcomes.Add(1)
		return fmt.Errorf("transport: message kind %d is not below %d", kind, metrics.NumKinds)
	}
	u.mu.Lock()
	p := u.resolve(to)
	if u.closed {
		u.mu.Unlock()
		u.errOutcomes.Add(1)
		return errClosed
	}
	if p == nil {
		u.mu.Unlock()
		u.delivered.Add(count)
		return nil
	}
	idle := p.total == 0
	p.counts[kind] += count
	p.total += count
	u.mu.Unlock()
	if idle {
		// Each idle-to-pending transition leaves a token: no count waits unflushed.
		select {
		case u.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// flushLoop is the flusher: it writes whatever is pending each time a
// Deliver wakes it.
func (u *UDP) flushLoop() {
	defer u.wg.Done()
	for {
		select {
		case <-u.kick:
			u.flush()
		case <-u.done:
			return
		}
	}
}

// flush writes every peer's pending messages. When it returns, every
// message delivered before the call is on the wire.
func (u *UDP) flush() {
	for i := 0; ; i++ {
		u.mu.Lock()
		if i >= len(u.order) {
			u.mu.Unlock()
			return
		}
		p := u.order[i]
		u.mu.Unlock()
		u.flushPeer(p)
	}
}

// flushPeer writes the peer's pending messages, if any: it takes the
// counts under u.mu, then encodes one frame per nonzero kind and writes
// the datagram outside it, so senders keep counting meanwhile.
func (u *UDP) flushPeer(p *peer) {
	u.wmu.Lock()
	defer u.wmu.Unlock()
	u.mu.Lock()
	if p.total == 0 {
		u.mu.Unlock()
		return
	}
	counts, msgs, addr, self := p.counts, p.total, p.addr, u.self
	p.counts, p.total = [metrics.NumKinds]uint64{}, 0
	u.mu.Unlock()
	u.out = u.out[:0]
	for k, c := range counts {
		if c > 0 {
			// A oneway frame has no variable part, so it cannot fail to encode.
			u.out, _ = appendFrame(u.out, onewayFrame(self, p.id, metrics.Kind(k), c, u.seq.Add(1)))
		}
	}
	if _, err := u.conn.WriteToUDPAddrPort(u.out, addr); err != nil {
		u.errOutcomes.Add(1)
		return
	}
	u.datagrams.Add(1)
	u.delivered.Add(msgs)
}

// Request implements Transport: flush, send, wait for the matching
// response, retransmit on RTO expiry, give up (and signal the peer
// down) after the retry budget.
func (u *UDP) Request(to NodeID, op string, payload []byte) ([]byte, error) {
	u.mu.Lock()
	p := u.peers[to]
	closed := u.closed
	self := u.self
	u.mu.Unlock()
	if closed {
		return nil, errClosed
	}
	if p == nil {
		u.errOutcomes.Add(1)
		return nil, fmt.Errorf("transport: no address bound for peer %d", to)
	}
	seq := u.seq.Add(1)
	wire, err := EncodeFrame(requestFrame(self, to, op, payload, seq))
	if err != nil {
		u.errOutcomes.Add(1)
		return nil, err
	}
	ch := make(chan Frame, 1)
	u.mu.Lock()
	addr := p.addr
	u.pending[seq] = ch
	u.mu.Unlock()
	defer func() {
		u.mu.Lock()
		delete(u.pending, seq)
		u.mu.Unlock()
	}()
	// Frames delivered before the request reach the peer before it.
	u.flush()

	timer := time.NewTimer(u.rto)
	defer timer.Stop()
	for attempt := 0; attempt <= u.retries; attempt++ {
		if attempt > 0 {
			u.retransmits.Add(1)
		}
		if _, err := u.conn.WriteToUDPAddrPort(wire, addr); err != nil {
			u.errOutcomes.Add(1)
			return nil, err
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(u.rto)
		select {
		case resp := <-ch:
			u.markUp(to, addr.String())
			u.requests.Add(1)
			if resp.Err != "" {
				return nil, fmt.Errorf("transport: %s: %s", op, resp.Err)
			}
			return resp.Payload, nil
		case <-timer.C:
			// fall through to retransmit
		case <-u.done:
			return nil, errClosed
		}
	}
	u.errOutcomes.Add(1)
	u.markDown(to, addr.String())
	return nil, fmt.Errorf("%w: peer %d (%s) after %d attempts", ErrPeerUnreachable, to, addr, u.retries+1)
}

// markDown signals a peer's transition to unreachable (once per
// transition).
func (u *UDP) markDown(id NodeID, addr string) {
	u.mu.Lock()
	was := u.down[id]
	u.down[id] = true
	closed := u.closed
	u.mu.Unlock()
	if !was && !closed {
		u.signal(Event{Peer: id, Up: false, Addr: addr})
	}
}

// markUp signals a peer's recovery (once per transition).
func (u *UDP) markUp(id NodeID, addr string) {
	u.mu.Lock()
	was := u.down[id]
	delete(u.down, id)
	closed := u.closed
	u.mu.Unlock()
	if was && !closed {
		u.signal(Event{Peer: id, Up: true, Addr: addr})
	}
}

// signal pushes a liveness event without blocking.
func (u *UDP) signal(ev Event) {
	select {
	case u.events <- ev:
	default:
	}
}

// Liveness implements Transport.
func (u *UDP) Liveness() <-chan Event { return u.events }

// readLoop receives datagrams until the socket closes and dispatches
// each frame by frame. A malformed datagram costs one error and
// nothing else: the frames decoded before its corrupt or truncated tail
// are served, and the loop goes on.
func (u *UDP) readLoop() {
	defer u.wg.Done()
	buf := make([]byte, headerLen+MaxFrame+1)
	var f Frame // decoded into again and again: a oneway frame allocates nothing
	for {
		n, raddr, err := u.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-u.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			u.errOutcomes.Add(1)
			continue
		}
		raddr = unmap(raddr)
		for rest := buf[:n]; ; {
			used, err := decodeFrame(&f, rest)
			if err != nil {
				u.errOutcomes.Add(1)
				break
			}
			u.dispatch(&f, raddr)
			if rest = rest[used:]; len(rest) == 0 {
				break
			}
		}
	}
}

// dispatch routes one received frame. f is the read loop's and is
// overwritten by the next frame; what outlives the call is copied.
func (u *UDP) dispatch(f *Frame, raddr netip.AddrPort) {
	u.mu.Lock()
	// Learn the sender's address when it is new or has changed: daemons
	// behind ephemeral ports become addressable the moment they first
	// speak.
	if f.From != noneID {
		if p := u.peers[f.From]; p == nil || p.addr != raddr {
			u.bind(f.From, raddr)
		}
	}
	h, self := u.handler, u.self
	var ch chan Frame
	if f.Type == TypeResponse {
		ch = u.pending[f.Seq]
	}
	u.mu.Unlock()
	switch f.Type {
	case TypeOneway:
		if f.Count == 0 {
			u.errOutcomes.Add(1) // serving it would absorb a message nobody sent
		} else if h != nil {
			h.ServeOneway(f.From, f.Kind, f.Count)
		}
	case TypeRequest:
		var payload []byte
		var err error
		if h == nil {
			err = errors.New("no handler")
		} else {
			payload, err = h.ServeRequest(f.From, f.Op, f.Payload)
		}
		wire, err := EncodeFrame(responseFrame(f, self, payload, err))
		if err == nil {
			_, err = u.conn.WriteToUDPAddrPort(wire, raddr)
		}
		if err != nil {
			u.errOutcomes.Add(1)
		}
	case TypeResponse:
		if ch != nil {
			select {
			case ch <- *f:
			default:
			}
		}
	}
}

// Close implements Transport; it is idempotent. Frames delivered before
// it are written first.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	u.mu.Unlock()
	u.flush()
	close(u.done)
	err := u.conn.Close()
	u.wg.Wait()
	close(u.events)
	return err
}

// Stats flushes and returns a snapshot of the delivery accounting.
func (u *UDP) Stats() Stats {
	u.flush()
	return Stats{
		Delivered:   u.delivered.Load(),
		Datagrams:   u.datagrams.Load(),
		Requests:    u.requests.Load(),
		Retransmits: u.retransmits.Load(),
		Errors:      u.errOutcomes.Load(),
	}
}
