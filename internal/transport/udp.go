package transport

import (
	"errors"
	"fmt"
	"maps"
	"net"
	"net/netip"
	"slices"
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

// sealed is the top bit of a pending count: Close's last sweep leaves
// it in every count it takes, and a peer bound after Close starts with
// it. An add whose result carries it came too late to be written and
// is refused.
const sealed = uint64(1) << 63

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
// Delivery rule: a peer's pending oneway traffic is an atomic count per
// message kind. Deliver takes no lock: it finds the peer in a
// copy-on-write table, adds to the count and, when it is the one to set
// the peer's scheduled flag, wakes the flusher goroutine, which writes
// one datagram of one frame per nonzero kind. A lone message leaves at
// once, messages that arrive while a datagram is in sendto ride the
// next one, and all leave before a Request or Close. Memory per peer is
// fixed, and the batch size clocks itself without a timer or a
// threshold.
type UDP struct {
	conn    *net.UDPConn
	rto     time.Duration
	retries int

	// peers is the table of bound peers. It is replaced, never changed,
	// under mu when an ID is bound for the first time, so the send path
	// and the flusher read it without a lock.
	peers  atomic.Pointer[peerTable]
	next   atomic.Uint64 // round-robin cursor for unaddressed sends
	closed atomic.Bool   // set under mu, so a bind sees it or precedes Close's sweep

	mu      sync.Mutex
	self    NodeID
	handler Handler
	down    map[NodeID]bool
	pending map[uint64]chan Frame

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

// peerTable is a snapshot of the bound peers.
type peerTable struct {
	byID  map[NodeID]*peer
	order []*peer // bind order: round-robin and flush sweep
}

// peer is one bound destination.
type peer struct {
	id        NodeID
	addr      netip.AddrPort                  // guarded by UDP.mu
	counts    [metrics.NumKinds]atomic.Uint64 // pending oneway messages by kind
	scheduled atomic.Bool                     // a flush of this peer is due
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
	u.peers.Store(&peerTable{})
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

// bind points a peer ID at an (unmapped) address. A first sight of the
// ID publishes a new table with the peer added; a peer bound after
// Close starts sealed. Callers hold u.mu.
func (u *UDP) bind(id NodeID, addr netip.AddrPort) {
	t := u.peers.Load()
	if p := t.byID[id]; p != nil {
		p.addr = addr
		return
	}
	p := &peer{id: id, addr: addr}
	if u.closed.Load() {
		for k := range p.counts {
			p.counts[k].Store(sealed)
		}
	}
	byID := make(map[NodeID]*peer, len(t.byID)+1)
	maps.Copy(byID, t.byID)
	byID[id] = p
	u.peers.Store(&peerTable{byID: byID, order: append(slices.Clip(t.order), p)})
}

// resolve picks the destination of a send: the bound peer for an
// addressed one, the next bound peer round-robin for an unaddressed one
// (batch metering does not expose destinations, but the traffic still
// has to cross a wire somewhere).
func (u *UDP) resolve(to NodeID) *peer {
	t := u.peers.Load()
	if to != noneID {
		return t.byID[to]
	}
	if len(t.order) == 0 {
		return nil
	}
	return t.order[(u.next.Add(1)-1)%uint64(len(t.order))]
}

// Deliver implements Transport: it adds count to the destination's
// pending count for the kind, without a lock, and wakes the flusher if
// it is the one to set the peer's scheduled flag. An add that finds the
// count sealed came after Close's last sweep and is refused. An unknown
// or unaddressed destination with no bound peers is a metered no-op,
// which keeps the null-deployment path (no daemons yet) identical to
// the simulation; a kind outside metrics.NumKinds, or a count with the
// sealed bit, is an error outcome.
func (u *UDP) Deliver(to NodeID, kind metrics.Kind, count uint64) error {
	if count == 0 {
		return nil
	}
	if kind >= metrics.NumKinds || count >= sealed {
		u.errOutcomes.Add(1)
		return fmt.Errorf("transport: %d messages of kind %d: the kind must be below %d and the count below 2^63", count, kind, metrics.NumKinds)
	}
	p := u.resolve(to)
	if p == nil {
		if u.closed.Load() {
			u.errOutcomes.Add(1)
			return errClosed
		}
		u.delivered.Add(count)
		return nil
	}
	if p.counts[kind].Add(count)&sealed != 0 {
		u.errOutcomes.Add(1)
		return errClosed
	}
	// flushPeer clears the flag before it takes the counts: the add above
	// is taken by a sweep that is still to come, or it finds the flag
	// clear here and wakes one.
	if !p.scheduled.Load() && !p.scheduled.Swap(true) {
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
	for _, p := range u.peers.Load().order {
		u.flushPeer(p)
	}
}

// flushPeer writes the peer's pending messages, if any, as one frame per
// nonzero kind. It clears the scheduled flag before it swaps the counts
// out, so a Deliver whose add the swap misses finds the flag clear and
// wakes the flusher again: no count waits for a wake-up that never
// comes. Once the transport is closed it sweeps every peer whatever its
// flag, and seals the counts it takes.
func (u *UDP) flushPeer(p *peer) {
	u.wmu.Lock()
	defer u.wmu.Unlock()
	var seal uint64
	if u.closed.Load() {
		seal = sealed
	}
	if !p.scheduled.Swap(false) && seal == 0 {
		return
	}
	var counts [metrics.NumKinds]uint64
	var msgs uint64
	for k := range p.counts {
		if c := p.counts[k].Swap(seal); c&sealed == 0 {
			counts[k] = c
			msgs += c
		}
	}
	if msgs == 0 {
		return
	}
	u.mu.Lock()
	addr, self := p.addr, u.self
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
	if u.closed.Load() {
		return nil, errClosed
	}
	p := u.peers.Load().byID[to]
	u.mu.Lock()
	self := u.self
	u.mu.Unlock()
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
	u.mu.Unlock()
	if !was && !u.closed.Load() {
		u.signal(Event{Peer: id, Up: false, Addr: addr})
	}
}

// markUp signals a peer's recovery (once per transition).
func (u *UDP) markUp(id NodeID, addr string) {
	u.mu.Lock()
	was := u.down[id]
	delete(u.down, id)
	u.mu.Unlock()
	if was && !u.closed.Load() {
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
		if p := u.peers.Load().byID[f.From]; p == nil || p.addr != raddr {
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
// it are written first: its sweep seals every count it takes, so a
// racing Deliver is either in that sweep or refused.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed.Swap(true) {
		u.mu.Unlock()
		return nil
	}
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
