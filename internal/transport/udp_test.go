package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2psize/internal/metrics"
)

// newUDPPair opens two wired transports: a knows b as peer 1, b knows a
// as peer 0.
func newUDPPair(t *testing.T, ha, hb Handler) (*UDP, *UDP) {
	t.Helper()
	a, err := NewUDP(UDPConfig{Addr: "127.0.0.1:0", Self: 0, Handler: ha})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := NewUDP(UDPConfig{Addr: "127.0.0.1:0", Self: 1, Handler: hb})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := a.SetPeer(1, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := b.SetPeer(0, a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestUDPRequestResponse(t *testing.T) {
	hb := &testHandler{request: func(from NodeID, op string, payload []byte) ([]byte, error) {
		if op != "echo" || from != 0 {
			t.Errorf("server saw op=%q from=%d", op, from)
		}
		return append([]byte("re:"), payload...), nil
	}}
	a, _ := newUDPPair(t, nil, hb)
	resp, err := a.Request(1, "echo", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "re:hello" {
		t.Fatalf("resp = %q", resp)
	}
	if st := a.Stats(); st.Requests != 1 || st.Retransmits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUDPRequestApplicationError(t *testing.T) {
	hb := &testHandler{request: func(NodeID, string, []byte) ([]byte, error) {
		return nil, errors.New("denied")
	}}
	a, _ := newUDPPair(t, nil, hb)
	if _, err := a.Request(1, "op", nil); err == nil || !contains(err.Error(), "denied") {
		t.Fatalf("err = %v, want application error", err)
	}
}

func TestUDPOnewayBatch(t *testing.T) {
	hb := &testHandler{}
	a, _ := newUDPPair(t, nil, hb)
	// A SendN batch travels as ONE frame with Count, not count datagrams.
	if err := a.Deliver(1, metrics.KindPush, 500); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for hb.oneway.Load() < 500 {
		if time.Now().After(deadline) {
			t.Fatalf("received %d of 500 batched messages", hb.oneway.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if got := a.Stats().Delivered; got != 500 {
		t.Fatalf("delivered = %d, want 500", got)
	}
}

func TestUDPUnboundDeliverIsMeteredNoop(t *testing.T) {
	a, err := NewUDP(UDPConfig{Addr: "127.0.0.1:0", Self: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Deliver(7, metrics.KindWalk, 3); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Delivered != 3 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want delivered=3 errors=0", st)
	}
}

func TestUDPRetransmitAndRecover(t *testing.T) {
	// A raw socket playing a lossy peer: it swallows the first request
	// datagram and answers the retransmission, exercising the RTO loop and
	// the wire format against a hand-rolled endpoint.
	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	go func() {
		buf := make([]byte, headerLen+MaxFrame)
		for seen := 0; ; seen++ {
			n, raddr, err := raw.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if seen == 0 {
				continue // drop the first attempt
			}
			f, _, err := DecodeFrame(buf[:n])
			if err != nil || f.Type != TypeRequest {
				continue
			}
			out, err := EncodeFrame(responseFrame(f, 1, []byte("late"), nil))
			if err != nil {
				return
			}
			raw.WriteToUDP(out, raddr)
		}
	}()

	a, err := NewUDP(UDPConfig{Addr: "127.0.0.1:0", Self: 0, RTO: 30 * time.Millisecond, Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.SetPeer(1, raw.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	resp, err := a.Request(1, "ping", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "late" {
		t.Fatalf("resp = %q", resp)
	}
	if st := a.Stats(); st.Retransmits == 0 {
		t.Fatalf("stats = %+v, want at least one retransmit", st)
	}
}

func TestUDPUnreachablePeer(t *testing.T) {
	// Reserve a port with nothing answering on it.
	dead, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.LocalAddr().String()
	dead.Close()

	a, err := NewUDP(UDPConfig{Addr: "127.0.0.1:0", Self: 0, RTO: 20 * time.Millisecond, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.SetPeer(1, deadAddr); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Request(1, "ping", nil); !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("err = %v, want ErrPeerUnreachable", err)
	}
	select {
	case ev := <-a.Liveness():
		if ev.Peer != 1 || ev.Up {
			t.Fatalf("liveness event = %+v, want peer 1 down", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("no down event on the liveness channel")
	}
	if st := a.Stats(); st.Retransmits != 2 || st.Errors == 0 {
		t.Fatalf("stats = %+v, want 2 retransmits and an error", st)
	}
}

func TestUDPAddressLearning(t *testing.T) {
	// b never calls SetPeer for a; a's first request teaches b the return
	// address, after which b can Deliver to a by ID.
	ha := &testHandler{}
	a, err := NewUDP(UDPConfig{Addr: "127.0.0.1:0", Self: 0, Handler: ha})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUDP(UDPConfig{Addr: "127.0.0.1:0", Self: 1, Handler: &testHandler{}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.SetPeer(1, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Request(1, "ping", nil); err != nil {
		t.Fatal(err)
	}
	if addr, ok := b.PeerAddr(0); !ok || addr != a.LocalAddr() {
		t.Fatalf("b learned %q (ok=%v), want %q", addr, ok, a.LocalAddr())
	}
	if err := b.Deliver(0, metrics.KindReply, 2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for ha.oneway.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("a received %d of 2", ha.oneway.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// notifyHandler reports each oneway frame's count on a channel.
type notifyHandler struct{ oneway chan uint64 }

func (h notifyHandler) ServeOneway(_ NodeID, _ metrics.Kind, count uint64) { h.oneway <- count }

func (h notifyHandler) ServeRequest(NodeID, string, []byte) ([]byte, error) { return nil, nil }

// await receives n oneway counts within the deadline.
func (h notifyHandler) await(t *testing.T, n int) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-h.oneway:
		case <-deadline:
			t.Fatalf("handler saw %d of %d oneway frames", i, n)
		}
	}
}

func TestUDPLoneOnewayArrives(t *testing.T) {
	// One Deliver and no later call of any kind: the flusher alone must
	// put the frame on the wire.
	hb := notifyHandler{make(chan uint64, 1)}
	a, _ := newUDPPair(t, nil, hb)
	if err := a.Deliver(1, metrics.KindWalk, 1); err != nil {
		t.Fatal(err)
	}
	hb.await(t, 1)
}

// rawTally is what a raw socket read of oneway traffic saw.
type rawTally struct {
	datagrams, frames int
	messages          uint64
	byKind            [metrics.NumKinds]uint64
	err               error
}

// listenRaw opens a raw socket to play a peer, with room for every
// datagram a test sends, so the kernel cannot drop what the reader has
// not got to yet.
func listenRaw(t *testing.T) *net.UDPConn {
	t.Helper()
	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	if err := raw.SetReadBuffer(4 << 20); err != nil {
		t.Fatal(err)
	}
	return raw
}

// readOneway reads datagrams off raw until want messages have arrived,
// then waits a moment more to see that nothing follows. Every datagram
// must keep the flusher's contract: at most maxDatagram bytes of whole
// oneway frames, each of a known kind and carrying at least one
// message, and at most one frame per kind.
func readOneway(raw *net.UDPConn, want uint64) (got rawTally) {
	buf := make([]byte, headerLen+MaxFrame)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		if got.messages >= want {
			raw.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		}
		n, _, err := raw.ReadFromUDP(buf)
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) || got.messages < want {
				got.err = err
			}
			return got
		}
		if n > maxDatagram {
			got.err = fmt.Errorf("a datagram of %d bytes, the cap is %d", n, maxDatagram)
			return got
		}
		got.datagrams++
		var seen [metrics.NumKinds]bool
		for rest := buf[:n]; len(rest) > 0; {
			f, used, err := DecodeFrame(rest)
			switch {
			case err != nil:
				got.err = err
			case f.Type != TypeOneway || f.Kind >= metrics.NumKinds || f.Count == 0:
				got.err = fmt.Errorf("datagram %d carries the frame %+v", got.datagrams, f)
			case seen[f.Kind]:
				got.err = fmt.Errorf("datagram %d carries two %s frames", got.datagrams, f.Kind)
			}
			if got.err != nil {
				return got
			}
			seen[f.Kind] = true
			got.frames++
			got.messages += f.Count
			got.byKind[f.Kind] += f.Count
			rest = rest[used:]
		}
	}
}

// TestUDPCoalescesOneway: pending traffic to a peer is a count per kind,
// so a burst of single messages crosses the wire as a handful of
// datagrams, each with at most one frame per kind, and the transport's
// accounting is exactly what the socket read.
func TestUDPCoalescesOneway(t *testing.T) {
	const sends = 2000
	raw := listenRaw(t)
	done := make(chan rawTally, 1)
	go func() { done <- readOneway(raw, sends) }()

	a, err := NewUDP(UDPConfig{Addr: "127.0.0.1:0", Self: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.SetPeer(1, raw.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	var want [metrics.NumKinds]uint64
	for i := 0; i < sends; i++ {
		kind := metrics.Kind(i % int(metrics.NumKinds))
		want[kind]++
		if err := a.Deliver(1, kind, 1); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats() // flushes what is still pending
	got := <-done
	if got.err != nil {
		t.Fatalf("after %d messages in %d datagrams: %v", got.messages, got.datagrams, got.err)
	}
	if got.messages != sends || got.byKind != want {
		t.Fatalf("read %d messages %v by kind, want %d %v", got.messages, got.byKind, sends, want)
	}
	if got.datagrams >= sends {
		t.Fatalf("%d datagrams for %d sends: nothing was coalesced", got.datagrams, sends)
	}
	if st.Datagrams != uint64(got.datagrams) || st.Delivered != sends || st.Errors != 0 {
		t.Fatalf("stats = %+v, the socket read %d messages in %d datagrams", st, got.messages, got.datagrams)
	}
}

// TestUDPConcurrentSendersExactTotals: senders racing each other, the
// flusher and a Stats loop, interleaving kinds across several peers,
// lose and invent nothing — every peer reads exactly what was sent to
// it, kind by kind, and Stats reports exactly what the sockets read.
func TestUDPConcurrentSendersExactTotals(t *testing.T) {
	const peers, senders, sends = 3, 4, 600
	a, err := NewUDP(UDPConfig{Addr: "127.0.0.1:0", Self: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	raws := make([]*net.UDPConn, peers)
	for p := range raws {
		raws[p] = listenRaw(t)
		if err := a.SetPeer(NodeID(p+1), raws[p].LocalAddr().String()); err != nil {
			t.Fatal(err)
		}
	}
	// send is sender g's i-th Deliver: its peer, kind and count.
	send := func(g, i int) (int, metrics.Kind, uint64) {
		return (g + i) % peers, metrics.Kind((3*g + i) % int(metrics.NumKinds)), uint64(1 + i%4)
	}
	var want [peers][metrics.NumKinds]uint64
	var total [peers]uint64
	for g := 0; g < senders; g++ {
		for i := 0; i < sends; i++ {
			p, kind, count := send(g, i)
			want[p][kind] += count
			total[p] += count
		}
	}
	done := make([]chan rawTally, peers)
	for p := range done {
		done[p] = make(chan rawTally, 1)
		go func() { done[p] <- readOneway(raws[p], total[p]) }()
	}
	// A fifth goroutine flushes through Stats the whole time, racing the
	// flusher for every peer.
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
				a.Stats()
			}
		}
	}()
	errs := make(chan error, senders)
	for g := 0; g < senders; g++ {
		go func() {
			for i := 0; i < sends; i++ {
				p, kind, count := send(g, i)
				if err := a.Deliver(NodeID(p+1), kind, count); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	var sendErr error
	for g := 0; g < senders; g++ {
		if err := <-errs; err != nil && sendErr == nil {
			sendErr = err
		}
	}
	close(stop)
	<-polled
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	st := a.Stats()
	var datagrams int
	var delivered uint64
	for p := range done {
		got := <-done[p]
		if got.err != nil {
			t.Fatalf("peer %d, after %d messages in %d datagrams: %v", p+1, got.messages, got.datagrams, got.err)
		}
		if got.byKind != want[p] {
			t.Fatalf("peer %d read %v by kind, want %v", p+1, got.byKind, want[p])
		}
		datagrams += got.datagrams
		delivered += got.messages
	}
	if st.Datagrams != uint64(datagrams) || st.Delivered != delivered || st.Errors != 0 {
		t.Fatalf("stats = %+v, the sockets read %d messages in %d datagrams", st, delivered, datagrams)
	}
}

// TestUDPBurstTailArrives: a burst of concurrent senders followed by no
// call of any kind — no Stats, Request or Close — still arrives in full.
// The last Deliver of each burst races the flusher's sweep, so a count
// added while the flusher takes the peer's pending traffic must still
// wake it.
func TestUDPBurstTailArrives(t *testing.T) {
	const rounds, senders, sends = 50000, 2, 2
	hb := notifyHandler{make(chan uint64, senders*sends)} // room for a round of one-message frames
	a, _ := newUDPPair(t, nil, hb)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < sends; i++ {
					if err := a.Deliver(1, metrics.Kind((g+i)%int(metrics.NumKinds)), 1); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		deadline := time.After(2 * time.Second)
		for got := uint64(0); got < senders*sends; {
			select {
			case c := <-hb.oneway:
				got += c
			case <-deadline:
				t.Fatalf("round %d: %d of %d messages arrived; the rest wait for a flush nobody asked for", r, got, senders*sends)
			}
		}
	}
}

// TestUDPDeliverRacingClose: every Deliver that races Close is either
// refused with an error or on the wire before the socket closes. None
// is accepted and then dropped, so what the senders had accepted is
// exactly what the peer reads and what Stats reports, and each refusal
// is one error.
func TestUDPDeliverRacingClose(t *testing.T) {
	const rounds, senders, sends = 5, 4, 20000
	for r := 0; r < rounds; r++ {
		raw := listenRaw(t)
		a, err := NewUDP(UDPConfig{Addr: "127.0.0.1:0", Self: 0})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.SetPeer(1, raw.LocalAddr().String()); err != nil {
			t.Fatal(err)
		}
		var sent, running atomic.Int64
		running.Store(senders)
		accepted := make([][metrics.NumKinds]uint64, senders)
		refused := make([]uint64, senders)
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer running.Add(-1)
				for i := 0; i < sends; i++ {
					kind, count := metrics.Kind((g+i)%int(metrics.NumKinds)), uint64(1+i%3)
					if a.Deliver(1, kind, count) != nil {
						refused[g]++
						return
					}
					accepted[g][kind] += count
					sent.Add(1)
				}
			}()
		}
		for sent.Load() < 1000 && running.Load() > 0 {
			runtime.Gosched()
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		var want [metrics.NumKinds]uint64
		var total, errs uint64
		for g := range accepted {
			for k, c := range accepted[g] {
				want[k] += c
				total += c
			}
			errs += refused[g]
		}
		got := readOneway(raw, total)
		if got.err != nil {
			t.Fatalf("round %d, after %d of %d accepted messages in %d datagrams: %v", r, got.messages, total, got.datagrams, got.err)
		}
		if got.byKind != want {
			t.Fatalf("round %d: read %v by kind, the senders had %v accepted", r, got.byKind, want)
		}
		if st := a.Stats(); st.Delivered != total || st.Datagrams != uint64(got.datagrams) || st.Errors != errs {
			t.Fatalf("round %d: stats = %+v; %d messages accepted, %d datagrams read, %d sends refused", r, st, total, got.datagrams, errs)
		}
	}
}

func TestUDPDeliverRejectsUnknownKind(t *testing.T) {
	a, _ := newUDPPair(t, nil, &testHandler{})
	if err := a.Deliver(1, metrics.NumKinds, 1); err == nil {
		t.Fatal("a message of an undefined kind was accepted")
	}
	if st := a.Stats(); st.Delivered != 0 || st.Datagrams != 0 || st.Errors != 1 {
		t.Fatalf("stats = %+v, want nothing delivered and one error", st)
	}
}

// TestUDPZeroCountOnewayIsMalformed: a oneway frame that claims no
// messages costs one error and is not served; the frame after it in the
// same datagram is.
func TestUDPZeroCountOnewayIsMalformed(t *testing.T) {
	hb := notifyHandler{make(chan uint64, 8)}
	b, err := NewUDP(UDPConfig{Addr: "127.0.0.1:0", Self: 1, Handler: hb})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	raw, err := net.Dial("udp", b.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	dgram, _ := appendFrame(nil, onewayFrame(0, 1, metrics.KindWalk, 0, 1))
	dgram, _ = appendFrame(dgram, onewayFrame(0, 1, metrics.KindPush, 5, 2))
	if _, err := raw.Write(dgram); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-hb.oneway:
		if got != 5 {
			t.Fatalf("served a oneway frame of %d messages, want the 5 after the empty one", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the frame after the empty one was not served")
	}
	if st := b.Stats(); st.Errors != 1 {
		t.Fatalf("stats = %+v, want one error for the empty frame", st)
	}
	select {
	case got := <-hb.oneway:
		t.Fatalf("a second oneway frame of %d messages was served", got)
	default:
	}
}

func TestUDPCorruptTail(t *testing.T) {
	// A datagram is a sequence of frames: the ones before a corrupt or
	// truncated tail are served, the tail costs exactly one error, and
	// the receive loop goes on to the next datagram.
	hb := notifyHandler{make(chan uint64, 8)}
	b, err := NewUDP(UDPConfig{Addr: "127.0.0.1:0", Self: 1, Handler: hb})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	raw, err := net.Dial("udp", b.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	var good []byte
	for seq := uint64(1); seq <= 2; seq++ {
		good, _ = appendFrame(good, onewayFrame(0, 1, metrics.KindWalk, 1, seq))
	}
	one := good[:onewayLen]
	for i, tail := range [][]byte{
		[]byte("\x00\x00\x00\x09{not json"), // a whole frame, of garbage
		one[:onewayLen-5],                   // a frame cut short
	} {
		if _, err := raw.Write(append(bytes.Clone(good), tail...)); err != nil {
			t.Fatal(err)
		}
		hb.await(t, 2)
		// The loop is sequential: once a following datagram is served,
		// the tail before it has been judged.
		if _, err := raw.Write(one); err != nil {
			t.Fatal(err)
		}
		hb.await(t, 1)
		if got := b.Stats().Errors; got != uint64(i+1) {
			t.Fatalf("after %d corrupt tails: %d errors", i+1, got)
		}
	}
	select {
	case <-hb.oneway:
		t.Fatal("a frame was served from a corrupt tail")
	default:
	}
}

func TestUDPDeliverAfterClose(t *testing.T) {
	a, _ := newUDPPair(t, nil, &testHandler{})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Nobody will ever flush: the send must be refused, not buffered.
	if err := a.Deliver(1, metrics.KindWalk, 1); err == nil {
		t.Fatal("deliver on a closed transport succeeded")
	}
	if _, err := a.Request(1, "ping", nil); err == nil {
		t.Fatal("request on a closed transport succeeded")
	}
	if st := a.Stats(); st.Delivered != 0 || st.Datagrams != 0 || st.Errors != 1 {
		t.Fatalf("stats = %+v, want nothing delivered and one error", st)
	}
}

func TestUDPCloseFlushes(t *testing.T) {
	hb := notifyHandler{make(chan uint64, 1)}
	a, _ := newUDPPair(t, nil, hb)
	if err := a.Deliver(1, metrics.KindPush, 9); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	hb.await(t, 1)
}

func TestUDPRequestFlushesFirst(t *testing.T) {
	// Frames delivered before a Request to the same peer are served
	// before its handler runs, whether they are still pending or already
	// in the flusher's hands.
	const sends = 300 // several datagrams' worth
	hb := &testHandler{}
	seen := make(chan uint64, 1)
	hb.request = func(NodeID, string, []byte) ([]byte, error) {
		select {
		case seen <- hb.oneway.Load():
		default: // a retransmitted request: the first answer is the one read
		}
		return nil, nil
	}
	a, _ := newUDPPair(t, nil, hb)
	for round := 1; round <= 20; round++ {
		for i := 0; i < sends; i++ {
			if err := a.Deliver(1, metrics.KindWalk, 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := a.Request(1, "sync", nil); err != nil {
			t.Fatal(err)
		}
		if got, want := <-seen, uint64(round*sends); got != want {
			t.Fatalf("round %d: the request overtook oneway frames: handler had seen %d of %d", round, got, want)
		}
	}
}

func TestUDPCloseIdempotent(t *testing.T) {
	a, err := NewUDP(UDPConfig{Addr: "127.0.0.1:0", Self: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	for range a.Liveness() {
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// PeerAddr returns the bound address of a peer.
func (u *UDP) PeerAddr(id NodeID) (string, bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	p := u.peers.Load().byID[id]
	if p == nil {
		return "", false
	}
	return p.addr.String(), true
}

// BenchmarkUDPDeliver prices the send path: one Deliver of one message
// to a bound peer (a raw socket that reads nothing, so the kernel drops
// what overflows it), from one goroutine and from GOMAXPROCS at once.
func BenchmarkUDPDeliver(b *testing.B) {
	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	defer raw.Close()
	u, err := NewUDP(UDPConfig{Addr: "127.0.0.1:0", Self: 0})
	if err != nil {
		b.Fatal(err)
	}
	defer u.Close()
	if err := u.SetPeer(1, raw.LocalAddr().String()); err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := u.Deliver(1, metrics.KindWalk, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := u.Deliver(1, metrics.KindWalk, 1); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
