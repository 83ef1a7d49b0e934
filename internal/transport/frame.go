package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
)

// Wire format: a 4-byte big-endian body length, then a fixed binary
// body. The prefix makes the same codec usable over streams, lets a
// datagram receiver reject truncated reads before touching the decoder,
// and is what lets one datagram carry many frames (udp.go walks it with
// the consumed-byte count).
//
//	offset  size  field
//	     0     4  body length n (big-endian; at most MaxFrame)
//	     4     1  version (frameVersion)
//	     5     1  type (TypeOneway, TypeRequest, TypeResponse)
//	     6     1  kind (metrics.Kind of oneway traffic)
//	     7     1  oplen
//	     8     8  seq
//	    16     4  from (overlay ID, two's complement; graph.None = -1)
//	    20     4  to
//	    24     8  count
//	    32     2  errlen
//	    34     …  op (oplen bytes), err (errlen bytes), payload (the rest of n)
//
// All integers are big-endian. A oneway frame — Count metered protocol
// messages of one kind to one peer — has no op, err or payload and
// costs 34 bytes and no heap object on either side. The control-plane
// payloads (assign, neighbors, join, leave: tens of frames per run)
// stay JSON inside Payload; they are not the traffic.
//
// The body was JSON until PR 24, on the guess that codec throughput is
// irrelevant at this protocol's sizes. The ledger disproved it: on
// cluster-udp-32 (2.42M oneway frames) the codec was a quarter of the
// run and the syscall per message the rest. Traced rows of that
// workload (seed 1, 2-vCPU box; the probe times EncodeFrame and
// DecodeFrame, which allocate their result — the transport's own path
// appends and decodes in place and allocates nothing):
//
//	                             JSON   binary
//	transport.frame_bytes          54       34  B
//	transport.frame_encode_ns     445       54  ns
//	transport.frame_decode_ns    1771       65  ns

// frameVersion is the wire version; receivers reject anything else.
// Version 1 was the JSON body, whose first byte '{' fails this check.
const frameVersion = 2

// MaxFrame bounds the encoded frame body. It is far above anything the
// protocols send and far below the point where a UDP datagram would
// fragment into uselessness; oversized frames are rejected on both ends.
const MaxFrame = 64 << 10

// headerLen is the length-prefix size in bytes, fixedLen the fixed part
// of the body, and onewayLen what a oneway frame occupies on the wire.
const (
	headerLen = 4
	fixedLen  = 30
	onewayLen = headerLen + fixedLen
)

// Frame types.
const (
	// TypeOneway is a fire-and-forget protocol message (the Deliver path).
	TypeOneway uint8 = iota
	// TypeRequest opens a request/response exchange.
	TypeRequest
	// TypeResponse answers the request with the same Seq.
	TypeResponse
)

// Frame is one transport message.
type Frame struct {
	// Version is the wire version (frameVersion).
	Version uint8
	// Type is TypeOneway, TypeRequest or TypeResponse.
	Type uint8
	// Op names the RPC for request/response frames ("join", "neighbors",
	// "ping", ...); empty for oneway protocol traffic. At most 255 bytes.
	Op string
	// Kind is the metered message kind of oneway traffic.
	Kind metrics.Kind
	// Seq matches a response to its request; oneway frames carry the
	// sender's running sequence, which no receiver reads.
	Seq uint64
	// From and To are overlay node IDs (graph.None when unaddressed or
	// not yet assigned).
	From NodeID
	// To is the destination overlay ID.
	To NodeID
	// Count is how many protocol messages this frame carries, at least
	// one in a oneway frame: the UDP transport sends a peer all pending
	// messages of a kind as one frame.
	Count uint64
	// Payload is the op-specific request or response body.
	Payload []byte
	// Err carries a response's application error ("" for success).
	Err string
}

// Frame decode errors.
var (
	// ErrFrameTruncated is returned when the buffer ends before the
	// length prefix or the body it promises.
	ErrFrameTruncated = errors.New("transport: truncated frame")
	// ErrFrameOversized is returned when the length prefix exceeds
	// MaxFrame.
	ErrFrameOversized = errors.New("transport: oversized frame")
)

// EncodeFrame renders the frame in wire format. It rejects frames whose
// body would exceed MaxFrame.
func EncodeFrame(f *Frame) ([]byte, error) {
	out, err := appendFrame(make([]byte, 0, onewayLen+len(f.Op)+len(f.Err)+len(f.Payload)), f)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// appendFrame appends the frame in wire format to dst, allocating only
// when dst lacks the room. On error dst is returned unchanged.
func appendFrame(dst []byte, f *Frame) ([]byte, error) {
	if len(f.Op) > math.MaxUint8 {
		return dst, fmt.Errorf("transport: encode frame: op of %d bytes > %d", len(f.Op), math.MaxUint8)
	}
	body := fixedLen + len(f.Op) + len(f.Err) + len(f.Payload)
	if body > MaxFrame {
		// This also keeps errlen inside its two bytes.
		return dst, fmt.Errorf("%w: body %d > %d", ErrFrameOversized, body, MaxFrame)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, frameVersion, f.Type, uint8(f.Kind), uint8(len(f.Op)))
	dst = binary.BigEndian.AppendUint64(dst, f.Seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.From))
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.To))
	dst = binary.BigEndian.AppendUint64(dst, f.Count)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Err)))
	dst = append(dst, f.Op...)
	dst = append(dst, f.Err...)
	return append(dst, f.Payload...), nil
}

// DecodeFrame parses one wire-format frame from buf and returns it with
// the number of bytes consumed, so receivers can iterate over a stream
// or a coalesced datagram. A short buffer returns ErrFrameTruncated, a
// length prefix beyond MaxFrame returns ErrFrameOversized, and a body
// shorter than its fixed part, of an unknown version or type, or whose
// op/err lengths overrun it is an error too — a malformed datagram must
// never take the receive loop down.
func DecodeFrame(buf []byte) (*Frame, int, error) {
	f := new(Frame)
	n, err := decodeFrame(f, buf)
	if err != nil {
		return nil, 0, err
	}
	return f, n, nil
}

// decodeFrame is DecodeFrame into a caller-owned Frame. The result
// shares no memory with buf (op, err and payload are copied out, and a
// oneway frame has none), so both may be reused at once.
func decodeFrame(f *Frame, buf []byte) (int, error) {
	if len(buf) < headerLen {
		return 0, fmt.Errorf("%w: %d header bytes", ErrFrameTruncated, len(buf))
	}
	n := binary.BigEndian.Uint32(buf)
	if n > MaxFrame {
		return 0, fmt.Errorf("%w: prefix %d > %d", ErrFrameOversized, n, MaxFrame)
	}
	if uint32(len(buf)-headerLen) < n {
		return 0, fmt.Errorf("%w: body %d of %d bytes", ErrFrameTruncated, len(buf)-headerLen, n)
	}
	body := buf[headerLen : headerLen+int(n)]
	if len(body) < fixedLen {
		return 0, fmt.Errorf("transport: decode frame: body of %d bytes, the fixed part is %d", len(body), fixedLen)
	}
	if body[0] != frameVersion {
		return 0, fmt.Errorf("transport: unknown frame version %d", body[0])
	}
	if body[1] > TypeResponse {
		return 0, fmt.Errorf("transport: unknown frame type %d", body[1])
	}
	oplen, errlen := int(body[3]), int(binary.BigEndian.Uint16(body[28:]))
	rest := body[fixedLen:]
	if oplen+errlen > len(rest) {
		return 0, fmt.Errorf("transport: decode frame: op %d + err %d bytes overrun the %d after the fixed part", oplen, errlen, len(rest))
	}
	*f = Frame{
		Version: body[0],
		Type:    body[1],
		Kind:    metrics.Kind(body[2]),
		Seq:     binary.BigEndian.Uint64(body[4:]),
		From:    NodeID(binary.BigEndian.Uint32(body[12:])),
		To:      NodeID(binary.BigEndian.Uint32(body[16:])),
		Count:   binary.BigEndian.Uint64(body[20:]),
		Op:      string(rest[:oplen]),
		Err:     string(rest[oplen : oplen+errlen]),
	}
	if payload := rest[oplen+errlen:]; len(payload) > 0 {
		f.Payload = append([]byte(nil), payload...)
	}
	return headerLen + int(n), nil
}

// onewayFrame builds a Deliver frame.
func onewayFrame(from, to NodeID, kind metrics.Kind, count, seq uint64) *Frame {
	return &Frame{Type: TypeOneway, Kind: kind, Seq: seq, From: from, To: to, Count: count}
}

// requestFrame builds a Request frame.
func requestFrame(from, to NodeID, op string, payload []byte, seq uint64) *Frame {
	return &Frame{Type: TypeRequest, Op: op, Seq: seq, From: from, To: to, Payload: payload}
}

// responseFrame builds the response to req, echoing its Seq and Op.
func responseFrame(req *Frame, from NodeID, payload []byte, err error) *Frame {
	f := &Frame{Type: TypeResponse, Op: req.Op, Seq: req.Seq, From: from, To: req.From, Payload: payload}
	if err != nil {
		f.Err = err.Error()
	}
	return f
}

// noneID is the unaddressed destination.
const noneID = graph.None
