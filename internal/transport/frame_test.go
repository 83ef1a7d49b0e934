package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"p2psize/internal/metrics"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []*Frame{
		onewayFrame(3, 7, metrics.KindPush, 42, 9),
		requestFrame(noneID, 0, "assign", []byte(`{"id":4}`), 1),
		responseFrame(&Frame{Op: "ping", Seq: 17, From: 2}, 5, []byte("pong"), nil),
		responseFrame(&Frame{Op: "join", Seq: 3, From: 1}, 6, nil, errors.New("nope")),
	}
	for _, f := range cases {
		buf, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("encode %+v: %v", f, err)
		}
		got, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("decode %+v: %v", f, err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		if got.Type != f.Type || got.Op != f.Op || got.Seq != f.Seq ||
			got.From != f.From || got.To != f.To || got.Kind != f.Kind ||
			got.Count != f.Count || got.Err != f.Err || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("round trip mismatch:\n  sent %+v\n  got  %+v", f, got)
		}
	}
}

func TestFrameRoundTripConcatenated(t *testing.T) {
	// Stream receivers decode frame-by-frame from one buffer; the
	// consumed-byte count must walk the concatenation exactly.
	var buf []byte
	for i := 0; i < 3; i++ {
		b, err := EncodeFrame(onewayFrame(NodeID(i), NodeID(i+1), metrics.KindWalk, uint64(i+1), uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, b...)
	}
	for i := 0; i < 3; i++ {
		f, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.From != NodeID(i) || f.Count != uint64(i+1) {
			t.Fatalf("frame %d decoded as %+v", i, f)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestDecodeFrameTruncated(t *testing.T) {
	full, err := EncodeFrame(requestFrame(1, 2, "ping", nil, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix must fail with ErrFrameTruncated — never panic,
	// never decode garbage.
	for n := 0; n < len(full); n++ {
		if _, _, err := DecodeFrame(full[:n]); !errors.Is(err, ErrFrameTruncated) {
			t.Fatalf("prefix of %d bytes: got %v, want ErrFrameTruncated", n, err)
		}
	}
}

func TestDecodeFrameOversized(t *testing.T) {
	buf := make([]byte, headerLen)
	binary.BigEndian.PutUint32(buf, MaxFrame+1)
	if _, _, err := DecodeFrame(buf); !errors.Is(err, ErrFrameOversized) {
		t.Fatalf("got %v, want ErrFrameOversized", err)
	}
}

func TestEncodeFrameOversized(t *testing.T) {
	f := requestFrame(1, 2, "blob", bytes.Repeat([]byte("x"), MaxFrame+1), 1)
	if _, err := EncodeFrame(f); !errors.Is(err, ErrFrameOversized) {
		t.Fatalf("got %v, want ErrFrameOversized", err)
	}
}

func TestDecodeFrameBadVersionAndType(t *testing.T) {
	good, err := EncodeFrame(requestFrame(0, 1, "ping", []byte("xy"), 1))
	if err != nil {
		t.Fatal(err)
	}
	// mutate returns a copy of the good frame with one byte of the body
	// (offset counted after the length prefix) replaced.
	mutate := func(off int, v byte) []byte {
		b := bytes.Clone(good)
		b[headerLen+off] = v
		return b
	}
	short := make([]byte, headerLen+fixedLen-1)
	binary.BigEndian.PutUint32(short, fixedLen-1)
	short[headerLen] = frameVersion
	jsonBody := []byte(`{"v":1,"t":0,"seq":1,"from":0,"to":1,"n":1,"k":3}`)
	jsonFrame := binary.BigEndian.AppendUint32(nil, uint32(len(jsonBody)))
	jsonFrame = append(jsonFrame, jsonBody...)
	for name, buf := range map[string][]byte{
		"version 1 (the JSON era)":     mutate(0, 1),
		"version 3 (the future)":       mutate(0, 3),
		"a JSON body":                  jsonFrame,
		"type 9":                       mutate(1, 9),
		"body shorter than fixed part": short,
		"oplen overrunning the body":   mutate(3, 7),     // op 4 + payload 2 = 6 bytes follow
		"errlen overrunning the body":  mutate(29, 3),    // errlen 3 + oplen 4 > 6
		"errlen far beyond the body":   mutate(28, 0xff), // errlen 0xff00
	} {
		if f, n, err := DecodeFrame(buf); err == nil {
			t.Errorf("%s: decoded without error as %+v (%d bytes)", name, f, n)
		}
	}
	if _, _, err := DecodeFrame(good); err != nil {
		t.Fatalf("the unmutated frame: %v", err)
	}
}

func TestEncodeFrameRejectsLongOp(t *testing.T) {
	// oplen is one byte on the wire.
	f := requestFrame(1, 2, string(bytes.Repeat([]byte("o"), 256)), nil, 1)
	if _, err := EncodeFrame(f); err == nil {
		t.Fatal("a 256-byte op encoded")
	}
	f.Op = f.Op[:255]
	buf, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := DecodeFrame(buf); err != nil || got.Op != f.Op {
		t.Fatalf("255-byte op: %v", err)
	}
}

// TestAppendFrameZeroAllocs pins what the hot path is built on: a oneway
// frame encodes into a caller-owned buffer and decodes into a
// caller-owned Frame without touching the heap.
func TestAppendFrameZeroAllocs(t *testing.T) {
	buf := make([]byte, 0, maxDatagram)
	var seq uint64
	if n := testing.AllocsPerRun(1000, func() {
		seq++
		buf, _ = appendFrame(buf[:0], onewayFrame(7, 31, metrics.KindWalk, 1, seq))
	}); n != 0 {
		t.Errorf("encode-into of a oneway frame: %v allocs, want 0", n)
	}
	if len(buf) != onewayLen {
		t.Fatalf("a oneway frame is %d bytes on the wire, want %d", len(buf), onewayLen)
	}
	var f Frame
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := decodeFrame(&f, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decode-into of a oneway frame: %v allocs, want 0", n)
	}
	if f.Seq != seq || f.From != 7 || f.To != 31 || f.Kind != metrics.KindWalk || f.Count != 1 {
		t.Fatalf("decoded %+v", f)
	}
}

// TestDecodeFrameSharesNoMemory: the read loop reuses its buffer for the
// next datagram while a decoded payload is still with its handler.
func TestDecodeFrameSharesNoMemory(t *testing.T) {
	buf, err := EncodeFrame(responseFrame(&Frame{Op: "neighbors", Seq: 2, From: 1}, 5, []byte("table"), errors.New("half")))
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xee
	}
	if f.Op != "neighbors" || f.Err != "half" || string(f.Payload) != "table" {
		t.Fatalf("decoded frame changed with its buffer: %+v", f)
	}
}

// FuzzDecodeFrame asserts the decoder's hard contract: arbitrary bytes
// never panic, and whatever decodes re-encodes to something that decodes
// to the same frame.
func FuzzDecodeFrame(f *testing.F) {
	seed, _ := EncodeFrame(onewayFrame(1, 2, metrics.KindGossipSpread, 3, 4))
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// A coalesced datagram: the decoder must stop at the first frame's end.
	var coalesced []byte
	for i := uint64(0); i < 3; i++ {
		coalesced, _ = appendFrame(coalesced, onewayFrame(NodeID(i), noneID, metrics.KindPush, i+1, i))
	}
	f.Add(coalesced)
	// The largest frame the codec takes.
	big, err := EncodeFrame(responseFrame(&Frame{Op: "neighbors", Seq: 9, From: 3}, 4,
		bytes.Repeat([]byte("p"), MaxFrame-fixedLen-len("neighbors")-len("e")), errors.New("e")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(big)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n < headerLen || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re, err := EncodeFrame(fr)
		if err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode differs from the %d bytes consumed", n)
		}
		fr2, _, err := DecodeFrame(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if fr2.Type != fr.Type || fr2.Op != fr.Op || fr2.Seq != fr.Seq ||
			fr2.From != fr.From || fr2.To != fr.To || fr2.Count != fr.Count ||
			fr2.Kind != fr.Kind || fr2.Err != fr.Err || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("re-decode mismatch: %+v vs %+v", fr, fr2)
		}
	})
}
