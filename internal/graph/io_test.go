package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"p2psize/internal/xrand"
)

func roundTrip(t *testing.T, g *Graph) *Graph {
	t.Helper()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return got
}

func sameGraph(a, b *Graph) bool {
	if a.NumIDs() != b.NumIDs() || a.NumAlive() != b.NumAlive() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for id := NodeID(0); int(id) < a.NumIDs(); id++ {
		if a.Alive(id) != b.Alive(id) {
			return false
		}
		if !a.Alive(id) {
			continue
		}
		if a.Degree(id) != b.Degree(id) {
			return false
		}
		for _, v := range a.Neighbors(id) {
			if !b.HasEdge(id, v) {
				return false
			}
		}
	}
	return true
}

func TestRoundTripSimple(t *testing.T) {
	g := NewWithNodes(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	g.RemoveNode(2) // leave a dead node in the ID space
	got := roundTrip(t, g)
	if !sameGraph(g, got) {
		t.Fatal("round trip lost structure")
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripRandom(t *testing.T) {
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		g := Heterogeneous(100, 6, rng)
		for i := 0; i < 20; i++ {
			randomMutation(g, rng)
		}
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return sameGraph(g, got) && got.CheckInvariants() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	_, err := Read(strings.NewReader("NOPE garbage"))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v", err)
	}
}

func TestReadRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	g := NewWithNodes(1)
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // clobber version
	_, err := Read(bytes.NewReader(b))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v", err)
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	g := Ring(10)
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := Read(bytes.NewReader(b[:len(b)-3])); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestReadEmptyGraph(t *testing.T) {
	g := New(0)
	got := roundTrip(t, g)
	if got.NumIDs() != 0 || got.NumAlive() != 0 {
		t.Fatal("empty graph round trip wrong")
	}
}

// snapshotHeader is a snapshot's first 12 bytes: magic, version and a
// node count, with nothing after them.
func snapshotHeader(numIDs uint32) []byte {
	b := append([]byte(nil), magic[:]...)
	b = binary.LittleEndian.AppendUint32(b, formatVersion)
	return binary.LittleEndian.AppendUint32(b, numIDs)
}

// TestReadHostileHeader feeds headers whose node count no bitmap backs:
// each must be an error, and Read must not allocate for the claim.
func TestReadHostileHeader(t *testing.T) {
	for _, numIDs := range []uint32{5_000_000, math.MaxInt32, math.MaxInt32 + 1, math.MaxUint32} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := Read(bytes.NewReader(snapshotHeader(numIDs)))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("numIDs %d: accepted a %d-node graph", numIDs, g.NumIDs())
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("numIDs %d: Read allocated %d bytes before failing (%v)", numIDs, d, err)
		}
	}
}

// FuzzRead: no snapshot makes Read panic; an accepted graph is
// consistent, and its serialization is a fixed point (Read accepts
// edges in any order, WriteTo writes them in id order, so it is the
// second write that must repeat the first).
func FuzzRead(f *testing.F) {
	for _, g := range []*Graph{New(0), NewWithNodes(1), Ring(10), Heterogeneous(60, 6, xrand.New(1))} {
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(snapshotHeader(5_000_000))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		var first, second bytes.Buffer
		if _, err := g.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Read rejects what WriteTo wrote: %v", err)
		}
		if !sameGraph(g, back) {
			t.Fatal("round trip lost structure")
		}
		if _, err := back.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("WriteTo(Read(WriteTo(g))) differs from WriteTo(g)")
		}
	})
}
