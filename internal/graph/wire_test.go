package graph

import (
	"fmt"
	"testing"

	"p2psize/internal/xrand"
)

// TestWireReadAheadOwnsNoPage runs a wiring call whose every draw is
// rejected — its hints, and nothing written after them — on a fresh COW
// clone large enough to be hinted: every page must still be the base's.
func TestWireReadAheadOwnsNoPage(t *testing.T) {
	base := Ring(hintMinAlive + 5*pageSize)
	c := base.CloneCOW()
	rng := xrand.New(7)
	before := *rng
	c.WireUpTo(3, 5, 2, rng) // everyone has degree 2: 200 rejections
	if *rng == before {
		t.Fatal("the wiring loop drew nothing")
	}
	if c.SharedPages() != c.TotalPages() {
		t.Fatalf("read-ahead owns pages: %d of %d still shared", c.SharedPages(), c.TotalPages())
	}
	if err := graphsEqual(base, c); err != nil {
		t.Fatal(err)
	}
}

// TestHintsAreInert holds the two replay hints — a join's (hintDraws)
// and a departure's (HintRemove) — to their contract on a fresh COW
// clone of each fixture: they return without fault, own no page, leave
// the caller's generator bit-identical and the graph equal to the base.
// HintRemove is handed every id, the dead ones, None and one past the
// last. The identity and churned fixtures are large enough for the join
// hints to run.
func TestHintsAreInert(t *testing.T) {
	emptied := NewWithNodes(3)
	for id := NodeID(0); id < 3; id++ {
		emptied.RemoveNode(id)
	}
	churned := Heterogeneous(hintMinAlive+3*pageSize, 10, xrand.New(3))
	for v := 1; v < 3*inlineCap; v++ {
		churned.AddEdge(0, NodeID(v)) // a spilled list
	}
	for id := NodeID(5); int(id) < churned.NumIDs(); id += 97 {
		churned.RemoveNode(id)
	}
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"no-ids", New(0)},
		{"none-alive", emptied},
		{"single", NewWithNodes(1)},
		{"identity", Ring(hintMinAlive + 5*pageSize)},
		{"churned-spilled", churned},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "identity" && tc.g.NumAlive() != tc.g.NumIDs() {
				t.Fatal("fixture is not the identity")
			}
			if tc.name == "churned-spilled" && (tc.g.Alive(5) || tc.g.Degree(0) <= inlineCap || tc.g.NumAlive() < hintMinAlive) {
				t.Fatal("fixture lacks a dead or a spilled leaver, or is not hinted")
			}
			c := tc.g.CloneCOW()
			rng := xrand.New(11)
			for range 50 {
				before := *rng
				c.hintDraws(rng)
				if *rng != before {
					t.Fatal("hintDraws advanced the caller's generator")
				}
				rng.Uint64()
			}
			for id := None; int(id) <= c.NumIDs(); id++ {
				c.HintRemove(id)
			}
			if c.SharedPages() != c.TotalPages() {
				t.Fatalf("hints own pages: %d of %d still shared", c.SharedPages(), c.TotalPages())
			}
			if err := graphsEqual(tc.g, c); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BenchmarkBuild times the paper's 1M-scale input, Heterogeneous(n, 10),
// reported per node.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				Heterogeneous(n, 10, xrand.New(uint64(i+1)))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/node")
		})
	}
}
