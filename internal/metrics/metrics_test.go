package metrics

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Total() != 0 {
		t.Fatal("zero counter not empty")
	}
	c.Inc(KindWalk)
	c.Inc(KindWalk)
	c.Add(KindReply, 5)
	if c.Count(KindWalk) != 2 || c.Count(KindReply) != 5 {
		t.Fatalf("counts: walk=%d reply=%d", c.Count(KindWalk), c.Count(KindReply))
	}
	if c.Total() != 7 {
		t.Fatalf("Total = %d", c.Total())
	}
	c.Reset()
	if c.Total() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestCounterSnapshot(t *testing.T) {
	var c Counter
	c.Add(KindPush, 10)
	snap := c.Snapshot()
	c.Add(KindPush, 3)
	c.Add(KindPull, 4)
	// Snapshot must be unaffected by later increments.
	if snap.Total() != 10 {
		t.Fatalf("snapshot mutated: %d", snap.Total())
	}
}

func TestCounterMerge(t *testing.T) {
	var a, b Counter
	a.Add(KindWalk, 2)
	b.Add(KindWalk, 3)
	b.Add(KindControl, 1)
	a.Merge(&b)
	if a.Count(KindWalk) != 5 || a.Count(KindControl) != 1 {
		t.Fatalf("Merge wrong: %s", a.String())
	}
}

func TestCounterString(t *testing.T) {
	var c Counter
	if got := c.String(); got != "(no messages)" {
		t.Fatalf("empty String = %q", got)
	}
	c.Add(KindGossipSpread, 2)
	c.Inc(KindReply)
	s := c.String()
	for _, want := range []string{"gossip-spread=2", "reply=1", "total 3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String %q missing %q", s, want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindWalk.String() != "walk" || KindPull.String() != "pull" {
		t.Fatal("kind names wrong")
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Fatalf("unknown kind = %q", got)
	}
}

func TestCounterTotalIsSumProperty(t *testing.T) {
	check := func(incs []uint8) bool {
		var c Counter
		var want uint64
		for _, raw := range incs {
			k := Kind(raw % uint8(NumKinds))
			n := uint64(raw)
			c.Add(k, n)
			want += n
		}
		return c.Total() == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesAppend(t *testing.T) {
	var s Series
	if s.Len() != 0 {
		t.Fatal("empty series degenerate values")
	}
	s.Append(0, 5)
	s.Append(1, -2)
	s.Append(2, 9)
	if s.Len() != 3 || s.X[2] != 2 || s.Y[1] != -2 {
		t.Fatalf("Len = %d, points %v %v", s.Len(), s.X, s.Y)
	}
}
