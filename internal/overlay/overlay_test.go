package overlay

import (
	"testing"
	"testing/quick"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/xrand"
)

func newTestNet(n int, seed uint64) (*Network, *xrand.Rand) {
	rng := xrand.New(seed)
	g := graph.Heterogeneous(n, 10, rng)
	return New(g, 10, nil), rng
}

func TestNewValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"nil graph": func() { New(nil, 10, nil) },
		"maxDeg 0":  func() { New(graph.NewWithNodes(1), 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSizeAndSend(t *testing.T) {
	net, _ := newTestNet(100, 1)
	if net.Size() != 100 {
		t.Fatalf("Size = %d", net.Size())
	}
	net.Send(metrics.KindWalk)
	net.SendN(metrics.KindReply, 4)
	if got := net.Counter().Total(); got != 5 {
		t.Fatalf("counter total = %d", got)
	}
	if net.MaxDegree() != 10 {
		t.Fatalf("MaxDegree = %d", net.MaxDegree())
	}
}

func TestSharedCounter(t *testing.T) {
	var c metrics.Counter
	g := graph.NewWithNodes(2)
	net := New(g, 5, &c)
	net.Send(metrics.KindPush)
	if c.Count(metrics.KindPush) != 1 {
		t.Fatal("shared counter not used")
	}
}

func TestJoinWiresUnderCap(t *testing.T) {
	net, rng := newTestNet(500, 2)
	id := net.Join(5, rng)
	if !net.Alive(id) {
		t.Fatal("joined peer not alive")
	}
	if d := net.Degree(id); d < 1 || d > 5 {
		t.Fatalf("join degree = %d, want 1..5", d)
	}
	if net.Size() != 501 {
		t.Fatalf("Size = %d", net.Size())
	}
	if err := net.Graph().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinClampsTarget(t *testing.T) {
	net, rng := newTestNet(100, 3)
	id := net.Join(99, rng) // clamped to maxDeg=10
	if d := net.Degree(id); d > 10 {
		t.Fatalf("degree %d exceeds cap", d)
	}
	id2 := net.Join(-4, rng) // clamped to 1
	if d := net.Degree(id2); d < 1 {
		t.Fatalf("degree %d, want >= 1", d)
	}
}

func TestJoinIntoEmptyOverlay(t *testing.T) {
	g := graph.NewWithNodes(1)
	g.RemoveNode(0)
	net := New(g, 10, nil)
	id := net.Join(3, xrand.New(1))
	if !net.Alive(id) || net.Degree(id) != 0 {
		t.Fatal("join into empty overlay should create isolated peer")
	}
}

func TestLeaveNoRepair(t *testing.T) {
	net, rng := newTestNet(200, 4)
	id, ok := net.RandomPeer(rng)
	if !ok {
		t.Fatal("no peer")
	}
	nbrs := append([]NodeID(nil), net.Graph().Neighbors(id)...)
	degBefore := make(map[NodeID]int, len(nbrs))
	for _, b := range nbrs {
		degBefore[b] = net.Degree(b)
	}
	net.Leave(id)
	if net.Alive(id) {
		t.Fatal("peer alive after Leave")
	}
	// Paper rule: bereaved neighbors lose exactly one link, no rewiring.
	for _, b := range nbrs {
		if net.Degree(b) != degBefore[b]-1 {
			t.Fatalf("neighbor %d degree %d, want %d", b, net.Degree(b), degBefore[b]-1)
		}
	}
	if err := net.Graph().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLeaveDeadPanics(t *testing.T) {
	net, rng := newTestNet(10, 5)
	id, _ := net.RandomPeer(rng)
	net.Leave(id)
	defer func() {
		if recover() == nil {
			t.Fatal("double Leave did not panic")
		}
	}()
	net.Leave(id)
}

func TestLeaveRandom(t *testing.T) {
	net, rng := newTestNet(50, 6)
	for net.Size() > 0 {
		if _, ok := net.LeaveRandom(rng); !ok {
			t.Fatal("LeaveRandom failed on non-empty overlay")
		}
	}
	if _, ok := net.LeaveRandom(rng); ok {
		t.Fatal("LeaveRandom succeeded on empty overlay")
	}
}

func TestChurnPreservesInvariants(t *testing.T) {
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		net, _ := newTestNet(100, seed)
		for op := 0; op < 200; op++ {
			if rng.Uint64()&1 == 1 && net.Size() > 2 {
				net.LeaveRandom(rng)
			} else {
				net.JoinRandomDegree(rng)
			}
		}
		return net.Graph().CheckInvariants() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneAndView(t *testing.T) {
	net, rng := newTestNet(400, 3)
	net.Send(metrics.KindWalk)

	clone := net.CloneCOW()
	if clone.Size() != net.Size() || clone.MaxDegree() != net.MaxDegree() {
		t.Fatalf("clone shape differs")
	}
	if clone.Counter() == net.Counter() || clone.Counter().Total() != 0 {
		t.Fatal("clone must start with a fresh counter")
	}
	if clone.Graph() == net.Graph() {
		t.Fatal("clone shares the graph")
	}
	before := net.Size()
	clone.LeaveRandom(rng)
	if net.Size() != before {
		t.Fatal("clone mutation leaked into original")
	}

	view := net.View()
	if view.Graph() != net.Graph() {
		t.Fatal("view must share the graph")
	}
	if view.Counter() == net.Counter() || view.Counter().Total() != 0 {
		t.Fatal("view must meter on a fresh counter")
	}
	view.Send(metrics.KindWalk)
	view.SendN(metrics.KindReply, 3)
	if net.Counter().Total() != 1 {
		t.Fatalf("view traffic leaked into original: %v", net.Counter())
	}
	if view.Counter().Total() != 4 {
		t.Fatalf("view counter = %v", view.Counter())
	}
}
