package idspace

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

func hetNet(n int, seed uint64) *overlay.Network {
	return overlay.New(graph.Heterogeneous(n, 10, xrand.New(seed)), 10, nil)
}

func TestRingOrderInvariant(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%50 + 2
		net := hetNet(n, seed)
		rng := xrand.New(seed + 1)
		r := NewRing(net, rng)
		if r.Size() != n {
			return false
		}
		// Walking successors from any node must visit every node exactly
		// once before returning.
		start := net.Graph().AliveAt(0)
		cur := start
		visited := map[graph.NodeID]bool{start: true}
		for i := 0; i < n-1; i++ {
			next, ok := r.Successor(cur)
			if !ok || visited[next] {
				return false
			}
			visited[next] = true
			cur = next
		}
		next, ok := r.Successor(cur)
		return ok && next == start
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRingJoinLeave(t *testing.T) {
	net := hetNet(10, 1)
	rng := xrand.New(2)
	r := NewRing(net, rng)
	id := net.Graph().AliveAt(3)
	r.Leave(id)
	if r.Size() != 9 {
		t.Fatalf("Size = %d", r.Size())
	}
	if _, ok := r.ID(id); ok {
		t.Fatal("left node still has an ID")
	}
	r.Join(id, rng)
	if r.Size() != 10 {
		t.Fatalf("Size = %d after rejoin", r.Size())
	}
}

func TestRingDoubleJoinPanics(t *testing.T) {
	net := hetNet(5, 3)
	r := NewRing(net, xrand.New(4))
	defer func() {
		if recover() == nil {
			t.Fatal("double join did not panic")
		}
	}()
	r.Join(net.Graph().AliveAt(0), xrand.New(5))
}

func TestRingLeaveAbsentPanics(t *testing.T) {
	net := hetNet(5, 6)
	r := NewRing(net, xrand.New(7))
	r.Leave(0)
	defer func() {
		if recover() == nil {
			t.Fatal("double leave did not panic")
		}
	}()
	r.Leave(0)
}

func TestEstimatorValidation(t *testing.T) {
	net := hetNet(5, 8)
	r := NewRing(net, xrand.New(9))
	for name, fn := range map[string]func(){
		"nil ring": func() { New(nil, xrand.New(1)) },
		"nil rng":  func() { New(r, nil) },
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

func TestDensityEstimateAccuracy(t *testing.T) {
	// k = 200 successors: relative error ~ 1/sqrt(200) ≈ 7%; the mean
	// over several starts should be well within that.
	const n = 5000
	net := hetNet(n, 10)
	r := NewRing(net, xrand.New(11))
	e := New(r, xrand.New(12))
	sum := 0.0
	const runs = 20
	for i := 0; i < runs; i++ {
		est, err := e.Estimate(net)
		if err != nil {
			t.Fatal(err)
		}
		sum += est
	}
	if mean := sum / runs; math.Abs(mean-n)/n > 0.08 {
		t.Fatalf("mean estimate %.0f, truth %d", mean, n)
	}
}

// TestAccuracyImprovesWithK: from the same starts, the estimator's 200
// successors beat the k/f estimate of the first 10 alone, which the
// test reads off the ring itself.
func TestAccuracyImprovesWithK(t *testing.T) {
	const n, short = 5000, 10
	net := hetNet(n, 13)
	r := NewRing(net, xrand.New(14))
	e := New(r, xrand.New(15))
	starts := xrand.New(16)
	var worst10, worst200 float64
	for i := 0; i < 15; i++ {
		start, _ := net.RandomPeer(starts)
		est, err := e.EstimateFrom(net, start)
		if err != nil {
			t.Fatal(err)
		}
		worst200 = max(worst200, math.Abs(est-n)/n)
		cur := start
		for range short {
			cur, _ = r.Successor(cur)
		}
		from, _ := r.ID(start)
		to, _ := r.ID(cur)
		est10 := short / (float64(to-from) / float64(1<<63) / 2)
		worst10 = max(worst10, math.Abs(est10-n)/n)
	}
	if worst200 >= worst10 {
		t.Fatalf("k=200 worst error %.2f not below k=10's %.2f", worst200, worst10)
	}
}

func TestCostIsKMessages(t *testing.T) {
	const n = 1000
	net := hetNet(n, 16)
	r := NewRing(net, xrand.New(17))
	e := New(r, xrand.New(18))
	if _, err := e.Estimate(net); err != nil {
		t.Fatal(err)
	}
	if got := net.Counter().Count(metrics.KindWalk); got != successors {
		t.Fatalf("cost = %d messages, want k = %d", got, successors)
	}
}

func TestKClampedToRingSize(t *testing.T) {
	net := hetNet(5, 19)
	r := NewRing(net, xrand.New(20))
	e := New(r, xrand.New(21))
	est, err := e.Estimate(net)
	if err != nil {
		t.Fatal(err)
	}
	// With k clamped to N-1 the walk covers almost the whole space, so
	// the estimate is close to N even on a tiny ring.
	if est < 2 || est > 15 {
		t.Fatalf("tiny ring estimate %.1f", est)
	}
}

func TestSingleNodeRing(t *testing.T) {
	g := graph.NewWithNodes(1)
	net := overlay.New(g, 10, nil)
	r := NewRing(net, xrand.New(22))
	e := New(r, xrand.New(23))
	est, err := e.Estimate(net)
	if err != nil {
		t.Fatal(err)
	}
	if est != 1 {
		t.Fatalf("single-node estimate %.1f", est)
	}
}

func TestEstimateTracksChurn(t *testing.T) {
	const n = 2000
	net := hetNet(n, 24)
	rng := xrand.New(25)
	r := NewRing(net, xrand.New(26))
	e := New(r, xrand.New(27))
	// Remove half the peers from both overlay and ring.
	for i := 0; i < n/2; i++ {
		id, ok := net.Graph().RandomAlive(rng)
		if !ok {
			break
		}
		r.Leave(id)
		net.Leave(id)
	}
	sum := 0.0
	const runs = 10
	for i := 0; i < runs; i++ {
		est, err := e.Estimate(net)
		if err != nil {
			t.Fatal(err)
		}
		sum += est
	}
	if mean := sum / runs; math.Abs(mean-float64(n/2))/float64(n/2) > 0.12 {
		t.Fatalf("post-churn mean estimate %.0f, truth %d", mean, n/2)
	}
}

func TestEstimateFromUnknownNode(t *testing.T) {
	net := hetNet(10, 28)
	r := NewRing(net, xrand.New(29))
	id := net.Graph().AliveAt(0)
	r.Leave(id)
	e := New(r, xrand.New(30))
	if _, err := e.EstimateFrom(net, id); err == nil {
		t.Fatal("estimate from off-ring node accepted")
	}
}

func TestEmptyOverlay(t *testing.T) {
	g := graph.NewWithNodes(1)
	g.RemoveNode(0)
	net := overlay.New(g, 10, nil)
	r := &Ring{ids: map[graph.NodeID]uint64{}}
	e := New(r, xrand.New(31))
	if _, err := e.Estimate(net); !errors.Is(err, ErrEmptyOverlay) {
		t.Fatalf("err = %v", err)
	}
}

// Leave removes node from the ring. Removing an absent node panics.
func (r *Ring) Leave(node graph.NodeID) {
	id, ok := r.ids[node]
	if !ok {
		panic(fmt.Sprintf("idspace: node %d not on the ring", node))
	}
	delete(r.ids, node)
	i, _ := r.lookup(id)
	r.sorted = append(r.sorted[:i], r.sorted[i+1:]...)
}
