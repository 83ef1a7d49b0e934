package monitor

import (
	"errors"
	"math"
	"strings"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// sizeEcho is a deterministic estimator: it reports the overlay's true
// size and meters one message, so RunLive's bookkeeping is checkable
// exactly.
type sizeEcho struct{ fail bool }

func (e sizeEcho) Name() string { return "size-echo" }
func (e sizeEcho) Estimate(n *overlay.Network) (float64, error) {
	if e.fail {
		return 0, errors.New("down")
	}
	n.SendTo(n.Graph().AliveAt(0), 0)
	return float64(n.Size()), nil
}

// leaveAt is a scripted Timeline: it removes one node when the grid
// reaches the trigger time.
type leaveAt struct {
	t     float64
	fired bool
}

func (s *leaveAt) AdvanceTo(net *overlay.Network, t float64) error {
	if !s.fired && t >= s.t {
		s.fired = true
		net.Leave(net.Graph().AliveAt(0))
	}
	return nil
}

func liveNet(n int) *overlay.Network {
	return overlay.New(graph.Heterogeneous(n, 4, xrand.New(3)), 4, nil)
}

func TestRunLiveStatic(t *testing.T) {
	net := liveNet(10)
	res, err := RunLive([]Instance{{Estimator: sizeEcho{}}}, net, nil, 30, Config{Cadence: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) != 3 || res.Scheduled[0] != 3 {
		t.Fatalf("times %v, scheduled %v", res.Times, res.Scheduled)
	}
	for i, v := range res.Raw[0] {
		if v != 10 {
			t.Fatalf("raw[%d] = %g, want 10", i, v)
		}
	}
	// One metered message per estimation, attributed by counter delta.
	if res.Messages[0] != 3 {
		t.Fatalf("messages = %d, want 3", res.Messages[0])
	}
}

func TestRunLiveSourceDrivesMembership(t *testing.T) {
	net := liveNet(10)
	src := &leaveAt{t: 20}
	res, err := RunLive([]Instance{{Estimator: sizeEcho{}}}, net, src, 30, Config{Cadence: 10})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 9, 9}
	for i, w := range want {
		if res.TrueSizes[i] != w || res.Raw[0][i] != w {
			t.Fatalf("tick %d: true %g raw %g, want %g", i, res.TrueSizes[i], res.Raw[0][i], w)
		}
	}
}

func TestRunLivePerInstanceCadence(t *testing.T) {
	net := liveNet(10)
	res, err := RunLive([]Instance{
		{Estimator: sizeEcho{}},
		{Estimator: sizeEcho{}, Cadence: 20},
	}, net, nil, 40, Config{Cadence: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled[0] != 4 || res.Scheduled[1] != 2 {
		t.Fatalf("scheduled = %v, want [4 2]", res.Scheduled)
	}
	// Off-schedule ticks hold NaN in the raw series.
	nans := 0
	for _, v := range res.Raw[1] {
		if math.IsNaN(v) {
			nans++
		}
	}
	if nans != 2 {
		t.Fatalf("instance 1 raw = %v, want 2 NaN gaps", res.Raw[1])
	}
}

func TestRunLiveFailuresAndErrors(t *testing.T) {
	net := liveNet(10)
	res, err := RunLive([]Instance{{Estimator: sizeEcho{fail: true}}}, net, nil, 20, Config{Cadence: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures[0] != 2 {
		t.Fatalf("failures = %d, want 2", res.Failures[0])
	}
	if _, err := RunLive([]Instance{{Estimator: sizeEcho{}}}, net, nil, 0, Config{Cadence: 10}); err == nil {
		t.Fatal("zero horizon accepted")
	}
	for _, h := range []float64{math.NaN(), math.Inf(1), -100} {
		if _, err := RunLive([]Instance{{Estimator: sizeEcho{}}}, net, nil, h, Config{Cadence: 10}); err == nil || !strings.Contains(err.Error(), "horizon") {
			t.Fatalf("horizon %g: err %v, want a horizon error", h, err)
		}
	}
	if _, err := RunLive([]Instance{{Estimator: sizeEcho{}}}, net, refreshErr{}, 20, Config{Cadence: 10}); err == nil {
		t.Fatal("refresh error not propagated")
	}
}

// A Timeline error aborts the run and names the tick it struck at.
func TestRunLiveTimelineErrorNamesTheTick(t *testing.T) {
	res, err := RunLive([]Instance{{Estimator: sizeEcho{}}}, liveNet(10), &failAt{t: 20}, 30, Config{Cadence: 10})
	if err == nil || res != nil {
		t.Fatalf("timeline error at tick 2 did not abort the run: res %v, err %v", res, err)
	}
	if !strings.Contains(err.Error(), "t=20") || !errors.Is(err, errLostCluster) {
		t.Fatalf("err = %q, want the tick's time and the timeline's error", err)
	}
}

var errLostCluster = errors.New("lost cluster")

// failAt is a Timeline that fails once the grid reaches t.
type failAt struct{ t float64 }

func (s *failAt) AdvanceTo(_ *overlay.Network, t float64) error {
	if t >= s.t {
		return errLostCluster
	}
	return nil
}

type refreshErr struct{}

func (refreshErr) AdvanceTo(*overlay.Network, float64) error { return errors.New("lost cluster") }
