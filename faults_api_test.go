package p2psize

import (
	"math"
	"strings"
	"testing"

	"p2psize/internal/fault"
	"p2psize/internal/metrics"
)

func TestParseFaultsRoundTrip(t *testing.T) {
	f, err := ParseFaults("drop=0.05,delay=2x,lie=10@0.05,sybil=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Enabled() || !f.MessageFaults() {
		t.Fatalf("spec reported disabled: %+v", f)
	}
	if f.Drop != 0.05 || f.DelayFactor != 2 || f.LieScale != 10 || f.LieFrac != 0.05 || f.SybilFrac != 0.2 {
		t.Fatalf("fields: %+v", f)
	}
	back, err := ParseFaults(f.String())
	if err != nil || back != f {
		t.Fatalf("round-trip: %+v -> %q -> %+v (%v)", f, f.String(), back, err)
	}
	if _, err := ParseFaults("drop=2"); err == nil {
		t.Fatal("invalid spec accepted")
	}
	zero, err := ParseFaults("")
	if err != nil || zero.Enabled() {
		t.Fatalf("empty spec: %+v, %v", zero, err)
	}
}

// TestApplyFaultsDeterministic pins the decorator's contract: equal
// (estimator seed, fault seed) pairs reproduce the estimate exactly,
// the benign scenario is the identity, and the faulted walk pays
// retransmissions the benign run does not.
func TestApplyFaultsDeterministic(t *testing.T) {
	net, err := NewNetwork(NetworkOptions{Nodes: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	run := func() (float64, uint64) {
		net.ResetMessages()
		e, err := NewEstimatorByName("sc", EstimatorConfig{SCL: 50, Seed: 7}, net)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ApplyFaults(e, FaultOptions{Drop: 0.2}, 99)
		if err != nil {
			t.Fatal(err)
		}
		v, err := f.Estimate(net)
		if err != nil {
			t.Fatal(err)
		}
		return v, net.Messages()
	}
	v1, m1 := run()
	v2, m2 := run()
	if v1 != v2 || m1 != m2 {
		t.Fatalf("faulted runs differ: (%g, %d) vs (%g, %d)", v1, m1, v2, m2)
	}

	net.ResetMessages()
	benign, err := NewEstimatorByName("sc", EstimatorConfig{SCL: 50, Seed: 7}, net)
	if err != nil {
		t.Fatal(err)
	}
	if same, err := ApplyFaults(benign, FaultOptions{}, 99); err != nil || same != benign {
		t.Fatalf("benign ApplyFaults is not the identity: %v, %v", same, err)
	}
	vb, err := benign.Estimate(net)
	if err != nil {
		t.Fatal(err)
	}
	if vb != v1 {
		t.Fatalf("drop changed a reliable walk's estimate: %g benign vs %g faulted", vb, v1)
	}
	if mb := net.Messages(); mb >= m1 {
		t.Fatalf("faulted run metered %d messages, benign %d; want retransmission overhead", m1, mb)
	}

	if _, err := ApplyFaults(benign, FaultOptions{Drop: 2}, 99); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

func TestApplyAdversary(t *testing.T) {
	net, err := NewNetwork(NetworkOptions{Nodes: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	silenced, sybils, err := net.ApplyAdversary(FaultOptions{SilentFrac: 0.1, SybilFrac: 0.2}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if silenced == 0 || sybils != 200 {
		t.Fatalf("silenced %d, sybils %d; want > 0 and 200", silenced, sybils)
	}
	if net.Size() != 1200 {
		t.Fatalf("size %d after inflation, want 1200", net.Size())
	}
	if _, _, err := net.ApplyAdversary(FaultOptions{SilentFrac: 2}, 42); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

func TestMonitorResultBounds(t *testing.T) {
	net, err := NewNetwork(NetworkOptions{Nodes: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTrace(TraceOptions{Nodes: 500, Horizon: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEstimatorByName("hops", EstimatorConfig{Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMonitor(net, tr, []Estimator{e}, MonitorOptions{Cadence: 10})
	if err != nil {
		t.Fatal(err)
	}
	res.Estimates(0) // in range: must not panic
	for _, k := range []int{-1, 1, 99} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("index %d did not panic", k)
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "out of range") {
					t.Fatalf("index %d panicked with %v", k, r)
				}
			}()
			res.Tracking(k)
		}()
	}
}

// TestReliableFaultsChangeOnlyTheBill: a family whose traffic is all
// request/response kinds (fault.Reliable) retransmits what drop loses,
// and a duplicate carries nothing new, so under ApplyFaults drop=p and
// dup=q leave every estimate bit-equal to the fault-free run's and move
// only the bill. A message dropped with probability p is sent a
// geometric number of times, so base messages cost base/(1-p) with
// standard deviation sqrt(base·p)/(1-p); duplicates are binomial, so
// base·(1+q) with standard deviation sqrt(base·q·(1-q)). Each count
// must fall within six standard deviations of its mean.
func TestReliableFaultsChangeOnlyTheBill(t *testing.T) {
	const p, q, estimates = 0.2, 0.3, 3
	net, err := NewNetwork(NetworkOptions{Nodes: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string, f FaultOptions) (ests []uint64, msgs uint64) {
		net.ResetMessages()
		e, err := NewEstimatorByName(name, EstimatorConfig{SCL: 50, Tours: 1, Seed: 42}, net)
		if err != nil {
			t.Fatal(err)
		}
		if e, err = ApplyFaults(e, f, 99); err != nil {
			t.Fatal(err)
		}
		for range estimates {
			v, err := e.Estimate(net)
			if err != nil {
				t.Fatalf("%s under %q: %v", name, f, err)
			}
			ests = append(ests, math.Float64bits(v))
		}
		return ests, net.Messages()
	}
	var checked []string
	for _, in := range Estimators() {
		want, base := run(in.Name, FaultOptions{})
		reliable := true
		for _, k := range metrics.AllKinds() {
			reliable = reliable && (net.net.Counter().Count(k) == 0 || fault.Reliable(k))
		}
		if !reliable {
			continue
		}
		checked = append(checked, in.Name)
		b := float64(base)
		for _, c := range []struct {
			f        FaultOptions
			mean, sd float64
		}{
			{FaultOptions{Drop: p}, b / (1 - p), math.Sqrt(b*p) / (1 - p)},
			{FaultOptions{Dup: q}, b * (1 + q), math.Sqrt(b * q * (1 - q))},
		} {
			got, msgs := run(in.Name, c.f)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s under %q: estimate %d is %v, fault-free %v", in.Name, c.f,
						i, math.Float64frombits(got[i]), math.Float64frombits(want[i]))
				}
			}
			if d := math.Abs(float64(msgs) - c.mean); d > 6*c.sd {
				t.Errorf("%s under %q: %d messages, want %.0f ± %.0f (6 sd) from a fault-free %d",
					in.Name, c.f, msgs, c.mean, 6*c.sd, base)
			}
		}
	}
	t.Logf("all-reliable families: %v", checked)
	if len(checked) < 5 {
		t.Fatalf("only %v send reliable kinds alone; the claim covers too few families", checked)
	}
}
