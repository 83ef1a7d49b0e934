package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"p2psize/internal/core"
	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/registry"
	"p2psize/internal/transport"
	"p2psize/internal/xrand"
)

// newTestClient opens a coordinator-style UDP endpoint with the daemon
// bound as peer 0.
func newTestClient(daemonAddr string) (*transport.UDP, error) {
	cl, err := transport.NewUDP(transport.UDPConfig{Addr: "127.0.0.1:0", Self: graph.None})
	if err != nil {
		return nil, err
	}
	if err := cl.SetPeer(0, daemonAddr); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

func roster8(t *testing.T) []registry.Descriptor {
	t.Helper()
	ds, err := registry.Resolve([]string{"samplecollide", "hopssampling", "aggregation"})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestLiveVsSimulatedAgreement is the runtime's headline assertion: an
// 8-node live cluster over real UDP sockets produces, for every family,
// estimates that agree with a simulated run on the identical topology
// within tolerance. With no daemon failures the agreement is exact —
// the transport seam never feeds back into estimator arithmetic — so
// the observed divergence must be zero, well inside any tolerance.
func TestLiveVsSimulatedAgreement(t *testing.T) {
	plan := graph.Heterogeneous(8, 4, xrand.New(7))
	rep, err := Run(Config{
		Plan:       plan,
		MaxDeg:     4,
		Estimators: roster8(t),
		Seed:       11,
		Samples:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 8 {
		t.Fatalf("nodes = %d, want 8", rep.Nodes)
	}
	if rep.Tolerance != 0.05 {
		t.Fatalf("tolerance = %g, want 0.05", rep.Tolerance)
	}
	if !rep.Within {
		t.Fatalf("live run diverged beyond tolerance: %+v", rep.Families)
	}
	if len(rep.Departed) != 0 {
		t.Fatalf("daemons departed in a benign run: %v", rep.Departed)
	}
	for _, f := range rep.Families {
		if len(f.Live) != 2 || len(f.Sim) != 2 {
			t.Fatalf("%s: %d live / %d sim samples, want 2", f.Name, len(f.Live), len(f.Sim))
		}
		if f.MaxDivergence != 0 {
			t.Fatalf("%s: divergence %g, want exact agreement (live %v vs sim %v)",
				f.Name, f.MaxDivergence, f.Live, f.Sim)
		}
		for i := range f.Live {
			if math.IsNaN(f.Live[i]) {
				t.Fatalf("%s: live sample %d failed", f.Name, i)
			}
		}
	}
	// The protocol traffic actually crossed the coordinator's socket.
	if rep.Transport.Delivered == 0 {
		t.Fatalf("transport stats = %+v, want delivered traffic", rep.Transport)
	}
}

// TestClusterConservesMessages makes the wire falsifiable: what the
// coordinator's transport wrote is what the daemons counted. A few
// thousand messages sit far below one socket buffer, so nothing is lost
// by construction; the equality fails if a flush is skipped, the decoder
// drops a coalesced frame, or Count is mis-encoded.
func TestClusterConservesMessages(t *testing.T) {
	ds, err := registry.Resolve([]string{"hopssampling", "aggregation"})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	rep, err := Run(Config{
		Plan:       graph.Heterogeneous(8, 4, xrand.New(7)),
		MaxDeg:     4,
		Estimators: ds,
		Seed:       11,
		Samples:    3,
		Logf:       func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var metered uint64
	for _, f := range rep.Families {
		metered += f.Messages
	}
	if rep.Received == 0 || rep.Received != rep.Transport.Delivered || rep.Received != metered {
		t.Fatalf("daemons absorbed %d, the transport delivered %d, the families metered %d",
			rep.Received, rep.Transport.Delivered, metered)
	}
	if rep.Transport.Datagrams == 0 || rep.Transport.Datagrams > rep.Transport.Delivered {
		t.Fatalf("transport stats = %+v", rep.Transport)
	}
	want := fmt.Sprintf("daemons absorbed %d of %d delivered protocol messages", metered, metered)
	if !slices.Contains(lines, want) {
		t.Fatalf("no progress line %q in %q", want, lines)
	}
	// The bench reads the phases off the first three lines by index, and
	// the sink above is unsynchronized: under -race, a line logged from
	// the simulated oracle's goroutine fails here too.
	if len(lines) < 3 || !strings.HasPrefix(lines[0], "bootstrapped ") ||
		!strings.Contains(lines[1], " wired and verified ") || !strings.HasPrefix(lines[2], "hopssampling: ") {
		t.Fatalf("progress lines %q: want bootstrapped, wired and verified, then the first family", lines)
	}
}

// slowFamily is a transport-capable test family whose estimates take a
// few milliseconds each and are counted in done.
func slowFamily(done *atomic.Int64) registry.Descriptor {
	return registry.Descriptor{
		Name: "slow",
		New: func(*overlay.Network, *xrand.Rand, registry.Options) (core.Estimator, error) {
			return slowEstimator{done}, nil
		},
	}
}

type slowEstimator struct{ done *atomic.Int64 }

func (slowEstimator) Name() string { return "slow" }

func (e slowEstimator) Estimate(net *overlay.Network) (float64, error) {
	time.Sleep(10 * time.Millisecond)
	e.done.Add(1)
	return float64(net.Size()), nil
}

// TestRunJoinsOracleOnLiveError: when every daemon dies as the cluster
// is wired, Run returns the live run's error, and only once the
// simulated oracle has finished: no estimate runs after Run returns and
// no goroutine is left behind.
func TestRunJoinsOracleOnLiveError(t *testing.T) {
	const n, samples = 8, 20
	before := runtime.NumGoroutine()
	var nodes []*Node
	var done atomic.Int64
	_, err := Run(Config{
		Plan:       graph.Heterogeneous(n, 4, xrand.New(7)),
		MaxDeg:     4,
		Estimators: []registry.Descriptor{slowFamily(&done)},
		Seed:       11,
		Samples:    samples,
		Logf: func(format string, _ ...any) {
			if strings.Contains(format, "wired and verified") {
				for _, nd := range nodes {
					nd.Close()
				}
			}
		},
		started: func(ns []*Node) { nodes = ns },
		rto:     5 * time.Millisecond,
		retries: 1,
	})
	atReturn := done.Load()
	if len(nodes) != n {
		t.Fatalf("%d daemons started, want %d", len(nodes), n)
	}
	if err == nil || !strings.Contains(err.Error(), "cluster: live run: ") {
		t.Fatalf("err = %v, want the live run's error", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run returned, %d before it started", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
	if after := done.Load(); after != atReturn {
		t.Fatalf("the oracle had made %d estimates when Run returned and %d after", atReturn, after)
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	plan := graph.Heterogeneous(4, 3, xrand.New(1))
	roster := roster8(t)

	if _, err := Run(Config{Estimators: roster}); err == nil {
		t.Fatal("nil plan accepted")
	}
	if _, err := Run(Config{Plan: plan}); err == nil {
		t.Fatal("empty roster accepted")
	}
	if d, ok := registry.Get("idspace"); ok {
		if _, err := Run(Config{Plan: plan, Estimators: []registry.Descriptor{d}}); err == nil ||
			!strings.Contains(err.Error(), "transport") {
			t.Fatalf("snapshot-based family accepted into a live roster: %v", err)
		}
	}
	sparse := graph.NewWithNodes(3)
	sparse.RemoveNode(1)
	if _, err := Run(Config{Plan: sparse, Estimators: roster}); err == nil {
		t.Fatal("non-dense plan accepted")
	}
}

// TestNodeControlPlane drives one daemon's RPC surface directly through
// a second UDP endpoint, the way the coordinator does.
func TestNodeControlPlane(t *testing.T) {
	nd, err := NewNode("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	cl, err := newTestClient(nd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The ping reply is the daemon's Received counter, 8 bytes big-endian.
	if err := cl.Deliver(0, metrics.KindPush, 7); err != nil {
		t.Fatal(err)
	}
	if resp, err := cl.Request(0, "ping", nil); err != nil || len(resp) != 8 || binary.BigEndian.Uint64(resp) != 7 {
		t.Fatalf("ping = %x, %v; want the counter at 7", resp, err)
	}
	// The daemon serves only assign, neighbors and ping: the retired
	// membership and teardown ops are unknown like any other.
	for _, op := range []string{"bogus", "join", "leave", "shutdown"} {
		if _, err := cl.Request(0, op, []byte(`{"id":5,"addr":"127.0.0.1:11"}`)); err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Fatalf("op %q: err = %v, want an unknown-op error", op, err)
		}
	}
	assign := `{"id":3,"neighbors":[{"id":2,"addr":"127.0.0.1:10"},{"id":1,"addr":"127.0.0.1:9"}]}`
	if _, err := cl.Request(0, "assign", []byte(assign)); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Request(0, "neighbors", nil)
	if err != nil {
		t.Fatal(err)
	}
	var tab neighborsPayload
	if err := json.Unmarshal(resp, &tab); err != nil {
		t.Fatal(err)
	}
	if tab.ID != 3 || len(tab.Neighbors) != 2 || tab.Neighbors[0].ID != 1 || tab.Neighbors[1].ID != 2 {
		t.Fatalf("neighbors after assign = %+v, want id 3 with [1 2]", tab)
	}
}

// FuzzServeRequest holds the control plane to its contract under any
// op and payload: no panic, an op other than assign, neighbors and ping
// is an error, the neighbors table always comes back sorted by ID
// without duplicates, and after an accepted assign it answers with the
// assigned ID and exactly the assigned neighbor IDs.
// Hostnames in a payload resolve through a resolver whose Dial fails,
// so no lookup leaves the process.
func FuzzServeRequest(f *testing.F) {
	saved := net.DefaultResolver
	net.DefaultResolver = &net.Resolver{PreferGo: true, Dial: func(context.Context, string, string) (net.Conn, error) {
		return nil, errors.New("fuzz: name lookups are disabled")
	}}
	f.Cleanup(func() { net.DefaultResolver = saved })
	ops := []string{"assign", "neighbors", "ping", "join", "leave", "shutdown", "no-such-op"}
	f.Add(uint8(0), []byte(`{"id":3,"neighbors":[{"id":5,"addr":"127.0.0.1:9"},{"id":1,"addr":"127.0.0.1:10"},{"id":5,"addr":"127.0.0.1:11"}]}`))
	f.Add(uint8(0), []byte(`{"id":2,"neighbors":[{"id":0,"addr":"peer.invalid:9"}]}`))
	f.Add(uint8(0), []byte(`{"id":-1,"neighbors":[]}`))
	f.Add(uint8(3), []byte(`{"id":4,"addr":"127.0.0.1:12"}`))
	f.Add(uint8(4), []byte(`{"id":4}`))
	f.Add(uint8(1), []byte(nil))
	f.Add(uint8(2), []byte(nil))
	f.Add(uint8(5), []byte(nil))
	f.Add(uint8(6), []byte("{"))
	f.Fuzz(func(t *testing.T, sel uint8, payload []byte) {
		nd, err := NewNode("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer nd.Close()
		op := ops[int(sel)%len(ops)]
		resp, err := nd.ServeRequest(0, op, payload)
		if op == "ping" && (err != nil || len(resp) != 8) {
			t.Fatalf("ping = %x, %v; want the 8-byte counter", resp, err)
		}
		if known := op == "assign" || op == "neighbors" || op == "ping"; !known && err == nil {
			t.Fatalf("unknown op %q accepted", op)
		}
		raw, nerr := nd.ServeRequest(0, "neighbors", nil)
		if nerr != nil {
			t.Fatalf("neighbors after %s: %v", op, nerr)
		}
		var tab neighborsPayload
		if err := json.Unmarshal(raw, &tab); err != nil {
			t.Fatalf("neighbors after %s: %v", op, err)
		}
		for i := 1; i < len(tab.Neighbors); i++ {
			if tab.Neighbors[i-1].ID >= tab.Neighbors[i].ID {
				t.Fatalf("neighbors after %s are not sorted and distinct: %+v", op, tab.Neighbors)
			}
		}
		if op != "assign" || err != nil {
			return
		}
		var req assignPayload
		if err := json.Unmarshal(payload, &req); err != nil {
			t.Fatalf("an assign was accepted from a payload that does not decode: %v", err)
		}
		var want []transport.NodeID
		for _, nb := range req.Neighbors {
			want = append(want, nb.ID)
		}
		slices.Sort(want)
		want = slices.Compact(want)
		got := make([]transport.NodeID, len(tab.Neighbors))
		for i, nb := range tab.Neighbors {
			got[i] = nb.ID
		}
		if tab.ID != req.ID || !slices.Equal(got, want) {
			t.Fatalf("after assigning %d with neighbors %v: answers as %d with %v", req.ID, want, tab.ID, got)
		}
	})
}
