package epidemic_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"p2psize/internal/aggregation"
	"p2psize/internal/core"
	"p2psize/internal/epidemic"
	"p2psize/internal/fault"
	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/pushsum"
	"p2psize/internal/xrand"
)

// The contract every family's Protocol keeps on the epoch driver,
// written once and run over both families.

// instance is one family's Protocol as the tests drive it.
type instance struct {
	StartEpoch func(*overlay.Network) error
	RunRound   func(*overlay.Network) error
	Estimate   func(*overlay.Network) (float64, bool)
	// oneShot is the one-shot adapter over the same epoch.
	oneShot core.Estimator
	grow    func(numIDs, ceil int)
	reserve func(n int) // Epoch.ReserveDeferrals
	// snap copies the per-node state and membership.
	snap func() snapshot
}

// snapshot is the complete per-node state of an epoch: words holds each
// node's state as perNode float64s, bit for bit, and member whether the
// node participates in the current epoch (Epoch.Participant).
type snapshot struct {
	words   []float64
	perNode int
	member  []bool
}

// node returns the state words of node id.
func (s snapshot) node(id int) []float64 { return s.words[id*s.perNode : (id+1)*s.perNode] }

// family is one row of the contract table.
type family struct {
	name string
	new  func(cfg epidemic.Config, rng *xrand.Rand) instance
	// errNoEpoch and errEmptyOverlay are the family's sentinels.
	errNoEpoch, errEmptyOverlay error
	// nodeBytes is the state a node costs: its state S, which also
	// carries its membership.
	nodeBytes uint64
	// kinds are the messages one visit meters with nothing dropped.
	kinds []metrics.Kind
}

var families = []family{
	{
		name: "aggregation",
		new: func(cfg epidemic.Config, rng *xrand.Rand) instance {
			p := aggregation.New(cfg, rng)
			return wrap(p.StartEpoch, p.RunRound, p.Estimate, &p.Epoch)
		},
		errNoEpoch: aggregation.ErrNoEpoch, errEmptyOverlay: aggregation.ErrEmptyOverlay,
		nodeBytes: 8,
		kinds:     []metrics.Kind{metrics.KindPush, metrics.KindPull},
	},
	{
		name: "pushsum",
		new: func(cfg epidemic.Config, rng *xrand.Rand) instance {
			p := pushsum.New(cfg, rng)
			return wrap(p.StartEpoch, p.RunRound, p.Estimate, &p.Epoch)
		},
		errNoEpoch: pushsum.ErrNoEpoch, errEmptyOverlay: pushsum.ErrEmptyOverlay,
		nodeBytes: 8 + 8,
		kinds:     []metrics.Kind{metrics.KindPush},
	},
}

func wrap[S, D any](start, round func(*overlay.Network) error, estimate func(*overlay.Network) (float64, bool), e *epidemic.Epoch[S, D]) instance {
	return instance{
		StartEpoch: start, RunRound: round, Estimate: estimate,
		oneShot: epidemic.NewEstimator(e, epidemic.NewIdle[S, D]()),
		grow:    e.Grow,
		reserve: e.ReserveDeferrals,
		snap: func() snapshot {
			member := make([]bool, len(e.State))
			for id := range member {
				member[id] = e.Participant(graph.NodeID(id))
			}
			return snapshot{words: words(e.State), perNode: len(words(make([]S, 1))), member: member}
		},
	}
}

// words flattens per-node states — a float64, or a struct of float64
// fields — into their float64 words, in node order.
func words[S any](states []S) []float64 {
	out := make([]float64, 0, len(states))
	for _, s := range states {
		v := reflect.ValueOf(s)
		if v.Kind() == reflect.Float64 {
			out = append(out, v.Float())
			continue
		}
		for i := 0; i < v.NumField(); i++ {
			out = append(out, v.Field(i).Float())
		}
	}
	return out
}

func hetNet(n int, seed uint64) *overlay.Network {
	return overlay.New(graph.Heterogeneous(n, 10, xrand.New(seed)), 10, nil)
}

// epoch runs one epoch of rounds on a fresh overlay and returns the
// complete observable state a round sweep produces: every node's state
// and membership, and the metered message total.
func epoch(t *testing.T, f family, n int, cfg epidemic.Config, seed uint64, rounds int) (snapshot, uint64) {
	t.Helper()
	return epochOn(t, f, n, cfg, seed, rounds, func(*overlay.Network) {})
}

// epochOn is epoch with setup applied to the fresh overlay first (a
// fault policy or a transport to install).
func epochOn(t *testing.T, f family, n int, cfg epidemic.Config, seed uint64, rounds int, setup func(*overlay.Network)) (snapshot, uint64) {
	t.Helper()
	net := hetNet(n, seed)
	setup(net)
	p := f.new(cfg, xrand.New(seed+1))
	if err := p.StartEpoch(net); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		if err := p.RunRound(net); err != nil {
			t.Fatal(err)
		}
	}
	return p.snap(), net.Counter().Total()
}

// firstDiff returns the first node whose membership or, for a member,
// state differs between a and b, or -1 when they are bit-equal.
func firstDiff(a, b snapshot) int {
	if len(a.member) != len(b.member) {
		return min(len(a.member), len(b.member))
	}
	for id := range a.member {
		if a.member[id] != b.member[id] {
			return id
		}
		if !a.member[id] {
			continue
		}
		for i, w := range a.node(id) {
			if math.Float64bits(w) != math.Float64bits(b.node(id)[i]) {
				return id
			}
		}
	}
	return -1
}

func TestConfigValidation(t *testing.T) {
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			mustPanic := func(what string, cfg epidemic.Config, rng *xrand.Rand) {
				t.Helper()
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%s did not panic", what)
					}
					if msg := fmt.Sprint(r); !strings.HasPrefix(msg, f.name+": ") {
						t.Fatalf("%s panicked with %q, not naming the family", what, msg)
					}
				}()
				f.new(cfg, rng)
			}
			mustPanic("RoundsPerEpoch=0", epidemic.Config{}, xrand.New(1))
			mustPanic("Shards=-1", epidemic.Config{RoundsPerEpoch: 1, Shards: -1}, xrand.New(1))
			mustPanic("Shards beyond the cap", epidemic.Config{RoundsPerEpoch: 1, Shards: parallel.MaxConfigShards + 1}, xrand.New(1))
			mustPanic("a nil rng", epidemic.Default(), nil)
		})
	}
}

// TestRunRoundBeforeStartErrors: a round before the first epoch is a
// caller's mistake reported as the family's ErrNoEpoch, not a panic, and
// it leaves the protocol usable.
func TestRunRoundBeforeStartErrors(t *testing.T) {
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			net := hetNet(10, 2)
			p := f.new(epidemic.Default(), xrand.New(1))
			if err := p.RunRound(net); !errors.Is(err, f.errNoEpoch) {
				t.Fatalf("RunRound before StartEpoch returned %v, want ErrNoEpoch", err)
			}
			if net.Counter().Total() != 0 {
				t.Fatal("a refused round metered messages")
			}
			if err := p.StartEpoch(net); err != nil {
				t.Fatal(err)
			}
			if err := p.RunRound(net); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEmptyOverlay: with no live peer to initiate, StartEpoch and the
// one-shot adapter return the family's ErrEmptyOverlay, and no estimate
// is available before any epoch — on an overlay that never had a node
// and on one whose only node left.
func TestEmptyOverlay(t *testing.T) {
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			emptied := graph.NewWithNodes(1)
			emptied.RemoveNode(0)
			for _, g := range []*graph.Graph{graph.New(0), emptied} {
				net := overlay.New(g, 10, nil)
				p := f.new(epidemic.Default(), xrand.New(17))
				if err := p.StartEpoch(net); !errors.Is(err, f.errEmptyOverlay) {
					t.Fatalf("StartEpoch: err = %v", err)
				}
				if _, ok := p.Estimate(net); ok {
					t.Fatal("estimate available before any epoch")
				}
				if _, err := f.new(epidemic.Default(), xrand.New(1)).oneShot.Estimate(net); err != f.errEmptyOverlay {
					t.Fatalf("one-shot Estimate: err = %v, want ErrEmptyOverlay", err)
				}
			}
		})
	}
}

// TestGrowAllocatesOnce: extending the one per-node vector to a million
// ids allocates it once, not along append's 1.25x regrowth chain (which
// cost five times the final size, resident until the next GC), and the
// new ids start outside the epoch. Under an id reservation — a ceiling
// beyond the ids — the vector is made once at the ceiling, and growing
// on up to it allocates no second one.
func TestGrowAllocatesOnce(t *testing.T) {
	const n = 1000000
	race := raceEnabled() // the race detector keeps append's make([]T, k) temporary from being elided
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			final := n * f.nodeBytes
			budget := final * 11 / 10
			if race {
				budget *= 2
			}
			p := f.new(epidemic.Default(), xrand.New(1))
			if got := allocated(func() { p.grow(n, n) }); got > budget {
				t.Fatalf("growing to %d ids allocated %d bytes for %d bytes of state", n, got, final)
			}
			reserved := f.new(epidemic.Default(), xrand.New(1))
			if got := allocated(func() { reserved.grow(n/2, n) }); got < final || got > budget {
				t.Fatalf("growing to %d of %d reserved ids allocated %d bytes, want the ceiling's %d once", n/2, n, got, final)
			}
			if got := allocated(func() { reserved.grow(n, n) }); !race && got >= final/2 {
				t.Fatalf("growing on to the reserved %d ids allocated %d bytes: the vector was made again", n, got)
			}
			p.grow(n+3, n)
			s := p.snap()
			if len(s.words) != (n+3)*s.perNode {
				t.Fatalf("the vector holds %d states, want %d", len(s.words)/s.perNode, n+3)
			}
			if id := slices.Index(s.member, true); id >= 0 {
				t.Fatalf("grown id %d is a member before any epoch", id)
			}
		})
	}
}

// TestWarmShardedRoundAllocatesNoVector guards "keys are resolved into
// the engine's own scratch": once warm, a sharded 100k round allocates
// per-shard bookkeeping only, nothing proportional to N (a key vector
// would be 400 KB).
func TestWarmShardedRoundAllocatesNoVector(t *testing.T) {
	net := hetNet(100000, 3)
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			p := f.new(epidemic.Config{RoundsPerEpoch: 50, Workers: 2}, xrand.New(4))
			if err := p.StartEpoch(net); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 2; r++ {
				p.RunRound(net)
			}
			const rounds = 4
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for r := 0; r < rounds; r++ {
				p.RunRound(net)
			}
			runtime.ReadMemStats(&after)
			if perRound := (after.TotalAlloc - before.TotalAlloc) / rounds; perRound > 64<<10 {
				t.Fatalf("warm sharded round allocates %d bytes", perRound)
			}
		})
	}
}

// TestWarmRoundAllocatesNothing: a family binds its round's callbacks
// once, when the protocol is made, so a warm round at one worker makes
// nothing — on the figure suite's two sizes, one of two shards and one
// of sixteen that the engine hints. Thirty rounds first carry the epoch
// over the overlay; then every deferral bucket gets room for a whole
// segment, so no measured round can overfill one by chance.
func TestWarmRoundAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, n := range []int{8300, 83000} {
		net := hetNet(n, 3)
		for _, f := range families {
			t.Run(fmt.Sprintf("%s/%d", f.name, n), func(t *testing.T) {
				p := f.new(epidemic.Config{RoundsPerEpoch: 50, Workers: 1}, xrand.New(4))
				if err := p.StartEpoch(net); err != nil {
					t.Fatal(err)
				}
				rounds := func(k int) {
					for range k {
						if err := p.RunRound(net); err != nil {
							t.Fatal(err)
						}
					}
				}
				rounds(30)
				p.reserve(n/parallel.Shards(0, n) + 1)
				if allocs := testing.AllocsPerRun(1, func() { rounds(3) }); allocs != 0 {
					t.Fatalf("three warm rounds on %d nodes (%d shards) allocates %.0f times", n, parallel.Shards(0, n), allocs)
				}
			})
		}
	}
}

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation allocates.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// passThrough is a fault policy that changes nothing: no extra
// messages, no drops, no lies, no NAT. It counts the sends it prices
// and how many of them came batched.
type passThrough struct{ sends, batched int }

func (p *passThrough) OnSend(_ metrics.Kind, count uint64) uint64 {
	p.sends++
	if count != 1 {
		p.batched++
	}
	return 0
}
func (*passThrough) DropProb() float64                { return 0 }
func (*passThrough) ReportScale(graph.NodeID) float64 { return 1 }
func (*passThrough) Unreachable(graph.NodeID) bool    { return false }

// countingTransport counts deliveries by kind and how many of them
// carried more than one message.
type countingTransport struct {
	calls   [metrics.NumKinds]int
	batched int
}

func (c *countingTransport) Deliver(_ graph.NodeID, kind metrics.Kind, count uint64) error {
	c.calls[kind]++
	if count != 1 {
		c.batched++
	}
	return nil
}

// TestEngineFlushPerRoundMatchesPerKey runs each family on a single-
// shard overlay with nothing installed (meters flushed once per round),
// under a pass-through fault policy and under a counting transport
// (flushed after every key). Counter totals by kind and the protocol
// state must be bit-equal across the three, and both listeners must
// still see every message on its own.
func TestEngineFlushPerRoundMatchesPerKey(t *testing.T) {
	const n, rounds = 3000, 12
	if s := parallel.Shards(0, n); s != 1 {
		t.Fatalf("%d nodes auto-size to %d shards; the test needs the single-shard path", n, s)
	}
	type outcome struct {
		counter metrics.Counter
		state   snapshot
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			run := func(setup func(*overlay.Network)) outcome {
				net := hetNet(n, 5)
				setup(net)
				p := f.new(epidemic.Config{RoundsPerEpoch: rounds}, xrand.New(6))
				if err := p.StartEpoch(net); err != nil {
					t.Fatal(err)
				}
				for r := 0; r < rounds; r++ {
					p.RunRound(net)
				}
				return outcome{*net.Counter(), p.snap()}
			}
			bare := run(func(*overlay.Network) {})
			pol := &passThrough{}
			tr := &countingTransport{}
			for name, o := range map[string]outcome{
				"fault policy": run(func(net *overlay.Network) { net.SetFaultPolicy(pol) }),
				"transport":    run(func(net *overlay.Network) { net.SetTransport(tr) }),
			} {
				if o.counter != bare.counter {
					t.Fatalf("%s: counter %v, bare overlay %v", name, &o.counter, &bare.counter)
				}
				if id := firstDiff(o.state, bare.state); id >= 0 {
					t.Fatalf("%s: node %d differs from the bare overlay", name, id)
				}
			}
			// Every node has a neighbour, so every key sends one message
			// of each kind (nothing is dropped, every push is answered).
			const perKind = n * rounds
			for _, kind := range f.kinds {
				if got := bare.counter.Count(kind); got != perKind {
					t.Fatalf("bare overlay metered %d %v messages, want %d", got, kind, perKind)
				}
				if tr.calls[kind] != perKind {
					t.Fatalf("transport saw %d %v deliveries, want %d", tr.calls[kind], kind, perKind)
				}
			}
			if total := uint64(len(f.kinds) * perKind); bare.counter.Total() != total {
				t.Fatalf("bare overlay metered %d messages, want %d", bare.counter.Total(), total)
			}
			if pol.sends != len(f.kinds)*perKind || pol.batched != 0 {
				t.Fatalf("fault policy priced %d sends (%d batched), want %d one at a time", pol.sends, pol.batched, len(f.kinds)*perKind)
			}
			if tr.batched != 0 {
				t.Fatalf("transport saw %d batched deliveries, want every message on its own", tr.batched)
			}
		})
	}
}

// TestShardedRoundWorkerCountInvariance is the engine's invariant on
// both families: at a fixed shard count every node's membership, every
// member's state and the message total are byte-identical at workers 1,
// 2 and 8 — on a bare overlay, under a real fault injector (drop fates,
// liars and NAT in the parallel phase, OnSend pricing in the
// shard-order merge) and under a transport. Run under -race in CI this
// also proves the parallel phase writes no state from two goroutines.
func TestShardedRoundWorkerCountInvariance(t *testing.T) {
	const n, rounds = 3000, 12
	spec := fault.Spec{Drop: 0.05, LieFrac: 0.1, LieScale: 2, NATFrac: 0.2}
	// faulted: the setup changes the epoch (so the injector is really
	// consulted); a transport must leave it as on the bare overlay.
	setups := []struct {
		name    string
		setup   func(*overlay.Network)
		faulted bool
	}{
		{"bare", func(*overlay.Network) {}, false},
		// A fresh injector per run: its OnSend draws are part of the output.
		{"faults", func(net *overlay.Network) { net.SetFaultPolicy(fault.NewInjector(spec, xrand.New(79))) }, true},
		{"transport", func(net *overlay.Network) { net.SetTransport(&countingTransport{}) }, false},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			for _, shards := range []int{2, 4, 7} {
				cfg := epidemic.Config{RoundsPerEpoch: rounds, Shards: shards, Workers: 1}
				bare, _ := epoch(t, f, n, cfg, 77, rounds)
				for _, s := range setups {
					cfg.Workers = 1
					ref, refMsgs := epochOn(t, f, n, cfg, 77, rounds, s.setup)
					if (firstDiff(ref, bare) >= 0) != s.faulted {
						t.Fatalf("%s, shards=%d: differs from the bare overlay: %v, want %v", s.name, shards, !s.faulted, s.faulted)
					}
					for _, workers := range []int{2, 8} {
						cfg.Workers = workers
						got, gotMsgs := epochOn(t, f, n, cfg, 77, rounds, s.setup)
						if gotMsgs != refMsgs {
							t.Fatalf("%s, shards=%d: messages differ at workers=%d: %d vs %d", s.name, shards, workers, gotMsgs, refMsgs)
						}
						if id := firstDiff(ref, got); id >= 0 {
							t.Fatalf("%s, shards=%d: state of node %d differs at workers=%d", s.name, shards, id, workers)
						}
					}
				}
			}
		})
	}
}

// TestShardCountIsPartOfTheAlgorithm guards against the opposite
// failure: a sweep that ignored its shard streams entirely would also
// pass the invariance test.
func TestShardCountIsPartOfTheAlgorithm(t *testing.T) {
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			a, _ := epoch(t, f, 3000, epidemic.Config{RoundsPerEpoch: 10, Shards: 1, Workers: 1}, 78, 10)
			b, _ := epoch(t, f, 3000, epidemic.Config{RoundsPerEpoch: 10, Shards: 4, Workers: 1}, 78, 10)
			if firstDiff(a, b) < 0 {
				t.Fatal("1-shard and 4-shard sweeps produced identical state")
			}
		})
	}
}
