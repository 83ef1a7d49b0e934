package parallel

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"p2psize/internal/prefetch"
	"p2psize/internal/xrand"
)

// toyPair is the deferred payload of the test family below.
type toyPair struct{ u, v int32 }

// toyFamily is a minimal engine-driven protocol for the engine tests:
// n values, each visit draws a uniform partner and both sides average.
// It exercises every engine feature the real families use — meters,
// ownership, deferral, resolution — with arithmetic simple enough that
// divergence is unambiguous.
type toyFamily struct {
	vals      []float64
	msgs      uint64
	engine    RoundEngine[toyPair]
	mergeEach bool // the sweep's MergeEach

	base  []int32                              // sweep keys in base order; nil is the identity
	trace func(sh *Shard[toyPair], u, v int32) // when set, sees every visit's key and draw

	// When either is set, the sweep hints what a visit and a resolution
	// read — the values of the endpoints — and reports each group of
	// keys to hint (with the hinting shard) and of payloads to
	// hintDeferred.
	hint         func(sh int, keys []int32)
	hintDeferred func(ds []toyPair)
}

func newToy(n int) *toyFamily {
	f := &toyFamily{vals: make([]float64, n)}
	for i := range f.vals {
		f.vals[i] = float64(i)
	}
	return f
}

func (f *toyFamily) apply(u, v int32) {
	m := (f.vals[u] + f.vals[v]) / 2
	f.vals[u], f.vals[v] = m, m
}

func (f *toyFamily) sweep(visited *[]int32) *Sweep[toyPair] {
	n := len(f.vals)
	sw := &Sweep[toyPair]{
		N:       n,
		NumKeys: n,
		Keys: func(dst []int32) {
			if copy(dst, f.base) == 0 {
				for i := range dst {
					dst[i] = int32(i)
				}
			}
		},
		Visit: func(sh *Shard[toyPair], elem int32, rng *xrand.Rand) error {
			if visited != nil {
				*visited = append(*visited, elem)
			}
			v := int32(rng.Intn(n))
			if f.trace != nil {
				f.trace(sh, elem, v)
			}
			sh.Meters[0]++
			if t := sh.Owner(v); t == sh.Index {
				f.apply(elem, v)
			} else {
				sh.Defer(t, toyPair{u: elem, v: v})
			}
			return nil
		},
		Merge:     func(sh *Shard[toyPair]) { f.msgs += sh.Meters[0] },
		MergeEach: f.mergeEach,
		Resolve: func(_ int, d toyPair, _ *xrand.Rand) error {
			f.apply(d.u, d.v)
			return nil
		},
	}
	if f.hint != nil || f.hintDeferred != nil {
		sw.Hint = func(b *prefetch.Batch, keys []int32, ds []toyPair) {
			if len(keys) > 0 && f.hint != nil {
				f.hint(shardOf(b, f.engine.hints), keys)
			}
			if len(ds) > 0 && f.hintDeferred != nil {
				f.hintDeferred(ds)
			}
			for _, k := range keys {
				b.Add(prefetch.Addr(f.vals, int(k)))
			}
			for _, d := range ds {
				b.Add(prefetch.Addr(f.vals, int(d.u)))
				b.Add(prefetch.Addr(f.vals, int(d.v)))
			}
		}
	}
	return sw
}

// shardOf returns the index of the shard whose hint batch b is.
func shardOf(b *prefetch.Batch, hints []prefetch.Batch) int {
	for s := range hints {
		if b == &hints[s] {
			return s
		}
	}
	return -1
}

func runToy(t *testing.T, n, rounds int, cfg EngineConfig, seed uint64) ([]float64, uint64) {
	t.Helper()
	f := newToy(n)
	rng := xrand.New(seed)
	sw := f.sweep(nil)
	for r := 0; r < rounds; r++ {
		if err := f.engine.Round(rng, cfg, sw); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	return f.vals, f.msgs
}

// TestEngineDeterministicAcrossWorkers is the engine-level determinism
// suite: for shard counts 1/4/7, the output at workers 2 and 8 must be
// byte-identical to workers 1. It replaces the three per-family copies
// of this invariant as the first line of defense (the families keep
// their own end-to-end versions).
func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	const n, rounds, seed = 1000, 3, 42
	for _, shards := range []int{1, 4, 7} {
		base, baseMsgs := runToy(t, n, rounds, EngineConfig{Shards: shards, Workers: 1}, seed)
		for _, workers := range []int{2, 8} {
			got, gotMsgs := runToy(t, n, rounds, EngineConfig{Shards: shards, Workers: workers}, seed)
			if gotMsgs != baseMsgs {
				t.Fatalf("shards=%d workers=%d: msgs %d != %d", shards, workers, gotMsgs, baseMsgs)
			}
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("shards=%d workers=%d: vals diverge at %d", shards, workers, i)
				}
			}
		}
	}
}

// TestEngineGlobalShuffleIsLegacyDrawOrder pins the sweep order bit
// for bit: the sweep visits elements in exactly the order a manual
// Fisher–Yates shuffle on the protocol rng produces, and the protocol
// rng advances by exactly that shuffle plus one round-seed draw — the
// contract every frozen experiment checksum depends on.
func TestEngineGlobalShuffleIsLegacyDrawOrder(t *testing.T) {
	const n, seed = 257, 99
	f := newToy(n)
	var visited []int32
	rng := xrand.New(seed)
	if err := f.engine.Round(rng, EngineConfig{Shards: 1, Workers: 1}, f.sweep(&visited)); err != nil {
		t.Fatal(err)
	}
	legacy := xrand.New(seed)
	want := make([]int32, n)
	for i := range want {
		want[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- { // the serial Fisher–Yates, spelled out
		j := legacy.Intn(i + 1)
		want[i], want[j] = want[j], want[i]
	}
	_ = legacy.Uint64() // the round seed
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visit order diverges from the legacy shuffle at %d: got %d want %d", i, visited[i], want[i])
		}
	}
	if rng.Uint64() != legacy.Uint64() {
		t.Fatal("protocol rng advanced differently from the legacy shuffle+seed sequence")
	}
}

// TestEnginePanicFailsRoundLoudly is the satellite bugfix test: a
// panicking shard action must crash the round with a WorkerPanic
// carrying the original value — never be swallowed by the worker pool —
// at every worker count.
func TestEnginePanicFailsRoundLoudly(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatalf("workers=%d: panicking Visit did not fail the round", workers)
				}
				wp, ok := v.(WorkerPanic)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want WorkerPanic", workers, v)
				}
				if wp.Value != "toy boom" {
					t.Fatalf("workers=%d: panic value %v, want toy boom", workers, wp.Value)
				}
				if !strings.Contains(wp.String(), "toy boom") {
					t.Fatalf("workers=%d: WorkerPanic.String() lost the value: %q", workers, wp.String())
				}
			}()
			f := newToy(100)
			sw := f.sweep(nil)
			inner := sw.Visit
			sw.Visit = func(sh *Shard[toyPair], elem int32, rng *xrand.Rand) error {
				if elem == 57 {
					panic("toy boom")
				}
				return inner(sh, elem, rng)
			}
			_ = f.engine.Round(xrand.New(1), EngineConfig{Shards: 4, Workers: workers}, sw)
			t.Fatalf("workers=%d: round returned normally", workers)
		}()
	}
}

// TestEngineErrorAborts: a Visit or Resolve error aborts the round and
// is returned at every worker count.
func TestEngineErrorAborts(t *testing.T) {
	boom := errors.New("visit failed")
	for _, workers := range []int{1, 4} {
		f := newToy(100)
		sw := f.sweep(nil)
		inner := sw.Visit
		sw.Visit = func(sh *Shard[toyPair], elem int32, rng *xrand.Rand) error {
			if elem == 31 {
				return boom
			}
			return inner(sh, elem, rng)
		}
		if err := f.engine.Round(xrand.New(1), EngineConfig{Shards: 4, Workers: workers}, sw); !errors.Is(err, boom) {
			t.Fatalf("workers=%d: Visit error not propagated: %v", workers, err)
		}
		f = newToy(100)
		sw = f.sweep(nil)
		sw.Resolve = func(int, toyPair, *xrand.Rand) error { return boom }
		if err := f.engine.Round(xrand.New(1), EngineConfig{Shards: 4, Workers: workers}, sw); !errors.Is(err, boom) {
			t.Fatalf("workers=%d: Resolve error not propagated: %v", workers, err)
		}
	}
}

// TestEngineWarmBuffersStable is the footprint regression test: once an
// engine has run a round at a given size, repeat rounds must reuse every
// scratch buffer — sweep order, ownership table, shard states, deferral
// buckets, tournament schedule — without reallocating.
func TestEngineWarmBuffersStable(t *testing.T) {
	const n, shards = 20000, 4
	f := newToy(n)
	rng := xrand.New(3)
	cfg := EngineConfig{Shards: shards, Workers: 1}
	sw := f.sweep(nil)
	// Two warmup rounds reach the high-water marks.
	for r := 0; r < 2; r++ {
		if err := f.engine.Round(rng, cfg, sw); err != nil {
			t.Fatal(err)
		}
	}
	e := &f.engine
	order0, owner0, shards0 := &e.order[0], &e.ownerOf[0], &e.shards[0]
	defCaps := make([][]int, shards)
	for s := range e.shards {
		for ti := range e.shards[s].def {
			defCaps[s] = append(defCaps[s], cap(e.shards[s].def[ti]))
		}
	}
	sched0 := &e.schedule[0]
	for r := 0; r < 5; r++ {
		if err := f.engine.Round(rng, cfg, sw); err != nil {
			t.Fatal(err)
		}
	}
	if &e.order[0] != order0 || &e.ownerOf[0] != owner0 || &e.shards[0] != shards0 {
		t.Fatal("warm engine reallocated a core scratch buffer")
	}
	if &e.schedule[0] != sched0 {
		t.Fatal("warm engine rebuilt the tournament schedule at a fixed shard count")
	}
	for s := range e.shards {
		for ti := range e.shards[s].def {
			if cap(e.shards[s].def[ti]) < defCaps[s][ti] {
				t.Fatalf("shard %d deferral bucket %d shrank below its high-water capacity", s, ti)
			}
		}
	}
}

// TestEngineWarmRoundAllocatesNothing: a warm round at one worker makes
// nothing, on one shard and on several — the ownership prepass, the
// visits and every tournament round run as the engine's own method, not
// as closures made per round — and with hints on, at a size the engine
// hints.
func TestEngineWarmRoundAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, n := range []int{20000, 2 * hintMinKeys} {
		for _, shards := range []int{1, 2, 16} {
			f := newToy(n)
			f.hintDeferred = func([]toyPair) {}
			rng := xrand.New(3)
			cfg := EngineConfig{Shards: shards, Workers: 1}
			sw := f.sweep(nil)
			round := func() {
				if err := f.engine.Round(rng, cfg, sw); err != nil {
					t.Fatal(err)
				}
			}
			round()
			// A bucket grows whenever a round defers more to it than
			// it ever held (TestEngineDeferralBucketsFitFirstRound
			// prices that); here each holds a whole segment already.
			f.engine.ReserveDeferrals(n/shards + 1)
			round()
			if allocs := testing.AllocsPerRun(5, round); allocs != 0 {
				t.Errorf("n=%d, %d shards: a warm round allocates %.0f times", n, shards, allocs)
			}
		}
	}
}

// TestEngineGrowingSweepAmortizes: on an overlay that gains a key every
// round, the sweep order and the ownership table are re-made only when
// their spare room runs out — a handful of times in 300 rounds, where
// buffers sized exactly to each round would be re-made in every one.
func TestEngineGrowingSweepAmortizes(t *testing.T) {
	const start, rounds = 1000, 300
	f := newToy(start)
	rng := xrand.New(13)
	cfg := EngineConfig{Shards: 4, Workers: 1}
	var order *int32
	var owner *uint8
	orderRemakes, ownerRemakes := 0, 0
	for r := 0; r < rounds; r++ {
		f.vals = append(f.vals, float64(len(f.vals)))
		if err := f.engine.Round(rng, cfg, f.sweep(nil)); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		e := &f.engine
		if &e.order[0] != order {
			order = &e.order[0]
			orderRemakes++
		}
		if &e.ownerOf[0] != owner {
			owner = &e.ownerOf[0]
			ownerRemakes++
		}
	}
	if orderRemakes > rounds/10 || ownerRemakes > rounds/10 {
		t.Fatalf("over %d growing rounds the sweep order was made %d times and the ownership table %d times",
			rounds, orderRemakes, ownerRemakes)
	}
}

// TestEngineDeferralBucketsFitFirstRound: a fresh engine's first sharded
// round sizes each foreign deferral bucket from its segment, so the
// buckets hold their payloads with little spare room. Grown through
// append's regrowth chain they would end up to twice the payload.
func TestEngineDeferralBucketsFitFirstRound(t *testing.T) {
	const n, shards = 100_000, 16
	f := newToy(n)
	if err := f.engine.Round(xrand.New(19), EngineConfig{Shards: shards, Workers: 1}, f.sweep(nil)); err != nil {
		t.Fatal(err)
	}
	held, room := 0, 0
	for s := range f.engine.shards {
		for b, bucket := range f.engine.shards[s].def {
			if b != s {
				held += len(bucket)
				room += cap(bucket)
			}
		}
	}
	if held == 0 || float64(room) > 1.25*float64(held) {
		t.Fatalf("deferral buckets hold %d payloads in room for %d", held, room)
	}
}

// TestEngineDegenerateGeometry pins the edge cases all three families
// now share: n=0 is a no-op that leaves the protocol rng untouched,
// n=1 runs one visit, and Shards > n clamps to n shards — each
// deterministic across worker counts.
func TestEngineDegenerateGeometry(t *testing.T) {
	// n = 0: nothing runs, no draw is consumed.
	f := newToy(0)
	rng := xrand.New(11)
	if err := f.engine.Round(rng, EngineConfig{Shards: 4}, f.sweep(nil)); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	if got, want := rng.Uint64(), xrand.New(11).Uint64(); got != want {
		t.Fatal("n=0: protocol rng was advanced")
	}
	// n = 1: exactly one visit.
	var visited []int32
	f = newToy(1)
	if err := f.engine.Round(xrand.New(11), EngineConfig{Shards: 4}, f.sweep(&visited)); err != nil {
		t.Fatalf("n=1: %v", err)
	}
	if len(visited) != 1 || visited[0] != 0 {
		t.Fatalf("n=1: visited %v, want [0]", visited)
	}
	// n < Shards: clamps, still visits everyone exactly once, and stays
	// worker-invariant.
	const n = 3
	base, baseMsgs := runToy(t, n, 2, EngineConfig{Shards: 7, Workers: 1}, 11)
	got, gotMsgs := runToy(t, n, 2, EngineConfig{Shards: 7, Workers: 8}, 11)
	if gotMsgs != baseMsgs || fmt.Sprint(got) != fmt.Sprint(base) {
		t.Fatal("n<Shards: workers changed output")
	}
	if baseMsgs != 2*n {
		t.Fatalf("n<Shards: %d visits metered, want %d", baseMsgs, 2*n)
	}
}

// TestEngineSingleShardDrainsStaleDeferrals guards the bucket-reuse
// trap: after a multi-shard round leaves deferral buckets at their
// high-water sizes, a later single-shard round on the same engine must
// read DeferredTotal() == 0, not the previous round's leftovers.
func TestEngineSingleShardDrainsStaleDeferrals(t *testing.T) {
	f := newToy(1000)
	rng := xrand.New(17)
	sw := f.sweep(nil)
	if err := f.engine.Round(rng, EngineConfig{Shards: 4, Workers: 1}, sw); err != nil {
		t.Fatal(err)
	}
	maxDeferred := 0
	inner := sw.Merge
	sw.Merge = func(sh *Shard[toyPair]) {
		if d := sh.DeferredTotal(); d > maxDeferred {
			maxDeferred = d
		}
		inner(sh)
	}
	if err := f.engine.Round(rng, EngineConfig{Shards: 1, Workers: 1}, sw); err != nil {
		t.Fatal(err)
	}
	if maxDeferred != 0 {
		t.Fatalf("single-shard round saw %d stale deferred payloads", maxDeferred)
	}
}

// TestEnginePairStreams checks the tournament stream plumbing: every
// meeting {a, b}'s Resolve calls run on host a and share one non-nil
// stream, seeded as NewStream(roundSeed, Shards + a·Shards + b).
func TestEnginePairStreams(t *testing.T) {
	const n, shards, seed = 1000, 4, 23
	f := newToy(n)
	sw := f.sweep(nil)
	// The round seed: the protocol rng's draw after the sweep shuffle.
	ref := xrand.New(seed)
	xrand.Shuffle(ref, make([]int32, n))
	roundSeed := ref.Uint64()
	// Meetings of one tournament round resolve concurrently.
	var mu sync.Mutex
	streams := map[[2]int]*xrand.Rand{}
	base := sw.Resolve
	sw.Resolve = func(host int, d toyPair, rng *xrand.Rand) error {
		a, b := int(f.engine.ownerOf[d.u]), int(f.engine.ownerOf[d.v])
		a, b = min(a, b), max(a, b)
		mu.Lock()
		defer mu.Unlock()
		if host != a {
			t.Errorf("meeting {%d, %d}: Resolve ran on host %d", a, b, host)
		}
		if rng == nil || *rng != *xrand.NewStream(roundSeed, uint64(shards+a*shards+b)) {
			t.Errorf("meeting {%d, %d}: Resolve got %p, not the meeting's stream", a, b, rng)
		} else if first, ok := streams[[2]int{a, b}]; ok && first != rng {
			t.Errorf("meeting {%d, %d}: Resolve calls got two streams", a, b)
		}
		streams[[2]int{a, b}] = rng
		return base(host, d, rng)
	}
	if err := f.engine.Round(xrand.New(seed), EngineConfig{Shards: shards, Workers: 2}, sw); err != nil {
		t.Fatal(err)
	}
	if len(streams) != shards*(shards-1)/2 {
		t.Fatalf("%d meetings resolved payloads, want %d", len(streams), shards*(shards-1)/2)
	}
}

func TestEngineConfigValidate(t *testing.T) {
	if err := (EngineConfig{Shards: MaxConfigShards}).Validate(); err != nil {
		t.Fatalf("max shard count rejected: %v", err)
	}
	if err := (EngineConfig{Shards: MaxConfigShards + 1}).Validate(); err == nil {
		t.Fatal("oversized shard count accepted")
	}
	if err := (EngineConfig{Shards: -1}).Validate(); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

// TestMapPanicLowestIndex pins Map's panic contract directly: when
// several indices panic, the one re-raised is the lowest — the same
// crash a sequential loop would have hit first — at every worker count.
func TestMapPanicLowestIndex(t *testing.T) {
	for _, workers := range []int{1, 8} {
		func() {
			defer func() {
				wp, ok := recover().(WorkerPanic)
				if !ok || wp.Index != 2 {
					t.Fatalf("workers=%d: recovered %+v, want WorkerPanic at index 2", workers, wp)
				}
			}()
			_, _ = Map(workers, 40, func(i int) (int, error) {
				if i == 2 || i == 5 {
					panic(fmt.Sprintf("boom %d", i))
				}
				return i, nil
			})
			t.Fatalf("workers=%d: Map returned normally", workers)
		}()
	}
}

// roundLog is everything observable about one round of the toy family.
type roundLog struct {
	visits [][]int32     // per shard: keys in visit order
	draws  [][]int32     // per shard: the partner each visit drew
	def    [][][]toyPair // [from][to]: deferred payloads in deferral order
	meters []uint64      // per shard: Meters[0] summed over its Merge calls
	merges int           // Merge calls
}

func newRoundLog(shards int) *roundLog {
	l := &roundLog{
		visits: make([][]int32, shards),
		draws:  make([][]int32, shards),
		def:    make([][][]toyPair, shards),
		meters: make([]uint64, shards),
	}
	for s := range l.def {
		l.def[s] = make([][]toyPair, shards)
	}
	return l
}

// naiveRound is the reference the engine is held to: the round as first
// written, with nothing resolved ahead and nothing staged. The sweep
// order is a permutation of positions, every visit maps its position to
// a key through base, and keys are visited strictly one at a time.
// Shards run one after the other, which phase 1's ownership rule makes
// equivalent to any interleaving. Meters are merged once per shard, or
// after every visit on a single shard with mergeEach.
func naiveRound(rng *xrand.Rand, cfg EngineConfig, mergeEach bool, base []int32, vals []float64, msgs *uint64) *roundLog {
	n := len(base)
	shards := Shards(cfg.Shards, n)
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = int32(i)
	}
	xrand.Shuffle(rng, pos)
	roundSeed := rng.Uint64()
	owner := make([]int, n)
	for s := 0; s < shards; s++ {
		for i := s * n / shards; i < (s+1)*n/shards; i++ {
			owner[base[pos[i]]] = s
		}
	}
	apply := func(u, v int32) {
		m := (vals[u] + vals[v]) / 2
		vals[u], vals[v] = m, m
	}
	l := newRoundLog(shards)
	for s := 0; s < shards; s++ {
		srng := xrand.NewStream(roundSeed, uint64(s))
		for _, at := range pos[s*n/shards : (s+1)*n/shards] {
			u, v := base[at], int32(srng.Intn(n))
			l.visits[s] = append(l.visits[s], u)
			l.draws[s] = append(l.draws[s], v)
			l.meters[s]++
			if shards == 1 && mergeEach {
				l.merges++ // one message priced at a time
			}
			if owner[v] == s {
				apply(u, v)
			} else {
				l.def[s][owner[v]] = append(l.def[s][owner[v]], toyPair{u: u, v: v})
			}
		}
	}
	if shards > 1 || !mergeEach {
		l.merges = shards
	}
	for _, m := range l.meters {
		*msgs += m
	}
	for _, meetings := range RoundRobinPairs(shards) {
		for _, m := range meetings {
			for _, d := range l.def[m[0]][m[1]] {
				apply(d.u, d.v)
			}
			for _, d := range l.def[m[1]][m[0]] {
				apply(d.u, d.v)
			}
		}
	}
	return l
}

// engineRound runs one RoundEngine round of f and logs what naiveRound
// logs. Each shard appends to its own slices only, so the log itself is
// race-free at any worker count.
func engineRound(t *testing.T, rng *xrand.Rand, cfg EngineConfig, f *toyFamily) *roundLog {
	t.Helper()
	shards := Shards(cfg.Shards, len(f.vals))
	l := newRoundLog(shards)
	f.trace = func(sh *Shard[toyPair], u, v int32) {
		l.visits[sh.Index] = append(l.visits[sh.Index], u)
		l.draws[sh.Index] = append(l.draws[sh.Index], v)
	}
	sw := f.sweep(nil)
	merge := sw.Merge
	sw.Merge = func(sh *Shard[toyPair]) {
		l.meters[sh.Index] += sh.Meters[0]
		l.merges++
		merge(sh)
	}
	if err := f.engine.Round(rng, cfg, sw); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < shards; a++ {
		for b, bucket := range f.engine.shards[a].def {
			if b < shards {
				l.def[a][b] = slices.Clone(bucket)
			}
		}
	}
	return l
}

// permutedBase returns a fixed non-identity permutation of [0, n): the
// alive list after churn, where position i does not hold node i.
func permutedBase(n int) []int32 {
	base := make([]int32, n)
	for i := range base {
		base[i] = int32(i)
	}
	xrand.Shuffle(xrand.New(uint64(n)+12345), base)
	return base
}

// TestEngineMatchesNaiveReference holds the engine, element for element,
// to the naive sweep: per-shard visit order and draws, every deferral
// bucket, meters and Merge calls, the protocol rng's position and the
// final state, over two consecutive rounds. Sizes straddle a multiple
// of the hint group (63, 64, 65), span many groups with a ragged tail
// (4097), go below the configured shard count (1 and 3: the count
// clamps to N and the engine's remaining shard slots must stay idle),
// and reach hintedN, where keys and payloads are hinted. MaxConfigShards
// stamps the largest owner the one-byte ownership table holds (255).
// Every case runs with and without MergeEach.
func TestEngineMatchesNaiveReference(t *testing.T) {
	for _, n := range []int{1, 3, 63, 64, 65, 4097, hintedN} {
		base := permutedBase(n)
		for _, shards := range []int{1, 2, 5, 16, MaxConfigShards} {
			for _, mergeEach := range []bool{false, true} {
				tag := fmt.Sprintf("n=%d shards=%d mergeEach=%v", n, shards, mergeEach)
				cfg := EngineConfig{Shards: shards, Workers: 4}
				f := newToy(n)
				f.base = base
				f.hint = func(int, []int32) {}
				f.hintDeferred = func([]toyPair) {}
				f.mergeEach = mergeEach
				ref := newToy(n)
				rng, refRng := xrand.New(77), xrand.New(77)
				for round := 0; round < 2; round++ {
					got := engineRound(t, rng, cfg, f)
					want := naiveRound(refRng, cfg, mergeEach, base, ref.vals, &ref.msgs)
					if !slices.EqualFunc(got.visits, want.visits, slices.Equal[[]int32]) {
						t.Fatalf("%s round %d: visit order diverges from the reference", tag, round)
					}
					if !slices.EqualFunc(got.draws, want.draws, slices.Equal[[]int32]) {
						t.Fatalf("%s round %d: draws diverge from the reference", tag, round)
					}
					for a := range want.def {
						if !slices.EqualFunc(got.def[a], want.def[a], slices.Equal[[]toyPair]) {
							t.Fatalf("%s round %d: shard %d deferred differently from the reference", tag, round, a)
						}
					}
					if !slices.Equal(got.meters, want.meters) || got.merges != want.merges {
						t.Fatalf("%s round %d: meters %v in %d merges, reference %v in %d",
							tag, round, got.meters, got.merges, want.meters, want.merges)
					}
					if !slices.Equal(f.vals, ref.vals) || f.msgs != ref.msgs {
						t.Fatalf("%s round %d: final state diverges from the reference", tag, round)
					}
				}
				if rng.Uint64() != refRng.Uint64() {
					t.Fatalf("%s: protocol rng advanced differently from the reference", tag)
				}
			}
		}
	}
}

// hintedN is a toy sweep the engine hints, with a ragged last group.
const hintedN = max(hintMinKeys, 4096) + 2*hintGroup + 3

// TestEngineHintsEveryKeyOnceBeforeItsVisit pins the key-hint contract:
// every key of every segment is handed to Hint exactly once, by its own
// shard, in groups of at most hintGroup keys, before it is visited and
// at most hintDistance+hintGroup keys ahead of the visit; and a sweep
// below hintMinKeys is not hinted at all.
func TestEngineHintsEveryKeyOnceBeforeItsVisit(t *testing.T) {
	for _, n := range []int{hintedN, hintMinKeys - 1} {
		if n < 1 {
			continue
		}
		for _, shards := range []int{1, 5, 16} {
			tag := fmt.Sprintf("n=%d shards=%d", n, shards)
			f := newToy(n)
			f.base = permutedBase(n)
			hinted := make([]int, n)       // hints per key
			hinter := make([]int, n)       // shard that hinted the key
			pending := make([]int, shards) // hinted, not yet visited, per shard
			var seen, visited int
			f.hint = func(sh int, keys []int32) {
				if len(keys) == 0 || len(keys) > hintGroup {
					t.Errorf("%s: hint group of %d keys", tag, len(keys))
				}
				for _, k := range keys {
					hinted[k]++
					hinter[k] = sh
					seen++
				}
				pending[sh] += len(keys)
			}
			f.trace = func(sh *Shard[toyPair], u, _ int32) {
				visited++
				if n < hintMinKeys {
					return
				}
				if hinted[u] != 1 {
					t.Errorf("%s: key %d visited after %d hints", tag, u, hinted[u])
				}
				if hinter[u] != sh.Index {
					t.Errorf("%s: key %d hinted by shard %d, visited by %d", tag, u, hinter[u], sh.Index)
				}
				if pending[sh.Index] > hintDistance+hintGroup {
					t.Errorf("%s: %d keys hinted ahead of a visit", tag, pending[sh.Index])
				}
				pending[sh.Index]--
			}
			// Workers: 1 runs the shards in order on this goroutine.
			cfg := EngineConfig{Shards: shards, Workers: 1}
			if err := f.engine.Round(xrand.New(5), cfg, f.sweep(nil)); err != nil {
				t.Fatal(err)
			}
			if n < hintMinKeys {
				if seen != 0 {
					t.Fatalf("%s: %d keys hinted below hintMinKeys", tag, seen)
				}
				continue
			}
			if visited != n || seen != n {
				t.Fatalf("%s: %d keys hinted, %d visited", tag, seen, visited)
			}
		}
	}
}

// TestEngineHintsEveryPayloadBeforeItsResolve pins the payload-hint
// contract: every deferred payload is handed to Hint exactly once, in
// groups of at most hintGroup, before Resolve applies it.
func TestEngineHintsEveryPayloadBeforeItsResolve(t *testing.T) {
	for _, shards := range []int{2, 5, 16} {
		for _, workers := range []int{1, 8} {
			tag := fmt.Sprintf("shards=%d workers=%d", shards, workers)
			f := newToy(hintedN)
			var mu sync.Mutex
			hinted := map[toyPair]int{}
			f.hintDeferred = func(ds []toyPair) {
				if len(ds) == 0 || len(ds) > hintGroup {
					t.Errorf("%s: hint group of %d payloads", tag, len(ds))
				}
				mu.Lock()
				defer mu.Unlock()
				for _, d := range ds {
					hinted[d]++
				}
			}
			sw := f.sweep(nil)
			resolved := 0
			resolve := sw.Resolve
			sw.Resolve = func(host int, d toyPair, rng *xrand.Rand) error {
				mu.Lock()
				if hinted[d] != 1 {
					t.Errorf("%s: payload %v resolved after %d hints", tag, d, hinted[d])
				}
				resolved++
				mu.Unlock()
				return resolve(host, d, rng)
			}
			if err := f.engine.Round(xrand.New(9), EngineConfig{Shards: shards, Workers: workers}, sw); err != nil {
				t.Fatal(err)
			}
			// Every key is visited once, so a round's payloads are distinct.
			if resolved == 0 || len(hinted) != resolved {
				t.Fatalf("%s: %d payloads hinted, %d resolved", tag, len(hinted), resolved)
			}
		}
	}
}

// TestEngineGarbageHintsAreInert hints addresses no visit reads — nil,
// one past the end of the values, the top of the address space, and
// other shards' values while they are written — beside sixteen shards'
// visits and tournaments. Under -race this is the proof that a hint is
// no access; at any build it checks that the rounds end exactly where
// the same rounds without hints do.
func TestEngineGarbageHintsAreInert(t *testing.T) {
	const rounds = 3
	cfg := EngineConfig{Shards: 16, Workers: 8}
	var calls atomic.Int64
	run := func(hint bool) *toyFamily {
		f := newToy(hintedN)
		f.base = permutedBase(hintedN)
		sw := f.sweep(nil)
		if hint {
			garbage := func(b *prefetch.Batch, n int) {
				calls.Add(1)
				for i := 0; i < n; i++ {
					b.Add(0)
					b.Add(prefetch.Addr(f.vals, len(f.vals)))
					b.Add(^uintptr(0))
					b.Add(prefetch.Addr(f.vals, (i*7919)%len(f.vals)))
				}
			}
			sw.Hint = func(b *prefetch.Batch, keys []int32, ds []toyPair) { garbage(b, len(keys)+len(ds)) }
		}
		rng := xrand.New(31)
		for r := 0; r < rounds; r++ {
			if err := f.engine.Round(rng, cfg, sw); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	bare, hinted := run(false), run(true)
	if calls.Load() == 0 {
		t.Fatal("no hint callback ran")
	}
	if !slices.Equal(bare.vals, hinted.vals) || bare.msgs != hinted.msgs {
		t.Fatal("garbage hints changed the sweep's outcome")
	}
}
