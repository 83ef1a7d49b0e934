// The sharded-round engine: the one deterministic driver behind every
// gossip family's round sweep (aggregation push-pull, push-sum, CYCLON
// shuffles — and any future family).
//
// A round prices a full sweep over the live nodes. The engine cuts the
// sweep order into Shards contiguous segments, each drawing from its own
// per-round xrand stream, and runs them on a worker pool. A shard applies
// an action immediately when both endpoints belong to its own segment —
// then no state is read or written by two shards — and defers it
// otherwise; deferred payloads are applied in a fixed round-robin
// tournament of shard pairs (RoundRobinPairs), within which no two
// meetings share a shard. The schedule is a pure function of the shard
// count, so the result depends only on (seed, config, overlay), never on
// Workers or goroutine scheduling.
//
// The sweep order holds the round's keys themselves (node IDs), written
// once per round by Sweep.Keys, and a shard walks its segment in groups
// of hintGroup keys, hinting the cache lines of the keys hintDistance
// ahead (Sweep.Hint) before visiting a group; a tournament meeting does
// the same over its payloads. At a million nodes a visit is a chain of
// dependent cache misses; hints let the misses of upcoming keys overlap
// with the current visit without moving a single draw (README, "How a
// round touches memory").
//
// The shard count is part of the algorithm — changing it changes the
// draws — while Workers only shapes wall time. Both invariants, plus the
// race-freedom argument, live here once instead of once per family.
package parallel

import (
	"fmt"
	"math"
	"slices"

	"p2psize/internal/prefetch"
	"p2psize/internal/scratch"
	"p2psize/internal/xrand"
)

// EngineConfig is the sharded-round knob set every engine-driven family
// embeds in its own Config: the shard count (part of the output) and the
// worker cap (never part of the output).
type EngineConfig struct {
	// Shards splits the sweep into this many segments; 0 auto-sizes
	// (one shard per MinShardNodes items, at most MaxShards).
	Shards int
	// Workers caps the goroutines executing one round's shards: 0 means
	// runtime.NumCPU(), 1 forces sequential execution.
	Workers int
}

// Validate rejects out-of-range shard counts: the engine stamps
// ownership into one byte per key, so a larger count would overflow it.
// It is the one home of the bound; the families and both CLIs wrap its
// error with their own option name.
func (c EngineConfig) Validate() error {
	if c.Shards < 0 || c.Shards > MaxConfigShards {
		return fmt.Errorf("shards %d out of range [0, %d] (0 = auto-size)", c.Shards, MaxConfigShards)
	}
	return nil
}

// Shard is the per-shard face a Sweep's callbacks see: the shard's
// index, its protocol-defined meters, and the deferral buckets feeding
// the cross-shard tournament. D is the deferred-payload type.
type Shard[D any] struct {
	// Index is this shard's number in [0, Shards).
	Index int
	// Meters are two protocol-defined counters a Visit callback may
	// accumulate into (message counts, typically). The engine zeroes
	// them before a shard's sweep and hands them to Merge afterwards —
	// once per shard, or per item in the single-shard path under
	// Sweep.MergeEach, so per-message pricing holds where something
	// listens.
	Meters [2]uint64
	def    [][]D
	// ownerOf is the round's shared ownership table (nil when the round
	// runs on a single shard and every key is trivially owned).
	ownerOf []uint8
	// rng is the shard's sweep stream and pair the stream of the
	// tournament meetings it hosts as their lower-numbered side; both
	// are re-seeded in place for each round and meeting.
	rng, pair *xrand.Rand
}

// Owner returns the shard owning the given dense key this round.
func (sh *Shard[D]) Owner(key int32) int {
	if sh.ownerOf == nil {
		return sh.Index
	}
	return int(sh.ownerOf[key])
}

// Defer queues a payload for the tournament meeting {sh.Index, target}.
func (sh *Shard[D]) Defer(target int, d D) {
	sh.def[target] = append(sh.def[target], d)
}

// DeferredTotal returns how many payloads this shard has deferred so
// far this round (families that meter deferred work — CYCLON's shuffle
// replies — fold it into their Merge).
func (sh *Shard[D]) DeferredTotal() int {
	total := 0
	for t := range sh.def {
		total += len(sh.def[t])
	}
	return total
}

// resetBuckets empties the shard's deferral buckets for a round of the
// given shard count and makes room in each foreign bucket for its share
// of a segLen-key segment. A visit defers at most one payload, to a
// partner's shard, so a bucket expects m = segLen/shards payloads with a
// spread of about √m; room for m + 2√m lets a fresh bucket take the
// round in one allocation instead of append's chain of regrowths (about
// twice the final bytes). slices.Grow keeps the later growth geometric:
// room that creeps up by a few keys per round, as on a growing overlay,
// re-makes a bucket only when a step's headroom is used up.
func (sh *Shard[D]) resetBuckets(shards, segLen int) {
	for len(sh.def) < shards {
		sh.def = append(sh.def, nil)
	}
	m := segLen / shards
	room := m + 2*int(math.Sqrt(float64(m)))
	for t := range sh.def {
		sh.def[t] = sh.def[t][:0]
		if t != sh.Index && t < shards {
			sh.def[t] = slices.Grow(sh.def[t], room)
		}
	}
}

// Sweep describes one family's round to the engine: the sweep's keys and
// the protocol callbacks. All randomness inside the callbacks must come
// from the *xrand.Rand they are handed — never from shared state — for
// the engine's determinism guarantee to hold.
type Sweep[D any] struct {
	// N is the number of sweep items this round (live nodes, members).
	N int
	// NumKeys sizes the dense ownership table; Keys must write values
	// in [0, NumKeys).
	NumKeys int
	// Keys fills dst (length N) with the round's dense keys — node IDs,
	// typically, N distinct ones — in the base order the shuffle
	// permutes. A key's owner is the shard whose segment it lands in,
	// which decides immediate versus deferred application.
	Keys func(dst []int32)
	// Hint, when set, adds to b the addresses of the cache lines the
	// round is about to read: those Visit of keys reads, or — called
	// with nil keys — those Resolve of ds reads. The engine calls it a
	// few items ahead (hintDistance), once for every key of every
	// segment before the key's visit and once for every deferred
	// payload before its resolution, on sweeps of at least hintMinKeys
	// items. It only computes addresses — from its arguments and from
	// state frozen for the round, like the graph's page table — and
	// loads no protocol state, draws nothing and writes nothing but b;
	// a wrong address costs time, never a result.
	Hint func(b *prefetch.Batch, keys []int32, ds []D)
	// Visit processes one key on the owning shard's stream: draw, meter
	// into sh.Meters, then either apply immediately (when
	// sh.Owner(k) == sh.Index for every touched key k) or sh.Defer the
	// payload. A non-nil error aborts the round and is returned by
	// Round; a panic is re-raised on Round's caller.
	Visit func(sh *Shard[D], key int32, rng *xrand.Rand) error
	// Merge flushes a shard's meters into the protocol's counters. The
	// engine calls it serially in shard order after the parallel phase,
	// and once after the sweep in the single-shard path — or after every
	// item there when MergeEach is set.
	Merge func(sh *Shard[D])
	// MergeEach makes the single-shard path flush the meters after every
	// item, so whatever listens to single messages — a fault policy
	// pricing each send, a transport delivering it — sees one message at
	// a time (SendN(kind, 1) ≡ Send(kind)). Families set it from
	// overlay.Network.PerMessage; without a listener, one flush per
	// round meters the same totals by kind.
	MergeEach bool
	// Resolve applies one deferred payload during the tournament on the
	// meeting {a, b}'s host, shard a: no other meeting of its tournament
	// round touches a, so a family may keep per-shard scratch by host.
	// rng is the meeting's own deterministic stream (stream index
	// Shards + a·Shards + b), shared by both directions of the meeting;
	// families whose deferred work draws nothing ignore it.
	Resolve func(host int, d D, rng *xrand.Rand) error
}

// RoundEngine drives a family's sharded rounds. The zero value is ready
// to use; the engine owns the scratch buffers (sweep order, ownership
// table, shard states and streams, deferral buckets, tournament
// schedule) and keeps them at their high-water size. A buffer that must
// grow grows with spare room — a quarter for the sweep order and the
// ownership table (scratch.Fit), a segment's expected share and then
// geometric steps for the buckets (resetBuckets) — so an overlay that
// grows between rounds re-makes a buffer only once that room is used
// up, and a round on a warm engine of unchanged size allocates nothing
// at one worker: its phases run as the engine's own run method, not as
// closures, so at more workers only the pool's goroutines and their
// bookkeeping are made. An engine may move between owners by value
// between rounds: no round reads what an earlier one left in its
// buffers, and nothing keeps the engine's address once Round returns.
//
// An engine is not safe for concurrent rounds; each protocol instance
// owns one.
type RoundEngine[D any] struct {
	order   []int32          // scratch: the round's keys in sweep order
	ownerOf []uint8          // scratch: shard owning each key this round (one byte: MaxConfigShards)
	shards  []Shard[D]       // scratch: per-shard state
	hints   []prefetch.Batch // scratch: per-shard hint batches, made by the first hinted round
	hinting bool             // this round calls Sweep.Hint (set, and N ≥ hintMinKeys)

	schedN   int        // shard count the memoized schedule was built for
	schedule [][][2]int // memoized RoundRobinPairs(schedN)

	cur phase[D] // the running round's phase, read by run; zero between rounds
}

// phase is what one parallel phase of a round hands to each index of
// its forEach: which step runs, on which sweep, over how many shards.
type phase[D any] struct {
	step   step
	sw     *Sweep[D]
	shards int
	seed   uint64   // the round seed every shard and meeting stream derives from
	meets  [][2]int // stepMeet: the tournament round's meetings
}

// step names the parallel phases of a sharded round.
type step uint8

const (
	stepOwn   step = iota // stamp each shard's keys in the ownership table
	stepVisit             // sweep each shard's segment
	stepMeet              // resolve one tournament round's meetings
)

// Round executes one sharded round: deterministic partition of the
// sweep, ownership prepass, parallel in-shard sweep, ordered meter
// merge, and the cross-shard tournament. rng is the protocol rng: it
// Fisher–Yates-shuffles the full sweep order serially, then draws one
// round seed, so it advances identically at every shard count, and
// everything downstream derives from per-(seed, shard) streams, so the
// output is byte-identical at every cfg.Workers setting.
//
// The first callback error aborts the round and is returned; a callback
// panic is re-raised on the caller (see WorkerPanic). Both surface at
// every worker count, at the lowest failing shard.
func (e *RoundEngine[D]) Round(rng *xrand.Rand, cfg EngineConfig, sw *Sweep[D]) error {
	n := sw.N
	if n == 0 {
		return nil
	}
	e.order = scratch.Fit(e.order, n, 0)
	sw.Keys(e.order)
	shards := Shards(cfg.Shards, n)
	// The serial prefix: every per-shard draw below comes from streams
	// of the one roundSeed draw that follows, so the protocol rng
	// advances identically at every shard count.
	xrand.Shuffle(rng, e.order)
	roundSeed := rng.Uint64()

	for len(e.shards) < shards {
		e.shards = append(e.shards, Shard[D]{rng: xrand.New(0), pair: xrand.New(0)})
	}
	e.hinting = sw.Hint != nil && n >= hintMinKeys
	if e.hinting && len(e.hints) < shards {
		e.hints = make([]prefetch.Batch, shards)
	}

	if shards == 1 {
		sh := &e.shards[0]
		sh.Index = 0
		sh.ownerOf = nil
		// Drain buckets a previous multi-shard round may have left at
		// their high-water size, so DeferredTotal reads zero.
		for t := range sh.def {
			sh.def[t] = sh.def[t][:0]
		}
		sh.rng.SeedStream(roundSeed, 0)
		if err := sw.visit(sh, e.order, sh.rng, sw.MergeEach, e.batch(0)); err != nil {
			return err
		}
		if !sw.MergeEach && sw.Merge != nil {
			sw.Merge(sh)
		}
		return nil
	}

	e.ownerOf = scratch.Fit(e.ownerOf, sw.NumKeys, 0)
	e.cur = phase[D]{sw: sw, shards: shards, seed: roundSeed}
	defer func() { e.cur = phase[D]{} }()
	// Ownership prepass, parallel: each shard stamps the keys of its own
	// segment (distinct entries, so no write is shared).
	e.cur.step = stepOwn
	if err := forEach(cfg.Workers, shards, e); err != nil {
		return err
	}
	// Phase 1, parallel: each shard sweeps its segment on its own
	// stream. Visit touches only state owned by the shard (immediate
	// application requires every endpoint to be shard-owned), so no
	// state is read or written by two shards and Workers only shape
	// scheduling.
	e.cur.step = stepVisit
	if err := forEach(cfg.Workers, shards, e); err != nil {
		return err
	}
	// Meter merge in shard order (the totals are order-independent, the
	// fixed order keeps even intermediate states deterministic).
	if sw.Merge != nil {
		for s := 0; s < shards; s++ {
			sw.Merge(&e.shards[s])
		}
	}
	// Phase 2: the cross-shard tournament. Every meeting {a, b} only
	// touches state owned by a or b, and no tournament round repeats a
	// shard, so the meetings of one round run concurrently while the
	// application order stays fixed by the schedule.
	if e.schedN != shards {
		e.schedule = RoundRobinPairs(shards)
		e.schedN = shards
	}
	e.cur.step = stepMeet
	for _, round := range e.schedule {
		e.cur.meets = round
		if err := forEach(cfg.Workers, len(round), e); err != nil {
			return err
		}
	}
	return nil
}

// ReserveDeferrals makes room for n payloads in every deferral bucket
// the engine holds, so that no round grows one whose shards' segments
// hold at most n keys: a visit defers at most one payload, and rounds
// never shrink a bucket. Without it a bucket that a round happens to
// overfill grows in that round, which an allocation count of warm
// rounds would read as a regression.
//
//detlint:allow testonly used by the parallel, epidemic and cyclon tests
func (e *RoundEngine[D]) ReserveDeferrals(n int) {
	for s := range e.shards {
		for t, b := range e.shards[s].def {
			e.shards[s].def[t] = slices.Grow(b[:0], n)
		}
	}
}

// run executes index i of the current phase: shard i's ownership stamps
// or sweep, or the tournament round's meeting i.
func (e *RoundEngine[D]) run(i int) error {
	c := &e.cur
	n := c.sw.N
	switch c.step {
	case stepOwn:
		for _, key := range e.order[i*n/c.shards : (i+1)*n/c.shards] {
			e.ownerOf[key] = uint8(i)
		}
		return nil
	case stepVisit:
		sh := &e.shards[i]
		sh.Index = i
		sh.ownerOf = e.ownerOf
		sh.rng.SeedStream(c.seed, uint64(i))
		seg := e.order[i*n/c.shards : (i+1)*n/c.shards]
		sh.resetBuckets(c.shards, len(seg))
		return c.sw.visit(sh, seg, sh.rng, false, e.batch(i))
	default:
		a, b := c.meets[i][0], c.meets[i][1]
		// The meeting draws from a's pair stream and hints into a's
		// batch: no two meetings of one tournament round share a shard.
		prng := e.shards[a].pair
		prng.SeedStream(c.seed, uint64(c.shards+a*c.shards+b))
		if err := c.sw.resolve(a, e.shards[a].def[b], prng, e.batch(a)); err != nil {
			return err
		}
		return c.sw.resolve(a, e.shards[b].def[a], prng, e.batch(a))
	}
}

// Hints run hintDistance items ahead of the visits, hintGroup items to
// a call: far enough that an item's lines arrive while the items before
// it are processed, in groups large enough that one call into the hint
// assembly serves several of them. On 1M-node rounds (BenchmarkEngineRound,
// 2 vCPUs) distances 8, 24 and 32 and groups of 4 measured no better.
const (
	hintDistance = 16
	hintGroup    = 8
)

// hintMinKeys is the smallest sweep the engine hints. The figure suite
// sweeps 8.3k and 83k nodes. At 8.3k a round's state sits in L2, where a
// hint is pure overhead (single-shard rounds about 5 % slower). 83k is
// the crossover: single-shard rounds with and without hints differ by
// less than the noise (Aggregation 15.5 → 14.2 ns a node, push-sum
// 10.7 → 11.4). At 262k hints cut them by a third to a half, and at 1M
// they take a single-shard Aggregation round from 88 to 25 ns a node
// (BenchmarkEngineRound, 2 vCPUs). In the suite itself a gate of 2^15,
// between its two sizes, ran within noise of a blocking warm pass,
// and 2^17, which leaves the 83k sweeps unhinted, ran no faster
// (suite-figures-s8 medians 4.19 against 4.40 s over six runs, 3.84
// against 3.86 s over ten).
const hintMinKeys = 1 << 15

// batch returns shard s's hint batch, or nil when the round is not
// hinted.
func (e *RoundEngine[D]) batch(s int) *prefetch.Batch {
	if !e.hinting {
		return nil
	}
	return &e.hints[s]
}

// hintSpan returns the items [from, to) to hint before a loop over
// n items processes those from lo to lo+hintGroup: the group
// hintDistance further on, and at lo = 0 everything before it too, so
// that every item is hinted exactly once, before its turn.
func hintSpan(lo, n int) (from, to int) {
	from = lo + hintDistance
	if lo == 0 {
		from = 0
	}
	return from, min(lo+hintDistance+hintGroup, n)
}

// visit is the engine's one visit loop: it walks a shard's segment in
// groups of hintGroup keys, hinting into b (unless nil) the lines of the
// keys hintDistance ahead and then visiting the group's keys in order on
// the shard's stream. With mergeEach (the single-shard path under
// Sweep.MergeEach) the meters are flushed after every key, which is
// what prices one message at a time where a fault policy or a transport
// listens.
func (sw *Sweep[D]) visit(sh *Shard[D], keys []int32, rng *xrand.Rand, mergeEach bool, b *prefetch.Batch) error {
	sh.Meters = [2]uint64{}
	for lo := 0; lo < len(keys); lo += hintGroup {
		if b != nil {
			for from, to := hintSpan(lo, len(keys)); from < to; from += hintGroup {
				sw.Hint(b, keys[from:min(from+hintGroup, to)], nil)
				b.Flush()
			}
		}
		for _, key := range keys[lo:min(lo+hintGroup, len(keys))] {
			if err := sw.Visit(sh, key, rng); err != nil {
				return err
			}
			if mergeEach && sw.Merge != nil {
				sw.Merge(sh)
				sh.Meters = [2]uint64{}
			}
		}
	}
	return nil
}

// resolve applies one meeting's share of deferred payloads in order on
// its host shard, hinting into b (unless nil) the payloads hintDistance
// ahead the way visit hints keys.
func (sw *Sweep[D]) resolve(host int, ds []D, rng *xrand.Rand, b *prefetch.Batch) error {
	for lo := 0; lo < len(ds); lo += hintGroup {
		if b != nil {
			for from, to := hintSpan(lo, len(ds)); from < to; from += hintGroup {
				sw.Hint(b, nil, ds[from:min(from+hintGroup, to)])
				b.Flush()
			}
		}
		for _, d := range ds[lo:min(lo+hintGroup, len(ds))] {
			if err := sw.Resolve(host, d, rng); err != nil {
				return err
			}
		}
	}
	return nil
}
