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
// once per round by Sweep.Keys, and a shard walks its segment in blocks:
// the sweep's read-only Warm runs over a block, then the block's keys
// are visited in order. At a million nodes a visit is a chain of
// dependent cache misses; staging lets a block's misses overlap without
// moving a single draw (README, "How a round touches memory").
//
// The shard count is part of the algorithm — changing it changes the
// draws — while Workers only shapes wall time. Both invariants, plus the
// race-freedom argument, live here once instead of once per family.
package parallel

import (
	"fmt"
	"math"
	"slices"

	"p2psize/internal/xrand"
)

// ShuffleMode selects how the engine randomizes each round's sweep order.
type ShuffleMode uint8

const (
	// ShuffleGlobal is the compatibility mode: the protocol rng
	// Fisher–Yates-shuffles the full sweep order serially before the
	// shards fan out, reproducing the pre-engine draw order bit for bit
	// (every frozen experiment checksum holds). The O(N) serial prefix is
	// the sweep's Amdahl residue: it caps shard speedup no matter how
	// many cores the parallel phases get.
	ShuffleGlobal ShuffleMode = iota
	// ShuffleLocal removes the serial prefix: the sweep order is
	// partitioned deterministically (segment s owns positions
	// [s·n/S, (s+1)·n/S) of the ascending base order) and each shard
	// Fisher–Yates-shuffles its own segment on its per-round stream,
	// inside the parallel phase. The protocol rng pays one draw (the
	// round seed) instead of N−1 swaps. Draws differ from ShuffleGlobal —
	// the mode is part of the algorithm, like the shard count — but the
	// estimator is statistically equivalent (asserted by the families'
	// 30-run envelope tests).
	ShuffleLocal
)

// String returns the mode's selector spelling.
func (m ShuffleMode) String() string {
	switch m {
	case ShuffleGlobal:
		return "global"
	case ShuffleLocal:
		return "local"
	}
	return fmt.Sprintf("ShuffleMode(%d)", uint8(m))
}

// ParseShuffleMode resolves a selector spelling: "" and "global" give
// the compatibility mode, "local" and "localshuffle" the per-shard
// local-shuffle mode.
func ParseShuffleMode(s string) (ShuffleMode, error) {
	switch s {
	case "", "global":
		return ShuffleGlobal, nil
	case "local", "localshuffle":
		return ShuffleLocal, nil
	}
	return 0, fmt.Errorf("parallel: unknown shuffle mode %q (have global, local)", s)
}

// EngineConfig is the sharded-round knob set every engine-driven family
// embeds in its own Config: the shard count (part of the output), the
// worker cap (never part of the output), and the shuffle mode.
type EngineConfig struct {
	// Shards splits the sweep into this many segments; 0 auto-sizes
	// (one shard per MinShardNodes items, at most MaxShards).
	Shards int
	// Workers caps the goroutines executing one round's shards: 0 means
	// runtime.NumCPU(), 1 forces sequential execution.
	Workers int
	// Shuffle selects the sweep-order randomization (see ShuffleMode).
	Shuffle ShuffleMode
}

// Validate rejects out-of-range shard counts (the engine stamps
// ownership into uint16 tags, so an unbounded count would overflow them)
// and unknown shuffle modes.
func (c EngineConfig) Validate() error {
	if c.Shards < 0 || c.Shards > MaxConfigShards {
		return fmt.Errorf("Shards must be in [0, %d]", MaxConfigShards)
	}
	if c.Shuffle > ShuffleLocal {
		return fmt.Errorf("unknown shuffle mode %d", uint8(c.Shuffle))
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
	// warm accumulates what Sweep.Warm returns, so the compiler cannot
	// drop the warm pass's loads as dead.
	warm uint64
	// ownerOf is the round's shared ownership table (nil when the round
	// runs on a single shard and every key is trivially owned).
	ownerOf []uint16
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
	// typically, N distinct ones — in the base order the shuffles
	// permute. A key's owner is the shard whose segment it lands in,
	// which decides immediate versus deferred application.
	Keys func(dst []int32)
	// Warm, when set, is run over each block of keys just before the
	// block is visited, to pull what Visit will read into cache with
	// loads that do not wait on each other. It must write nothing, draw
	// nothing, and read only what Visit of those same keys may read:
	// state frozen for the round and state of the keys themselves (their
	// shard owns them). It returns any value derived from every load.
	Warm func(keys []int32) uint64
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
	// Resolve applies one deferred payload during the tournament. rng is
	// the meeting's pair stream when PairStreams is set, nil otherwise.
	Resolve func(d D, rng *xrand.Rand) error
	// PairStreams gives each tournament meeting {a, b} its own
	// deterministic stream (stream index Shards + a·Shards + b) for
	// families whose deferred work draws randomness (CYCLON).
	PairStreams bool
}

// RoundEngine drives a family's sharded rounds. The zero value is ready
// to use; the engine owns the scratch buffers (sweep order, ownership
// table, shard states, deferral buckets, tournament schedule) and keeps
// them at their high-water size. A buffer that must grow grows with
// spare room — a quarter for the sweep order and the ownership table, a
// segment's expected share and then geometric steps for the buckets
// (resetBuckets) — so a round on a warm engine of unchanged size
// allocates no scratch, and an overlay that grows between rounds
// re-makes a buffer only once that room is used up.
//
// An engine is not safe for concurrent rounds; each protocol instance
// owns one.
type RoundEngine[D any] struct {
	order   []int32    // scratch: the round's keys in sweep order
	ownerOf []uint16   // scratch: shard owning each key this round
	shards  []Shard[D] // scratch: per-shard state

	schedN   int        // shard count the memoized schedule was built for
	schedule [][][2]int // memoized RoundRobinPairs(schedN)
}

// Round executes one sharded round: deterministic partition of the
// sweep, ownership prepass, parallel in-shard sweep, ordered meter
// merge, and the cross-shard tournament. rng is the protocol rng; it
// advances identically at every shard count (ShuffleGlobal: one full
// shuffle plus one seed draw; ShuffleLocal: one seed draw), and
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
	if cap(e.order) < n {
		// Under a growing overlay every round adds keys, so a buffer sized
		// to this round would be re-made at the next: leave a quarter spare.
		e.order = make([]int32, n+n/4)
	}
	e.order = e.order[:n]
	sw.Keys(e.order)
	shards := Shards(cfg.Shards, n)
	if cfg.Shuffle == ShuffleGlobal {
		// The serial prefix: every per-shard draw below comes from
		// streams of the one roundSeed draw that follows, so the
		// protocol rng advances identically at every shard count.
		xrand.Shuffle(rng, e.order)
	}
	roundSeed := rng.Uint64()

	for len(e.shards) < shards {
		e.shards = append(e.shards, Shard[D]{})
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
		srng := xrand.NewStream(roundSeed, 0)
		if cfg.Shuffle == ShuffleLocal {
			xrand.Shuffle(srng, e.order)
		}
		if err := sw.visit(sh, e.order, srng, sw.MergeEach); err != nil {
			return err
		}
		if !sw.MergeEach && sw.Merge != nil {
			sw.Merge(sh)
		}
		return nil
	}

	if k := sw.NumKeys; cap(e.ownerOf) < k {
		e.ownerOf = make([]uint16, k+k/4)
	}
	e.ownerOf = e.ownerOf[:sw.NumKeys]
	// Ownership prepass, parallel: each shard stamps the keys of its own
	// segment (distinct entries, so no write is shared). Segment bounds
	// are fixed by (n, shards) alone, and an intra-segment shuffle keeps
	// membership intact, so the stamps stay valid in ShuffleLocal mode.
	if err := ForEach(cfg.Workers, shards, func(s int) error {
		for _, key := range e.order[s*n/shards : (s+1)*n/shards] {
			e.ownerOf[key] = uint16(s)
		}
		return nil
	}); err != nil {
		return err
	}
	// Phase 1, parallel: each shard sweeps its segment on its own
	// stream. Visit touches only state owned by the shard (immediate
	// application requires every endpoint to be shard-owned), so no
	// state is read or written by two shards and Workers only shape
	// scheduling.
	if err := ForEach(cfg.Workers, shards, func(s int) error {
		srng := xrand.NewStream(roundSeed, uint64(s))
		sh := &e.shards[s]
		sh.Index = s
		sh.ownerOf = e.ownerOf
		seg := e.order[s*n/shards : (s+1)*n/shards]
		sh.resetBuckets(shards, len(seg))
		if cfg.Shuffle == ShuffleLocal {
			xrand.Shuffle(srng, seg)
		}
		return sw.visit(sh, seg, srng, false)
	}); err != nil {
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
	for _, round := range e.schedule {
		if err := ForEach(cfg.Workers, len(round), func(i int) error {
			a, b := round[i][0], round[i][1]
			var prng *xrand.Rand
			if sw.PairStreams {
				prng = xrand.NewStream(roundSeed, uint64(shards+a*shards+b))
			}
			for _, d := range e.shards[a].def[b] {
				if err := sw.Resolve(d, prng); err != nil {
					return err
				}
			}
			for _, d := range e.shards[b].def[a] {
				if err := sw.Resolve(d, prng); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// visitBlock is how many keys a shard stages at a time: Warm runs over a
// block, then Visit over the same keys, so a visit's cache misses were
// started a block ago instead of one dependent load at a time. 16, 64
// and 256 measured alike at 1M nodes.
const visitBlock = 64

// visit is the engine's one visit loop: it walks a shard's segment in
// blocks, warming each block and then visiting its keys in order on the
// shard's stream. With mergeEach (the single-shard path under
// Sweep.MergeEach) the meters are flushed after every key, which is
// what prices one message at a time where a fault policy or a
// transport listens.
func (sw *Sweep[D]) visit(sh *Shard[D], keys []int32, rng *xrand.Rand, mergeEach bool) error {
	sh.Meters = [2]uint64{}
	for len(keys) > 0 {
		blk := keys[:min(visitBlock, len(keys))]
		keys = keys[len(blk):]
		if sw.Warm != nil {
			sh.warm += sw.Warm(blk)
		}
		for _, key := range blk {
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
