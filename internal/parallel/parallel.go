// Package parallel is the deterministic worker pool behind the experiment
// harness. The paper's evaluation is embarrassingly parallel — repeated
// estimation runs, concurrent estimation instances, independent table rows
// — but naive fan-out destroys the simulator's core guarantee that equal
// seeds give byte-identical output.
//
// The pool restores that guarantee by construction:
//
//   - Work is addressed by index. fn(i) must depend only on i (each run
//     derives its own xrand stream from the experiment seed and i), never
//     on scheduling order or shared mutable state.
//   - Results are collected into slot i of the output slice, so the
//     assembled result is independent of which worker ran which index.
//   - When several indices fail, the error of the lowest index is
//     returned — the same error a sequential loop would have hit first —
//     so even failures are identical at every worker count.
//
// Under those rules Map(1, n, fn) and Map(16, n, fn) are byte-identical,
// which the experiment determinism tests assert end to end.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Resolve maps a workers setting to a concrete pool size: 0 (the default
// everywhere in the harness) means runtime.NumCPU(), negative values and
// 1 mean sequential execution.
func Resolve(workers int) int {
	if workers == 0 {
		return runtime.NumCPU()
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// Split divides a workers budget between two nesting levels: an outer
// fan-out over width lanes and the inner parallelism each lane gets
// (nested run pools, sharded rounds, a tick's fork), so outer·inner
// never exceeds the budget. A pure function of (workers, width), and it
// only shapes load: the output of everything built on Map is invariant
// to any split.
func Split(workers, width int) (outer, inner int) {
	w := Resolve(workers)
	outer = max(1, min(w, width))
	return outer, w / outer
}

// Shard sizing for intra-round sweeps: below MinShardNodes per shard
// the per-node work is too cheap to amortize a goroutine, and past
// MaxShards the ordered cross-shard fix-up passes start to dominate.
// MaxConfigShards bounds even explicit settings: the engine stamps
// ownership into one byte per key (a 1M-node table is 1 MB, so the
// dependent load behind a visit's Owner lookup hits the cache more
// often), so a larger count would overflow the byte and race the sweep. S×S
// deferral buckets stopped making sense long before that; auto-sizing
// stops at MaxShards.
const (
	MinShardNodes   = 4096
	MaxShards       = 16
	MaxConfigShards = 256
)

// Shards resolves a protocol's Shards setting for a sweep over n items:
// 0 picks one shard per MinShardNodes (at most MaxShards), explicit
// settings win, and the result is clamped to [1, n]. It is a pure
// function of (cfg, n) — never of worker count — because the shard
// count is part of the sharded algorithms' output, while workers only
// shape scheduling.
func Shards(cfg, n int) int {
	s := cfg
	if s == 0 {
		s = n / MinShardNodes
		if s > MaxShards {
			s = MaxShards
		}
	}
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	return s
}

// RoundRobinPairs returns the circle-method tournament schedule for n
// players: a list of rounds, each a list of disjoint [2]int pairs
// (a < b), covering every unordered pair exactly once across rounds.
// The sharded round sweeps use it to apply cross-shard work in
// parallel without races: within one tournament round no two pairs
// share a shard, and the schedule is a pure function of n, so
// processing order — and therefore output — is fixed at every worker
// count. n < 2 yields no rounds.
func RoundRobinPairs(n int) [][][2]int {
	m := n
	if m%2 == 1 {
		m++ // odd player counts get a bye slot
	}
	if m < 2 {
		return nil
	}
	players := make([]int, m)
	for i := range players {
		players[i] = i
	}
	rounds := make([][][2]int, 0, m-1)
	for r := 0; r < m-1; r++ {
		pairs := make([][2]int, 0, m/2)
		for i := 0; i < m/2; i++ {
			a, b := players[i], players[m-1-i]
			if a >= n || b >= n {
				continue // bye
			}
			if a > b {
				a, b = b, a
			}
			pairs = append(pairs, [2]int{a, b})
		}
		rounds = append(rounds, pairs)
		// Rotate everyone but players[0].
		last := players[m-1]
		copy(players[2:], players[1:m-1])
		players[1] = last
	}
	return rounds
}

// WorkerPanic is the panic value Map re-raises on the calling goroutine
// when fn(i) panicked inside the pool. Each panicking index is captured
// where it happened (the remaining indices still run), and the panic of
// the lowest index is re-raised — the same one a sequential loop would
// have hit first — so even crashes are identical at every worker count.
type WorkerPanic struct {
	// Index is the work index whose fn call panicked.
	Index int
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack string
}

func (p WorkerPanic) String() string {
	return fmt.Sprintf("parallel: panic at index %d: %v\n%s", p.Index, p.Value, p.Stack)
}

// Map runs fn(i) for every i in [0, n) on a pool of workers goroutines
// and returns the results ordered by index. fn must be safe for
// concurrent invocation across distinct indices and must derive any
// randomness from i alone; the output is then independent of the worker
// count. If any indices fail, the error of the lowest failing index is
// returned (all indices still run, so the choice of error is itself
// deterministic). A panicking fn never kills a pool goroutine silently:
// every index still runs, and the panic of the lowest panicking index is
// re-raised on the calling goroutine as a WorkerPanic.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	errs := make([]error, n)
	panics := make([]*WorkerPanic, n)
	runIndex := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				panics[i] = &WorkerPanic{Index: i, Value: v, Stack: string(debug.Stack())}
			}
		}()
		out[i], errs[i] = fn(i)
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			runIndex(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					runIndex(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, p := range panics {
		if p != nil {
			panic(*p)
		}
	}
	return out, firstError(errs)
}

// ForEach runs fn(i) for every i in [0, n) on a pool of workers
// goroutines, with the same contract as Map but no collected results.
func ForEach(workers, n int, fn func(i int) error) error {
	_, err := Map(workers, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
