// Package registry is the estimator catalog: every size-estimation
// family the repo implements is described once — name, factory, whether
// it is snapshot-based — and every other layer (the experiment harness,
// the monitor, both CLIs, the public API) selects estimators from the
// catalog instead of hard-wiring constructor calls.
// Adding an estimator family therefore means registering one Descriptor;
// the comparative figures, the monitoring roster and p2psize's
// -estimators flag pick it up without touching their code.
//
// Determinism contract: a Factory must derive all randomness from the
// *xrand.Rand it is handed (one per run or per instance, derived from
// the experiment seed and the descriptor's StreamOffset or the run
// index), never from global state. Equal (descriptor, options, rng seed)
// then give byte-identical estimators, which is what lets the harness
// keep its output identical at every worker count.
package registry

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"p2psize/internal/core"
	"p2psize/internal/idspace"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// Options carries the tunable knobs a Factory may honor. Zero values
// select each family's paper defaults, so Options{} is always valid;
// factories ignore fields that do not concern them, which lets one
// Options value configure a whole roster.
type Options struct {
	// SCTimer is the Sample&Collide walk timer T (0 = the paper's 10;
	// negative, NaN and infinite values are an error).
	SCTimer float64
	// SCL is the Sample&Collide collision target l (0 = the paper's 200).
	// SCL, Tours, MinHops and Rounds reject negative values.
	SCL int
	// SCMLE selects the maximum-likelihood refinement over X²/(2l).
	SCMLE bool
	// Tours is the Random Tour count averaged per estimation (0 = 1).
	Tours int
	// MinHops is the HopsSampling minHopsReporting threshold (0 = 5).
	MinHops int
	// Rounds is the Aggregation rounds-per-epoch (0 = the paper's 50).
	Rounds int
	// Workers caps the goroutines sweeping one Aggregation round's
	// shards (0 = all CPUs); never part of the output.
	Workers int
	// Ring optionally shares a pre-built identifier ring across
	// id-density instances; nil builds one from the overlay and rng the
	// factory is handed.
	Ring *idspace.Ring
}

// Factory builds one estimator instance. net is the overlay the
// estimator will run against — most families ignore it, but snapshot-
// based ones (id-density) derive state from it; rng is the instance's
// private random stream.
type Factory func(net *overlay.Network, rng *xrand.Rand, opts Options) (core.Estimator, error)

// Descriptor describes one estimator family.
type Descriptor struct {
	// Name is the canonical registry key, e.g. "samplecollide".
	Name string
	// Aliases are accepted selector spellings ("sc", "sample-collide").
	Aliases []string
	// Class is the paper's counting-class taxonomy slot ("random-walk",
	// "probabilistic-polling", "epidemic", "structured").
	Class string
	// Summary is a one-line description for listings.
	Summary string
	// Snapshot marks a family that derives its state from a frozen
	// membership view (id-density's identifier ring): it goes stale the
	// moment the overlay churns, so neither the continuous monitor nor
	// the live-cluster runtime may run it. The zero value is a family
	// that follows the overlay it is handed.
	Snapshot bool
	// InDefaultSet marks the paper's head-to-head monitoring roster
	// (Sample&Collide, Random Tour, HopsSampling, Aggregation).
	InDefaultSet bool
	// StreamOffset is the family's fixed seed-stream offset: instance
	// rngs derive from seed+StreamOffset, so a family's random stream —
	// and therefore its per-run message accounting — never depends on
	// which other families are selected alongside it. Unique per family.
	StreamOffset uint64
	// New builds one estimator instance.
	New Factory
}

var (
	mu      sync.RWMutex
	ordered []Descriptor          // registration order
	byName  = map[string]int{}    // lowercased name and aliases -> ordered index
	offsets = map[uint64]string{} // StreamOffset -> owner name
)

// Register adds a descriptor to the catalog. It fails on an empty or
// duplicate name (aliases collide with names and other aliases too), a
// nil factory, or a StreamOffset already owned by another family — any
// of those would silently corrupt estimator selection or seed-stream
// separation.
func Register(d Descriptor) error {
	if d.Name == "" {
		return errors.New("registry: Descriptor.Name must not be empty")
	}
	if d.New == nil {
		return fmt.Errorf("registry: %s: Descriptor.New must not be nil", d.Name)
	}
	keys := append([]string{d.Name}, d.Aliases...)
	mu.Lock()
	defer mu.Unlock()
	for _, k := range keys {
		k = strings.ToLower(k)
		if k == "all" || k == "default" {
			return fmt.Errorf("registry: %s: selector %q is reserved", d.Name, k)
		}
		if idx, dup := byName[k]; dup {
			return fmt.Errorf("registry: duplicate estimator name %q (already registered by %s)", k, ordered[idx].Name)
		}
	}
	if owner, dup := offsets[d.StreamOffset]; dup {
		return fmt.Errorf("registry: %s: stream offset %d already owned by %s", d.Name, d.StreamOffset, owner)
	}
	idx := len(ordered)
	ordered = append(ordered, d)
	for _, k := range keys {
		byName[strings.ToLower(k)] = idx
	}
	offsets[d.StreamOffset] = d.Name
	return nil
}

// MustRegister is Register for init-time built-ins; it panics on error.
func MustRegister(d Descriptor) {
	if err := Register(d); err != nil {
		panic(err)
	}
}

// Get resolves a name or alias (case-insensitive) to its descriptor.
func Get(name string) (Descriptor, bool) {
	mu.RLock()
	defer mu.RUnlock()
	idx, ok := byName[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return Descriptor{}, false
	}
	return ordered[idx], true
}

// Names returns the canonical names in registration order.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, len(ordered))
	for i, d := range ordered {
		out[i] = d.Name
	}
	return out
}

// All returns every descriptor in registration order.
func All() []Descriptor {
	mu.RLock()
	defer mu.RUnlock()
	return append([]Descriptor(nil), ordered...)
}

// DefaultSet returns the canonical names of the paper's head-to-head
// monitoring roster, in registration order.
func DefaultSet() []string {
	mu.RLock()
	defer mu.RUnlock()
	var out []string
	for _, d := range ordered {
		if d.InDefaultSet {
			out = append(out, d.Name)
		}
	}
	return out
}

// Resolve maps a list of names/aliases to descriptors, deduplicating
// while keeping first-mention order. An empty list resolves to the
// default set. Unknown names error with the known selectors listed.
func Resolve(names []string) ([]Descriptor, error) {
	if len(names) == 0 {
		names = DefaultSet()
	}
	seen := make(map[string]bool, len(names))
	out := make([]Descriptor, 0, len(names))
	for _, name := range names {
		d, ok := Get(name)
		if !ok {
			return nil, fmt.Errorf("registry: unknown estimator %q (have %s)",
				name, strings.Join(Names(), ", "))
		}
		if seen[d.Name] {
			continue
		}
		seen[d.Name] = true
		out = append(out, d)
	}
	return out, nil
}

// Parse resolves a comma-separated selector spec: "" and "default" give
// the default set, "all" gives every registered family, anything else
// is a list of names/aliases (deduplicated, first-mention order).
func Parse(spec string) ([]Descriptor, error) {
	switch strings.ToLower(strings.TrimSpace(spec)) {
	case "", "default":
		return Resolve(nil)
	case "all":
		return All(), nil
	}
	var names []string
	for _, f := range strings.Split(spec, ",") {
		if f = strings.TrimSpace(f); f != "" {
			names = append(names, f)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("registry: empty estimator spec %q", spec)
	}
	return Resolve(names)
}

// ParseCadenceSpec parses a monitoring cadence spec: a comma-separated
// mix of a bare number (the base cadence every unlisted estimator
// samples at) and name=value entries (that estimator's own cadence, in
// the same simulated time units). Names resolve through the catalog, so
// aliases work and the returned map is keyed by canonical name.
//
//	"10"            -> base 10, no overrides
//	"5,agg=50"      -> base 5, aggregation every 50
//	"hops=1,agg=10" -> base 0 (unset), two overrides
//
// The base is 0 when the spec never sets it: the caller's default.
// Repeating the bare base or naming one estimator twice (under any
// alias) is rejected: a spec like "5,agg=50,10" almost certainly pastes
// two intents together, and silently letting the later entry win would
// measure a configuration the caller never asked for.
func ParseCadenceSpec(spec string) (base float64, overrides map[string]float64, err error) {
	overrides = map[string]float64{}
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		name, val, hasName := strings.Cut(f, "=")
		if !hasName {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return 0, nil, fmt.Errorf("registry: bad cadence %q: %w", f, err)
			}
			// NaN passes every ordered comparison, so "positive" must be
			// checked as v > 0, and Inf would make the schedule empty.
			if !(v > 0) || math.IsInf(v, 1) {
				return 0, nil, fmt.Errorf("registry: cadence %q must be positive and finite", f)
			}
			if base != 0 {
				return 0, nil, fmt.Errorf("registry: duplicate base cadence %q in spec %q (base already set to %g)", f, spec, base)
			}
			base = v
			continue
		}
		d, ok := Get(name)
		if !ok {
			return 0, nil, fmt.Errorf("registry: unknown estimator %q in cadence spec (have %s)",
				strings.TrimSpace(name), strings.Join(Names(), ", "))
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return 0, nil, fmt.Errorf("registry: bad cadence for %s: %w", d.Name, err)
		}
		if !(v > 0) || math.IsInf(v, 1) {
			return 0, nil, fmt.Errorf("registry: cadence for %s must be positive and finite", d.Name)
		}
		if _, dup := overrides[d.Name]; dup {
			return 0, nil, fmt.Errorf("registry: duplicate cadence for %s in spec %q (aliases resolve to the same family)", d.Name, spec)
		}
		overrides[d.Name] = v
	}
	if len(overrides) == 0 {
		overrides = nil
	}
	return base, overrides, nil
}

// MonitoringCadences is the monitoring-roster rule, applied by every
// layer that hands a roster to the monitor: no family may be
// snapshot-based, ParseCadenceSpec's per-family overrides are
// laid out per roster slot (0 = the base cadence), and an override
// naming a family outside the roster is rejected — it would silently
// measure a configuration the caller never asked for. Orphans are
// reported sorted, so the error does not depend on map order.
func MonitoringCadences(roster []Descriptor, overrides map[string]float64) ([]float64, error) {
	cadences := make([]float64, len(roster))
	selected := make(map[string]bool, len(roster))
	for i, d := range roster {
		if d.Snapshot {
			return nil, fmt.Errorf("registry: estimator %q does not support continuous monitoring (snapshot-based)", d.Name)
		}
		selected[d.Name] = true
		cadences[i] = overrides[d.Name]
	}
	var orphans []string
	for name := range overrides {
		if !selected[name] {
			orphans = append(orphans, name)
		}
	}
	if len(orphans) > 0 {
		sort.Strings(orphans)
		return nil, fmt.Errorf("registry: cadence override names %v, not in the monitored roster", orphans)
	}
	return cadences, nil
}

// Build constructs one estimator instance with the family's factory.
// Faults are not an option: a caller that wants them decorates the
// result (fault.Decorate, or p2psize.ApplyFaults), on a fate stream of
// its own, so the estimator's draws are the fault-free run's.
func (d Descriptor) Build(net *overlay.Network, rng *xrand.Rand, opts Options) (core.Estimator, error) {
	return d.New(net, rng, opts)
}

// PerRun returns a run-indexed estimator builder for the static run
// loops (core.RunStaticParallel and friends): run i's estimator draws
// from the (seed, i) stream, so its estimate and per-run message
// accounting are fixed by the index alone — byte-identical at every
// worker count. The options are validated once up front (with a
// throwaway stream) so configuration errors surface here, not mid-run.
func (d Descriptor) PerRun(net *overlay.Network, seed uint64, opts Options) (func(run int) core.Estimator, error) {
	if _, err := d.Build(net, xrand.NewStream(seed, 0), opts); err != nil {
		return nil, fmt.Errorf("registry: %s: %w", d.Name, err)
	}
	return func(run int) core.Estimator {
		e, err := d.Build(net, xrand.NewStream(seed, uint64(run)), opts)
		if err != nil {
			// The eager validation above accepted these options; a
			// factory failing only on some run indices would break the
			// deterministic-output contract, so treat it as corruption.
			panic(fmt.Sprintf("registry: %s: factory failed after validation: %v", d.Name, err))
		}
		return e
	}, nil
}
