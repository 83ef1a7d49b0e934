package p2psize

// Public estimator-catalog surface: enumerate the registered estimator
// families, build one by name, and register custom families that then
// participate everywhere built-ins do (the -estimators flags, name
// resolution, the monitoring roster). Thin wrapper over
// internal/registry; see that package for the semantics.

import (
	"errors"
	"fmt"
	"sync/atomic"

	"p2psize/internal/core"
	"p2psize/internal/overlay"
	"p2psize/internal/registry"
	"p2psize/internal/xrand"
)

// EstimatorInfo describes one registered estimator family.
type EstimatorInfo struct {
	// Name is the canonical selector, e.g. "samplecollide".
	Name string
	// Aliases are accepted alternate spellings ("sc").
	Aliases []string
	// Class is the counting-class taxonomy slot.
	Class string
	// Summary is a one-line description.
	Summary string
	// CostHint ranks families by relative message cost per estimation.
	CostHint int
	// SupportsDynamic marks families sound on a churning overlay.
	SupportsDynamic bool
	// SupportsMonitoring marks families the continuous monitor may
	// sample.
	SupportsMonitoring bool
	// SupportsTransport marks families whose estimates stay sound when
	// the overlay's sends are carried by a real transport — the families
	// RunCluster may drive.
	SupportsTransport bool
}

// Estimators returns every registered estimator family, built-ins and
// custom registrations alike, in registration order.
func Estimators() []EstimatorInfo {
	all := registry.All()
	out := make([]EstimatorInfo, len(all))
	for i, d := range all {
		out[i] = EstimatorInfo{
			Name:               d.Name,
			Aliases:            append([]string(nil), d.Aliases...),
			Class:              d.Class,
			Summary:            d.Summary,
			CostHint:           d.CostHint,
			SupportsDynamic:    d.SupportsDynamic,
			SupportsMonitoring: d.SupportsMonitoring,
			SupportsTransport:  d.SupportsTransport,
		}
	}
	return out
}

// DefaultEstimators returns the canonical names of the paper's
// head-to-head monitoring roster.
func DefaultEstimators() []string { return registry.DefaultSet() }

// EstimatorConfig carries the tunable knobs NewEstimatorByName honors;
// zero values select each family's paper defaults, and fields that do
// not concern the named family are ignored. Polling, id-density,
// capture–recapture and dht have no knobs here and always run their
// defaults. The field names match the internal registry's option names
// one-for-one.
type EstimatorConfig struct {
	// SCTimer is the Sample&Collide walk timer (0 = 10). A negative,
	// NaN or infinite timer is an error.
	SCTimer float64
	// SCL is the Sample&Collide collision target (0 = 200). SCL,
	// MinHops, Tours and Rounds reject negative values.
	SCL int
	// SCMLE selects Sample&Collide's maximum-likelihood refinement.
	SCMLE bool
	// MinHops is HopsSampling's always-reply threshold (0 = 5).
	MinHops int

	// Tours is the Random Tour count per estimation (0 = 1).
	Tours int
	// Rounds is the Aggregation rounds-per-epoch (0 = 50).
	Rounds int
	// Workers caps the goroutines sweeping one Aggregation round.
	Workers int
	// Faults runs the estimator under a fault scenario: the built
	// instance is decorated so every Estimate call enforces the
	// scenario's message-level faults (see ApplyFaults). The zero value
	// is benign.
	Faults FaultOptions
	// Seed drives the estimator's randomness.
	Seed uint64
}

// registryOptions is the single conversion point from the public
// configuration to the internal registry's options; the fields pass
// through one-for-one.
func (c EstimatorConfig) registryOptions() registry.Options {
	return registry.Options{
		SCTimer: c.SCTimer,
		SCL:     c.SCL,
		SCMLE:   c.SCMLE,
		Tours:   c.Tours,
		MinHops: c.MinHops,
		Rounds:  c.Rounds,
		Workers: c.Workers,
		Faults:  c.Faults,
	}
}

// NewEstimatorByName builds an estimator by registry name or alias.
// net supplies the overlay snapshot-based families derive state from
// (id-density builds its identifier ring from it); families that need
// no snapshot accept a nil net. A non-zero cfg.Faults decorates the
// instance with the scenario's fault injector.
func NewEstimatorByName(name string, cfg EstimatorConfig, net *Network) (Estimator, error) {
	d, ok := registry.Get(name)
	if !ok {
		return nil, fmt.Errorf("p2psize: unknown estimator %q (have %v)", name, registry.Names())
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	var inner *overlay.Network
	if net != nil {
		inner = net.net
	}
	e, err := d.Build(inner, xrand.New(cfg.Seed), cfg.registryOptions())
	if err != nil {
		return nil, fmt.Errorf("p2psize: %s: %w", d.Name, err)
	}
	// A custom family registered through CustomEstimator comes back as
	// itself, not wrapped twice.
	if w, ok := e.(publicWrap); ok {
		return w.e, nil
	}
	return coreWrap{e}, nil
}

// coreWrap and publicWrap are the two halves of the package's single
// adapter pair: coreWrap lifts an internal estimator onto the public
// contract, publicWrap the reverse. Crossings that may meet a wrapper
// (NewEstimatorByName, toCore) unwrap instead of stacking — an
// estimator that round-trips across the boundary (a custom family
// built by NewEstimatorByName, say) comes back as itself, not as
// wrapper lasagna.
type coreWrap struct{ e core.Estimator }

func (w coreWrap) Name() string { return w.e.Name() }
func (w coreWrap) Estimate(n *Network) (float64, error) {
	return w.e.Estimate(n.net)
}

// MutatesOverlay surfaces the wrapped internal estimator's declaration,
// so a built-in family handed out by NewEstimatorByName counts the same
// in MonitorResult.Groups when it comes back through RunMonitor.
func (w coreWrap) MutatesOverlay() bool { return core.MutatesOverlay(w.e) }

type publicWrap struct{ e Estimator }

func (w publicWrap) Name() string { return w.e.Name() }

// Estimate hands the estimator a read-only Network over o: a churn
// method or ApplyAdversary called on it writes nothing and comes back
// as this estimate's error, which wraps core.ErrReadOnly (a monitoring
// run fails on it).
func (w publicWrap) Estimate(o *overlay.Network) (est float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			method, ok := r.(readOnlyWrite)
			if !ok {
				panic(r)
			}
			est, err = 0, fmt.Errorf("%s called Network.%s inside Estimate: %w", w.e.Name(), string(method), core.ErrReadOnly)
		}
	}()
	return w.e.Estimate(&Network{net: o})
}

// MutatesOverlay forwards the public estimator's own declaration when
// it makes one (a MutatesOverlay() bool method), and otherwise reports
// true. The answer only feeds the MonitorResult.Groups count.
func (w publicWrap) MutatesOverlay() bool {
	if m, ok := w.e.(interface{ MutatesOverlay() bool }); ok {
		return m.MutatesOverlay()
	}
	return true
}

// toCore lowers a public estimator onto the internal contract; nil
// stays nil, so the run loops can report it instead of dereferencing
// a wrapper around nothing.
func toCore(e Estimator) core.Estimator {
	if e == nil {
		return nil
	}
	if w, ok := e.(coreWrap); ok {
		return w.e
	}
	return publicWrap{e: e}
}

// CustomEstimator registers a user-supplied estimator family.
//
// Estimators only read. RunMonitor and RunParallel run several
// estimates at once, each through its own *Network (own message meter)
// over one overlay, so an estimator must be safe beside others reading
// the same overlay: keep all mutable state on the instance, none in
// package variables shared between instances. The Network an Estimate
// is handed is read-only: its churn methods (Join, JoinMany,
// LeaveRandom, LeaveFraction) and ApplyAdversary change nothing and
// fail the estimate with an error wrapping the refusal, which fails a
// RunMonitor run and a RunParallel call alike. A MutatesOverlay() bool
// method, if the type has one, changes nothing but the count
// MonitorResult.Groups reports.
type CustomEstimator struct {
	// Name is the canonical selector. Required, unique.
	Name string
	// Aliases are optional alternate spellings.
	Aliases []string
	// Summary is a one-line description for listings.
	Summary string
	// SupportsDynamic / SupportsMonitoring declare where the family may
	// be scheduled; see EstimatorInfo.
	SupportsDynamic    bool
	SupportsMonitoring bool
	// New builds one instance; it must derive all randomness from seed
	// (equal seeds, equal estimators) for the harness's determinism
	// guarantees to hold.
	New func(seed uint64) (Estimator, error)
}

// customOffset hands out seed-stream offsets for custom families,
// starting far above the built-ins' frozen block. Offsets follow
// registration order, so programs wanting reproducible rosters must
// register custom families in a fixed order (init time is ideal).
var customOffset atomic.Uint64

func init() { customOffset.Store(1 << 20) }

// RegisterEstimator adds a custom estimator family to the catalog. The
// family becomes selectable everywhere built-ins are: Estimators()
// listings, NewEstimatorByName, the -estimators CLI flags and the
// monitoring roster (when SupportsMonitoring is set).
func RegisterEstimator(c CustomEstimator) error {
	if c.New == nil {
		return errors.New("p2psize: CustomEstimator.New must not be nil")
	}
	mk := c.New
	return registry.Register(registry.Descriptor{
		Name:               c.Name,
		Aliases:            append([]string(nil), c.Aliases...),
		Class:              "custom",
		Summary:            c.Summary,
		CostHint:           50, // unknown: schedule mid-pack
		SupportsDynamic:    c.SupportsDynamic,
		SupportsMonitoring: c.SupportsMonitoring,
		// Custom families draw offsets from an atomic counter far above
		// the built-ins' frozen block (1<<20), so a static collision with
		// a literal offset is impossible; the cost is that reproducible
		// rosters must register custom families in a fixed order.
		//detlint:allow streamoffset — runtime-allocated block above 1<<20 cannot collide with frozen literals
		StreamOffset: customOffset.Add(1),
		New: func(_ *overlay.Network, rng *xrand.Rand, _ registry.Options) (core.Estimator, error) {
			e, err := mk(rng.Uint64())
			if err != nil {
				return nil, err
			}
			return toCore(e), nil
		},
	})
}
