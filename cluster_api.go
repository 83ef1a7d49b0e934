package p2psize

import (
	"errors"
	"fmt"

	"p2psize/internal/cluster"
	"p2psize/internal/registry"
)

// ClusterOptions configures RunCluster, the live-cluster runtime: real
// node daemons on UDP sockets, started in this process and wired into
// the requested topology, with the estimator families running over
// actual packets and every live estimate cross-validated against a
// simulated run on the identical topology.
type ClusterOptions struct {
	// Nodes is the cluster size, one in-process daemon per node.
	// Required (>= 2).
	Nodes int
	// Topology and MaxDegree shape the plan topology, as in NewNetwork.
	Topology  Topology
	MaxDegree int
	// Seed fixes the plan construction and every estimator stream.
	Seed uint64
	// Estimators selects families by registry name or alias only; nil
	// or empty selects the default monitoring roster. The CLIs' "all"
	// and "default" selectors are not names and are rejected here.
	Estimators []string
	// Samples is the estimations per family (0 = 3; negative is
	// rejected).
	Samples int
	// Logf, when set, receives progress lines. It is called from one
	// goroutine at a time, so it needs no lock of its own.
	Logf func(format string, args ...any)
}

// ClusterFamily is one estimator family's live-vs-simulated outcome.
type ClusterFamily struct {
	// Name is the family's canonical registry name.
	Name string
	// Live and Sim are the per-sample raw estimates from the live
	// cluster and the simulated oracle.
	Live, Sim []float64
	// Messages is the live run's metered protocol traffic.
	Messages uint64
}

// ClusterReport is the outcome of a live-cluster run.
type ClusterReport struct {
	// Nodes is the cluster size.
	Nodes int
	// Families holds the per-family cross-validation, roster order.
	Families []ClusterFamily
	// Tolerance is the accepted relative live-vs-simulated divergence
	// of a sample (0.05). A benign run is bit-equal, i.e. divergence 0;
	// the tolerance absorbs liveness-driven membership changes.
	Tolerance float64
}

// Validate checks the options' ranges; RunCluster calls it before any
// daemon starts. The error names the offending field.
func (o ClusterOptions) Validate() error {
	switch {
	case o.Nodes < 2:
		return errors.New("p2psize: ClusterOptions needs Nodes >= 2")
	case o.Samples < 0:
		return fmt.Errorf("p2psize: ClusterOptions.Samples %d is negative (0 = 3)", o.Samples)
	}
	return nil
}

// RunCluster wires a cluster of real node daemons into the requested
// topology and runs the selected estimator families over actual UDP
// sockets, cross-validating each live estimate against a simulated run
// on the identical topology. A snapshot-based family cannot run over a
// live transport and is rejected.
func RunCluster(opts ClusterOptions) (*ClusterReport, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}

	descs, err := clusterRoster(opts.Estimators)
	if err != nil {
		return nil, err
	}

	// The plan topology is a plain NewNetwork build: same generators,
	// same seed discipline as every simulated experiment.
	plan, err := NewNetwork(NetworkOptions{
		Nodes:     opts.Nodes,
		Topology:  opts.Topology,
		MaxDegree: opts.MaxDegree,
		Seed:      opts.Seed,
	})
	if err != nil {
		return nil, err
	}

	rep, err := cluster.Run(cluster.Config{
		Plan:       plan.net.Graph(),
		MaxDeg:     plan.net.MaxDegree(),
		Estimators: descs,
		Seed:       opts.Seed,
		Samples:    opts.Samples,
		Logf:       opts.Logf,
	})
	if err != nil {
		return nil, err
	}

	out := &ClusterReport{Nodes: rep.Nodes, Tolerance: rep.Tolerance}
	for _, f := range rep.Families {
		out.Families = append(out.Families, ClusterFamily{
			Name:     f.Name,
			Live:     f.Live,
			Sim:      f.Sim,
			Messages: f.Messages,
		})
	}
	return out, nil
}

// clusterRoster resolves estimator selectors for the live runtime (none
// = the default roster); a snapshot-based family is an error the caller
// should see.
func clusterRoster(names []string) ([]registry.Descriptor, error) {
	descs, err := registry.Resolve(names)
	if err != nil {
		return nil, err
	}
	for _, d := range descs {
		if d.Snapshot {
			return nil, fmt.Errorf("p2psize: estimator %q cannot run over a live transport (snapshot-based)", d.Name)
		}
	}
	return descs, nil
}
