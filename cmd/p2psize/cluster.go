package main

// Live-cluster mode (-cluster / -cluster-addrs): run the estimators over
// real UDP sockets against node daemons, cross-validating every live
// estimate with a simulated run on the identical topology. A run whose
// divergence exceeds the tolerance exits nonzero — the CI smoke job's
// assertion.

import (
	"fmt"
	"os"
	"strings"

	"p2psize"
)

type clusterOpts struct {
	nodes     int
	addrSpec  string
	topo      p2psize.Topology
	maxDeg    int
	estSel    string
	runs      int
	seed      uint64
	tolerance float64
	teardown  bool
}

// parseAddrSpec resolves -cluster-addrs: a comma-separated address list,
// or @FILE naming a file with one address per line (how scripts collect
// the daemons' ephemeral ports).
func parseAddrSpec(spec string) ([]string, error) {
	if spec == "" {
		return nil, nil
	}
	if rest, ok := strings.CutPrefix(spec, "@"); ok {
		data, err := os.ReadFile(rest)
		if err != nil {
			return nil, fmt.Errorf("-cluster-addrs: %w", err)
		}
		spec = strings.ReplaceAll(string(data), "\n", ",")
	}
	var addrs []string
	for _, a := range strings.Split(spec, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("-cluster-addrs: no addresses in %q", spec)
	}
	return addrs, nil
}

// clusterOptions turns the flags into the library's options.
func clusterOptions(o clusterOpts) (p2psize.ClusterOptions, error) {
	addrs, err := parseAddrSpec(o.addrSpec)
	if err != nil {
		return p2psize.ClusterOptions{}, err
	}
	if len(addrs) > 0 && o.nodes > 0 && o.nodes != len(addrs) {
		return p2psize.ClusterOptions{}, fmt.Errorf("-cluster %d contradicts the %d addresses in -cluster-addrs; drop one flag", o.nodes, len(addrs))
	}
	return p2psize.ClusterOptions{
		Nodes:      o.nodes,
		Addrs:      addrs,
		Topology:   o.topo,
		MaxDegree:  o.maxDeg,
		Seed:       o.seed,
		Estimators: estimatorNames(o.estSel),
		Samples:    o.runs,
		Tolerance:  o.tolerance,
		Teardown:   o.teardown,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}, nil
}

func runCluster(opts p2psize.ClusterOptions) error {
	rep, err := p2psize.RunCluster(opts)
	if err != nil {
		return err
	}

	fmt.Printf("\nlive cluster of %d daemons, tolerance %.2g:\n", rep.Nodes, rep.Tolerance)
	fmt.Printf("%-18s %14s %14s %12s %10s\n", "family", "live mean", "sim mean", "divergence", "messages")
	for _, f := range rep.Families {
		fmt.Printf("%-18s %14.1f %14.1f %12.3g %10d\n",
			f.Name, mean(f.Live), mean(f.Sim), f.MaxDivergence, f.Messages)
	}
	perDatagram := 0.0
	if rep.Datagrams > 0 {
		perDatagram = float64(rep.Delivered) / float64(rep.Datagrams)
	}
	fmt.Printf("transport: %d messages in %d datagrams (%.1f per datagram); daemons absorbed %d\n",
		rep.Delivered, rep.Datagrams, perDatagram, rep.Received)
	if rep.Departed > 0 {
		fmt.Printf("%d daemons departed during the run\n", rep.Departed)
	}
	if !rep.WithinTolerance {
		return fmt.Errorf("live estimates diverged from the simulated run beyond tolerance %.2g", rep.Tolerance)
	}
	fmt.Println("live and simulated runs agree within tolerance")
	return nil
}

// estimatorNames turns the -estimators spec into a name list for the
// public cluster API ("", "default" and "all" pass through as roster
// selectors, which silently keep only transport-capable families).
func estimatorNames(sel string) []string {
	sel = strings.TrimSpace(sel)
	switch strings.ToLower(sel) {
	case "", "default":
		return nil
	case "all":
		var names []string
		for _, in := range p2psize.Estimators() {
			if in.SupportsTransport {
				names = append(names, in.Name)
			}
		}
		return names
	}
	var names []string
	for _, f := range strings.Split(sel, ",") {
		if f = strings.TrimSpace(f); f != "" {
			names = append(names, f)
		}
	}
	return names
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
