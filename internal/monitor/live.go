package monitor

// Live-cluster monitoring: the same loop as RunScheduled, but driven
// against ONE shared overlay whose membership is owned by node daemons
// rather than a replayed trace. Its one caller is internal/cluster's
// coordinator (p2psize.RunCluster), whose daemons run in the same
// process on loopback UDP sockets. There is no clone — the overlay
// mirrors the cluster, so all instances must observe the same
// membership at the same tick and interleave on a single timeline. The
// Timeline reconciles daemon liveness into the overlay ahead of every
// tick (the coordinator pings every daemon and Leaves the ones that
// stopped answering; tests can script departures); with a nil one the
// membership is static and RunLive on a transport-free overlay is the
// simulated oracle the coordinator cross-validates the live run against
// (identical estimator seeds then give bit-equal raw estimates, because
// the transport seam never feeds back into estimator arithmetic).

import (
	"fmt"
	"math"

	"p2psize/internal/overlay"
)

// RunLive samples every instance on its own cadence against the shared
// live overlay up to the horizon, on one goroutine: src (nil = static
// membership) advances net itself, and the instances due at a tick then
// estimate in instance order, each on its own net.View() — which
// inherits the overlay's transport, if any, so every metered send still
// reaches the daemons, and whose counter is the instance's Messages.
func RunLive(instances []Instance, net *overlay.Network, src Timeline, horizon float64, cfg Config) (*Result, error) {
	if !(horizon > 0) || math.IsInf(horizon, 1) {
		return nil, fmt.Errorf("monitor: live horizon %g must be positive and finite", horizon)
	}
	// A live overlay is one real deployment, not a replayable
	// simulation: it is its own trunk, and no groups are counted.
	return sample(instances, cfg, horizon, net, net, src, 1)
}
