// Quickstart: build an overlay, run all three size estimators once, and
// compare their accuracy and message cost — the library's core loop.
package main

import (
	"fmt"
	"log"

	"p2psize"
)

func main() {
	// A 20,000-peer unstructured overlay: every node knows a random set
	// of at most 10 neighbors (average ≈ 7.2), like the paper's test
	// networks. The seed makes the run reproducible.
	net, err := p2psize.NewNetwork(p2psize.NetworkOptions{Nodes: 20000, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("overlay: %d peers, avg degree %.1f\n\n", net.Size(), net.AvgDegree())

	// Every estimator is built from the registry by name, from one
	// configuration type.
	for _, c := range []struct {
		name string
		cfg  p2psize.EstimatorConfig
	}{
		// Random walks + inverted birthday paradox: cheap, tunable via l.
		{"samplecollide", p2psize.EstimatorConfig{SCL: 200, Seed: 1}},
		// Gossip a poll, count distance-weighted probabilistic replies.
		{"hopssampling", p2psize.EstimatorConfig{Seed: 2}},
		// Epidemic push-pull averaging: near exact after ~50 rounds.
		{"aggregation", p2psize.EstimatorConfig{Rounds: 50, Seed: 3}},
	} {
		est, err := p2psize.NewEstimatorByName(c.name, c.cfg, nil)
		if err != nil {
			log.Fatal(err)
		}
		net.ResetMessages()
		size, err := est.Estimate(net)
		if err != nil {
			log.Fatalf("%s: %v", est.Name(), err)
		}
		errPct := 100 * (size/float64(net.Size()) - 1)
		fmt.Printf("%-28s estimate %8.0f  error %+6.1f%%  cost %9d messages\n",
			est.Name(), size, errPct, net.Messages())
	}
}
