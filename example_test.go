package p2psize_test

import (
	"fmt"
	"log"
	"slices"

	"p2psize"
)

// The basic loop: build an overlay, estimate its size, read the cost.
func ExampleNewNetwork() {
	net, err := p2psize.NewNetwork(p2psize.NetworkOptions{Nodes: 5000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("peers: %d\n", net.Size())
	fmt.Printf("connected: %v\n", net.IsConnected())
	// Output:
	// peers: 5000
	// connected: true
}

// Estimators are built from the registry by name. Aggregation converges
// to the exact size, at N·rounds·2 message cost.
func ExampleNewEstimatorByName() {
	net, err := p2psize.NewNetwork(p2psize.NetworkOptions{Nodes: 2000, Seed: 4})
	if err != nil {
		log.Fatal(err)
	}
	est, err := p2psize.NewEstimatorByName("aggregation", p2psize.EstimatorConfig{Rounds: 50, Seed: 5}, nil)
	if err != nil {
		log.Fatal(err)
	}
	size, err := est.Estimate(net)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimate %.0f of %d peers\n", size, net.Size())
	fmt.Printf("messages: %d (= N·rounds·2)\n", net.Messages())
	// Output:
	// estimate 2000 of 2000 peers
	// messages: 200000 (= N·rounds·2)
}

// The lastKruns heuristic smooths noisy one-shot estimators.
func ExampleSmoothLastK() {
	net, err := p2psize.NewNetwork(p2psize.NetworkOptions{Nodes: 3000, Seed: 6})
	if err != nil {
		log.Fatal(err)
	}
	est, err := p2psize.NewEstimatorByName("samplecollide", p2psize.EstimatorConfig{SCL: 50, Seed: 7}, nil)
	if err != nil {
		log.Fatal(err)
	}
	raw, err := p2psize.RunRepeated(est, net, 10)
	if err != nil {
		log.Fatal(err)
	}
	smooth := p2psize.SmoothLastK(raw, 10)
	fmt.Printf("raw estimates: %.0f to %.0f\n", slices.Min(raw), slices.Max(raw))
	fmt.Printf("last10runs: %.0f of %d peers\n", smooth[len(smooth)-1], net.Size())
	// Output:
	// raw estimates: 2905 to 4007
	// last10runs: 3264 of 3000 peers
}

// The paper's dynamic scenarios are traces replayed by RunMonitor.
// Here a quarter of the peers fail at once (§IV-D's catastrophic
// failure) under an otherwise quiet trace, and Aggregation, sampled
// every 25 time units, follows the drop.
func ExampleTrace_AddMassFailure() {
	net, err := p2psize.NewNetwork(p2psize.NetworkOptions{Nodes: 1000, Seed: 8})
	if err != nil {
		log.Fatal(err)
	}
	// Sessions far longer than the horizon: no background churn.
	tr, err := p2psize.GenerateTrace(p2psize.TraceOptions{Nodes: 1000, Horizon: 100, MeanSession: 1e9, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.AddMassFailure(40, 0.25, 10); err != nil {
		log.Fatal(err)
	}
	est, err := p2psize.NewEstimatorByName("aggregation", p2psize.EstimatorConfig{Seed: 11}, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := p2psize.RunMonitor(net, tr, []p2psize.Estimator{est}, p2psize.MonitorOptions{Cadence: 25})
	if err != nil {
		log.Fatal(err)
	}
	for i, t := range res.Times() {
		fmt.Printf("t=%3.0f  true %4.0f  estimate %4.0f\n", t, res.TrueSizes()[i], res.Estimates(0)[i])
	}
	fmt.Printf("the network still holds %d peers\n", net.Size())
	// Output:
	// t= 25  true 1000  estimate 1000
	// t= 50  true  750  estimate  746
	// t= 75  true  750  estimate  746
	// t=100  true  750  estimate  746
	// the network still holds 1000 peers
}
