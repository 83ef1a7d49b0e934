// Sweep: explore Sample&Collide's accuracy/overhead trade-off by varying
// the collision parameter l — the flexibility §V of the paper highlights
// ("a strength of this algorithm is to adapt to the application
// performance needs by simply modifying one parameter").
//
// Expect cost to grow like sqrt(l) while relative error shrinks like
// 1/sqrt(l): l=10 is a cheap rough estimate (paper Fig 18), l=200 the
// paper's accurate setting, l=1000 competes with Aggregation.
package main

import (
	"fmt"
	"log"
	"math"

	"p2psize"
)

func main() {
	const nodes = 20000
	const runsPerL = 8

	fmt.Printf("Sample&Collide accuracy/overhead trade-off on %d peers (%d runs each)\n\n", nodes, runsPerL)
	fmt.Printf("%6s %12s %12s %14s %16s\n", "l", "mean est", "stddev %", "mean |err| %", "msgs/estimation")

	for _, l := range []int{10, 50, 200, 1000} {
		net, err := p2psize.NewNetwork(p2psize.NetworkOptions{Nodes: nodes, Seed: 21})
		if err != nil {
			log.Fatal(err)
		}
		// The paper's X²/(2l) formula assumes X = sqrt(2lN) << N; at
		// l=1000 on 20k peers that no longer holds and the basic
		// estimator reads a few percent high, so the sweep switches to
		// the exact-likelihood (MLE) refinement there.
		useMLE := l >= 1000
		est, err := p2psize.NewEstimatorByName("samplecollide", p2psize.EstimatorConfig{
			SCL: l, SCMLE: useMLE, Seed: uint64(l),
		}, nil)
		if err != nil {
			log.Fatal(err)
		}
		vals, err := p2psize.RunRepeated(est, net, runsPerL)
		if err != nil {
			log.Fatal(err)
		}
		var sum, sumSq, sumAbs float64
		for _, v := range vals {
			sum += v
			sumSq += v * v
			sumAbs += math.Abs(v/nodes-1) * 100
		}
		mean := sum / runsPerL
		sd := math.Sqrt(math.Max(0, sumSq/runsPerL-mean*mean))
		label := fmt.Sprintf("%d", l)
		if useMLE {
			label += "*"
		}
		fmt.Printf("%6s %12.0f %12.1f %14.1f %16.0f\n",
			label, mean, 100*sd/mean, sumAbs/runsPerL, float64(net.Messages())/runsPerL)
	}
	fmt.Println("     (* = MLE refinement; the basic X²/2l estimator saturates when l is large relative to N)")

	fmt.Println("\nreference: the other two algorithms at their paper settings")
	for _, c := range []struct {
		name string
		cfg  p2psize.EstimatorConfig
	}{
		{"hopssampling", p2psize.EstimatorConfig{Seed: 31}},
		{"aggregation", p2psize.EstimatorConfig{Rounds: 50, Seed: 32}},
	} {
		est, err := p2psize.NewEstimatorByName(c.name, c.cfg, nil)
		if err != nil {
			log.Fatal(err)
		}
		net, err := p2psize.NewNetwork(p2psize.NetworkOptions{Nodes: nodes, Seed: 21})
		if err != nil {
			log.Fatal(err)
		}
		vals, err := p2psize.RunRepeated(est, net, 3)
		if err != nil {
			log.Fatal(err)
		}
		var sumAbs float64
		for _, v := range vals {
			sumAbs += math.Abs(v/nodes-1) * 100
		}
		fmt.Printf("%30s: mean |err| %5.1f%%, %8.0f msgs/estimation\n",
			est.Name(), sumAbs/float64(len(vals)), float64(net.Messages())/float64(len(vals)))
	}
}
