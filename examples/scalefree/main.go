// Scale-free: run the three estimators on a Barabási–Albert overlay
// whose degree distribution follows a power law (hubs with hundreds of
// links next to degree-3 leaves) — the paper's Fig 7/8 workload.
//
// Expected outcome, as in the paper: Sample&Collide stays unbiased
// (its continuous-time walk cancels the degree bias), Aggregation stays
// accurate, and HopsSampling's under-estimation is amplified.
package main

import (
	"fmt"
	"log"
	"math"

	"p2psize"
)

func main() {
	net, err := p2psize.NewNetwork(p2psize.NetworkOptions{
		Nodes:    20000,
		Topology: p2psize.ScaleFree,
		Seed:     11,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Show the power law: bucket the degree histogram by powers of two.
	degrees, counts := net.DegreeCounts()
	fmt.Printf("scale-free overlay: %d peers, avg degree %.1f, hub degree %d\n",
		net.Size(), net.AvgDegree(), degrees[len(degrees)-1])
	fmt.Println("\ndegree distribution (log buckets):")
	buckets := map[int]int{}
	for i, d := range degrees {
		b := int(math.Log2(float64(d)))
		buckets[b] += counts[i]
	}
	for b := 1; b < 16; b++ {
		if c, ok := buckets[b]; ok {
			fmt.Printf("  degree %5d-%-5d: %6d nodes\n", 1<<b, 1<<(b+1)-1, c)
		}
	}

	fmt.Println("\nestimators on the scale-free topology:")
	for _, c := range []struct {
		name string
		cfg  p2psize.EstimatorConfig
	}{
		{"samplecollide", p2psize.EstimatorConfig{SCL: 200, Seed: 12}},
		{"hopssampling", p2psize.EstimatorConfig{Seed: 13}},
		{"aggregation", p2psize.EstimatorConfig{Rounds: 50, Seed: 14}},
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
		fmt.Printf("  %-28s estimate %8.0f  error %+6.1f%%  cost %9d messages\n",
			est.Name(), size, 100*(size/float64(net.Size())-1), net.Messages())
	}
}
