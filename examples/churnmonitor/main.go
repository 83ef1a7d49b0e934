// Churn monitor: continuously track the size of an overlay under
// realistic churn — heavy-tailed (Weibull) session lengths, a flash
// crowd of short-lived visitors, then a correlated mass failure — using
// the trace and monitor subsystems.
//
// Two identically configured Sample&Collide estimators run side by
// side under different smoothing policies: a plain 10-sample sliding
// window, and the same window with restart-on-shock. The point, visible
// in the output: smoothing buys accuracy in the quiet phases but lags
// brutally after the flash crowd and the failure, while restart-on-shock
// discards the stale window the moment a raw estimate jumps and
// re-converges in one sample. HopsSampling rides along for the paper's
// cross-class comparison, and the tracking table at the end prints the
// monitor's verdict: error, staleness and message budget per estimator.
package main

import (
	"fmt"
	"log"

	"p2psize"
)

func main() {
	const (
		n0      = 20000
		horizon = 600.0
	)

	// A population of 20k peers whose session lengths follow the
	// heavy-tailed Weibull(k=0.5) fit of measured P2P deployments, with
	// stationary arrivals; then a +50% flash crowd of short-stay
	// visitors at t=180 and a -25% mass failure at t=420.
	tr, err := p2psize.GenerateTrace(p2psize.TraceOptions{
		Nodes:    n0,
		Horizon:  horizon,
		Sessions: p2psize.WeibullSessions,
		Seed:     7,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.AddFlashCrowd(180, n0/2, 0, 8); err != nil {
		log.Fatal(err)
	}
	if err := tr.AddMassFailure(420, 0.25, 9); err != nil {
		log.Fatal(err)
	}

	net, err := p2psize.NewNetwork(p2psize.NetworkOptions{Nodes: n0, Seed: 10})
	if err != nil {
		log.Fatal(err)
	}

	run := func(restartJump float64) *p2psize.MonitorResult {
		sc, err := p2psize.NewEstimatorByName("samplecollide", p2psize.EstimatorConfig{SCL: 200, Seed: 11}, nil)
		if err != nil {
			log.Fatal(err)
		}
		hops, err := p2psize.NewEstimatorByName("hopssampling", p2psize.EstimatorConfig{Seed: 12}, nil)
		if err != nil {
			log.Fatal(err)
		}
		res, err := p2psize.RunMonitor(net, tr, []p2psize.Estimator{sc, hops},
			p2psize.MonitorOptions{
				Cadence:     10,
				Policy:      p2psize.WindowSmoothing,
				Window:      10,
				RestartJump: restartJump,
				ReplaySeed:  13,
			})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	smoothed := run(0)    // plain last10runs
	restarted := run(.25) // last10runs + restart-on-shock

	fmt.Printf("%6s %10s %12s %12s   event\n", "time", "true", "last10runs", "+restart")
	times := smoothed.Times()
	for i, t := range times {
		event := ""
		switch t {
		case 180:
			event = "flash crowd: +50% short-stay visitors"
		case 420:
			event = "mass failure: -25%"
		}
		if i%3 == 0 || event != "" {
			fmt.Printf("%6.0f %10.0f %12.0f %12.0f   %s\n",
				t, smoothed.TrueSizes()[i],
				smoothed.Estimates(0)[i], restarted.Estimates(0)[i], event)
		}
	}

	fmt.Printf("\ntrace: %d joins, %d leaves over %g time units\n",
		tr.Joins(), tr.Leaves(), tr.Horizon())
	fmt.Printf("\nwindow(10), no restart:\n%s", smoothed)
	fmt.Printf("\nwindow(10) + restart-on-shock(0.25):\n%s", restarted)
}
