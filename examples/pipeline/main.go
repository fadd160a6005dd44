// Pipeline: a domain scenario from the paper's motivation — a synthetic
// pipelined datapath whose registers sit where a performance-driven tool
// left them; soft-error-aware retiming relocates them to less observable
// nets without touching the clock period, and the three objectives
// (MinObs, MinObsWin, MinArea) are compared head to head.
//
// Run from the repository root:
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"

	"serretime"
)

func main() {
	// A mid-size synthetic design in the regime of the paper's b14:
	// ~2000 gates, deep pipeline, plenty of state.
	d, err := serretime.Synthesize(serretime.CircuitSpec{
		Name:  "pipeline-demo",
		Gates: 2000, Conns: 4400, FFs: 600, Depth: 40,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := d.Stats()
	fmt.Printf("design %s: %d gates, %d FFs, depth %d, |E|=%d\n\n",
		d.Name(), st.Gates, st.FFs, st.Depth, st.Edges)

	type outcome struct {
		name string
		res  *serretime.RetimeResult
	}
	var outs []outcome
	for _, alg := range []serretime.Algorithm{serretime.MinObs, serretime.MinObsWin, serretime.MinArea} {
		res, err := d.Retime(serretime.RetimeOptions{Algorithm: alg, Verify: true})
		if err != nil {
			log.Fatal(err)
		}
		outs = append(outs, outcome{alg.String(), res})
	}

	fmt.Printf("%-10s %12s %12s %9s %8s %8s %7s\n",
		"objective", "SER before", "SER after", "dSER", "FFs", "dFF", "rounds")
	for _, o := range outs {
		fmt.Printf("%-10s %12.4e %12.4e %+8.2f%% %8d %+7.2f%% %7d\n",
			o.name, o.res.Before.SER, o.res.After.SER, o.res.DeltaSER(),
			o.res.After.SharedFFs, o.res.DeltaFF(), o.res.Rounds)
	}
	fmt.Println()
	fmt.Printf("clock period %.4g (minimum %.4g, setup+hold init: %v), Rmin %.4g\n",
		outs[0].res.Phi, outs[0].res.PhiMin, outs[0].res.SetupHoldOK, outs[0].res.Rmin)
	fmt.Println("every optimizer move was verified sequentially equivalent")
}
