// Quickstart: load a netlist, analyze its soft error rate, retime it with
// MinObsWin and compare. Run from the repository root:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"serretime"
)

func main() {
	// Load the classic ISCAS89 s27 benchmark.
	d, err := serretime.Load("testdata/s27.bench")
	if err != nil {
		log.Fatal(err)
	}
	st, err := d.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %s: %d gates, %d flip-flops, depth %d\n",
		d.Name(), st.Gates, st.FFs, st.Depth)

	// SER of the unretimed circuit at its natural clock period.
	before, err := d.Analyze(0, serretime.AnalysisOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original SER %.3e (gates %.2e + registers %.2e) at phi=%.3g\n",
		before.SER, before.GateSER, before.RegisterSER, before.Phi)

	// Retime for minimum register observability under ELW constraints
	// (the paper's MinObsWin), verifying sequential equivalence of the
	// optimizer's move.
	res, err := d.Retime(serretime.RetimeOptions{
		Algorithm: serretime.MinObsWin,
		Verify:    true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retimed at phi=%.3g (Rmin=%.3g, setup+hold ok: %v)\n",
		res.Phi, res.Rmin, res.SetupHoldOK)
	fmt.Printf("SER %.3e -> %.3e (%+.1f%%), flip-flops %d -> %d\n",
		res.Before.SER, res.After.SER, res.DeltaSER(),
		res.Before.SharedFFs, res.After.SharedFFs)

	// The retimed circuit is a plain netlist again.
	rst, _ := res.Retimed.Stats()
	fmt.Printf("retimed netlist: %d gates, %d flip-flops\n", rst.Gates, rst.FFs)
}
