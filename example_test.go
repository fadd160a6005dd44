package serretime_test

import (
	"fmt"
	"log"

	"serretime"
	"serretime/internal/telemetry"
)

// ExampleLoad loads a netlist, picking the format from its extension,
// and prints its statistics.
func ExampleLoad() {
	d, err := serretime.Load("testdata/s27.bench")
	if err != nil {
		log.Fatal(err)
	}
	st, err := d.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d gates, %d flip-flops, %d inputs, %d outputs\n",
		d.Name(), st.Gates, st.FFs, st.PIs, st.POs)
	// Output:
	// s27: 10 gates, 3 flip-flops, 4 inputs, 1 outputs
}

// ExampleDesign_Analyze evaluates eq. (4) of the paper on a netlist.
func ExampleDesign_Analyze() {
	d, err := serretime.Load("testdata/s27.bench")
	if err != nil {
		log.Fatal(err)
	}
	an, err := d.Analyze(20, serretime.AnalysisOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phi=%g registers=%d\n", an.Phi, an.SharedFFs)
	fmt.Printf("SER positive: %v, register term positive: %v\n",
		an.SER > 0, an.RegisterSER > 0)
	// Output:
	// phi=20 registers=3
	// SER positive: true, register term positive: true
}

// ExampleDesign_Retime runs the paper's MinObsWin pipeline end to end and
// verifies the optimizer move's sequential equivalence.
func ExampleDesign_Retime() {
	d, err := serretime.Load("testdata/pipeline4.bench")
	if err != nil {
		log.Fatal(err)
	}
	res, err := d.Retime(serretime.RetimeOptions{
		Algorithm: serretime.MinObsWin,
		Verify:    true,
	})
	if err != nil {
		log.Fatal(err)
	}
	st, _ := res.Retimed.Stats()
	fmt.Printf("algorithm: %v\n", res.Algorithm)
	fmt.Printf("retimed gates: %d\n", st.Gates)
	fmt.Printf("objective never worsens: %v\n",
		res.After.RegisterObs <= res.Before.RegisterObs+1e-9)
	// Output:
	// algorithm: MinObsWin
	// retimed gates: 8
	// objective never worsens: true
}

// ExampleDesign_Retime_telemetry records a retiming run into a trace and
// folds its document into the phase/counter summary.
func ExampleDesign_Retime_telemetry() {
	d, err := serretime.Load("testdata/pipeline4.bench")
	if err != nil {
		log.Fatal(err)
	}
	tr := telemetry.NewTrace(telemetry.TraceID{})
	res, err := d.Retime(serretime.RetimeOptions{
		Algorithm: serretime.MinObsWin,
		Recorder:  tr,
	})
	if err != nil {
		log.Fatal(err)
	}
	tr.Finish()
	stats := telemetry.Fold(tr.Doc("", d.Name(), "done", "", false))
	fmt.Printf("init observed: %v\n", stats.Observed(telemetry.PhaseInit))
	fmt.Printf("minimize observed: %v\n", stats.Observed(telemetry.PhaseMinimize))
	fmt.Printf("steps counted: %v\n", stats.Counter(telemetry.CounterSteps) >= int64(res.Steps))
	fmt.Printf("commits == rounds: %v\n", stats.Counter(telemetry.CounterCommits) == int64(res.Rounds))
	// Output:
	// init observed: true
	// minimize observed: true
	// steps counted: true
	// commits == rounds: true
}

// ExampleSynthesize generates a seeded benchmark-like circuit.
func ExampleSynthesize() {
	d, err := serretime.Synthesize(serretime.CircuitSpec{
		Name:  "example",
		Gates: 100, Conns: 220, FFs: 25,
	})
	if err != nil {
		log.Fatal(err)
	}
	st, _ := d.Stats()
	fmt.Printf("gates=%d ffs=%d\n", st.Gates, st.FFs)
	// Output:
	// gates=100 ffs=25
}
