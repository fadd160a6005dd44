// Command retime reads a netlist (ISCAS89 .bench, BLIF or structural
// Verilog, picked by the .bench, .blif or .v extension in any case),
// retimes it for soft error minimization (or register count), and writes
// the retimed netlist in the format implied by the output extension.
//
// Usage:
//
//	retime -in s27.bench -out s27_retimed.bench [-algo minobswin|minobs|minarea]
//	       [-epsilon 0.10] [-area-weight 0] [-engine closure|forest] [-verify]
//	       [-workers N]
//
// A summary of the run (clock period, Rmin, SER before/after, register
// counts, iterations) is printed to standard output. Without -out the
// retimed netlist goes to standard output in .bench syntax and the
// summary to standard error, so the netlist can be redirected to a file.
// The -out file is replaced atomically: a failed run leaves the previous
// file, never a torn netlist.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"serretime"
	"serretime/internal/faultfs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, retimes the input,
// prints the summary and writes the netlist, and returns the process exit
// code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("retime", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in         = fs.String("in", "", "input netlist: .bench, .blif or .v (required)")
		out        = fs.String("out", "", "output netlist: .bench, .blif or .v (default: .bench on stdout)")
		algo       = fs.String("algo", "minobswin", "objective: minobswin, minobs or minarea")
		epsilon    = fs.Float64("epsilon", 0.10, "clock period relaxation over the minimum")
		areaWeight = fs.Float64("area-weight", 0, "lambda for the area-weighted objective (Section VII extension)")
		engine     = fs.String("engine", "closure", "optimizer engine: closure or forest")
		verify     = fs.Bool("verify", false, "co-simulate the optimizer move for sequential equivalence")
		frames     = fs.Int("frames", 15, "time-frame expansion depth")
		words      = fs.Int("words", 4, "signature width in 64-bit words")
		seed       = fs.Int64("seed", 1, "simulation seed")
		workers    = fs.Int("workers", 0, "CPU workers for the parallel analyses (0 = one per CPU, 1 = sequential); results are identical for every value")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *in == "" {
		fmt.Fprintln(stderr, "retime: -in is required")
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "retime:", err)
		return 1
	}
	format := serretime.FormatBench
	if *out != "" {
		var err error
		if format, err = serretime.FormatOf(*out); err != nil {
			return fail(err)
		}
	}
	d, err := serretime.Load(*in)
	if err != nil {
		return fail(err)
	}
	opt := serretime.RetimeOptions{
		Epsilon:    *epsilon,
		AreaWeight: *areaWeight,
		Verify:     *verify,
		Analysis:   serretime.AnalysisOptions{Frames: *frames, SignatureWords: *words, Seed: *seed},
		Workers:    *workers,
	}
	switch *algo {
	case "minobswin":
		opt.Algorithm = serretime.MinObsWin
	case "minobs":
		opt.Algorithm = serretime.MinObs
	case "minarea":
		opt.Algorithm = serretime.MinArea
	default:
		return fail(fmt.Errorf("unknown -algo %q", *algo))
	}
	switch *engine {
	case "closure":
	case "forest":
		opt.Engine = serretime.EngineForest
	default:
		return fail(fmt.Errorf("unknown -engine %q", *engine))
	}

	res, err := d.Retime(opt)
	if err != nil {
		return fail(err)
	}
	report := stdout
	if *out == "" {
		report = stderr
	}
	st := d.Stats()
	fmt.Fprintf(report, "circuit      %s (|V|=%d |E|=%d #FF=%d depth=%d)\n",
		d.Name(), st.Vertices, st.Edges, st.FFs, st.Depth)
	fmt.Fprintf(report, "algorithm    %v (engine %s)\n", res.Algorithm, *engine)
	fmt.Fprintf(report, "clock        phi=%.3g (min %.3g, epsilon %.0f%%), Rmin=%.3g, setup+hold init: %v\n",
		res.Phi, res.PhiMin, *epsilon*100, res.Rmin, res.SetupHoldOK)
	fmt.Fprintf(report, "SER          %.4e -> %.4e  (%+.2f%%)\n", res.Before.SER, res.After.SER, res.DeltaSER())
	fmt.Fprintf(report, "             gates %.3e -> %.3e, registers %.3e -> %.3e\n",
		res.Before.GateSER, res.After.GateSER, res.Before.RegisterSER, res.After.RegisterSER)
	fmt.Fprintf(report, "register obs %.4g -> %.4g\n", res.Before.RegisterObs, res.After.RegisterObs)
	fmt.Fprintf(report, "flip-flops   %d -> %d  (%+.2f%%)\n", res.Before.SharedFFs, res.After.SharedFFs, res.DeltaFF())
	fmt.Fprintf(report, "optimizer    %d rounds, %d steps, %v\n", res.Rounds, res.Steps, res.Runtime)
	if *verify {
		fmt.Fprintln(report, "equivalence  verified (exact state transport + co-simulation)")
	}

	write := res.Retimed.WriteBench
	switch format {
	case serretime.FormatBLIF:
		write = res.Retimed.WriteBLIF
	case serretime.FormatVerilog:
		write = res.Retimed.WriteVerilog
	}
	if *out == "" {
		if err := write(stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if err := faultfs.WriteAtomic(faultfs.OS(), *out, 0o644, false, write); err != nil {
		return fail(err)
	}
	fmt.Fprintf(report, "wrote        %s\n", *out)
	return 0
}
