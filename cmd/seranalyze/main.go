// Command seranalyze evaluates the soft error rate of a netlist (ISCAS89
// .bench, or BLIF when the file ends in .blif) per
// eq. (4) of Lu & Zhou (DATE 2013): signature-based observability with
// n-time-frame expansion (logic masking) combined with error-latching
// window analysis (timing masking) and a synthetic per-gate raw upset
// characterization.
//
// Usage:
//
//	seranalyze -in s27.bench [-phi 0] [-frames 15] [-words 4] [-seed 1]
//	seranalyze -trace PATH [-top 10]
//
// With -phi 0 the combinational critical path is used as the clock period.
// With -trace, trace documents are reported instead of analyzing a
// netlist. PATH is a file of one document per line (serbench -trace,
// with or without -serve) or a directory of one document per file (a
// serretimed data dir's traces/). The report is fleet-wide — queue-wait
// vs. solve-time percentiles, tier-fallback frequency, the cross-run
// phase-time breakdown, counter totals and gauge maxima, and the slowest
// runs by trace ID — followed by the per-run phase table of each of the
// -top slowest runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"serretime"
	"serretime/internal/telemetry"
)

func main() {
	var (
		in     = flag.String("in", "", "input .bench netlist (required unless -trace)")
		phi    = flag.Float64("phi", 0, "clock period (0 = critical path)")
		frames = flag.Int("frames", 15, "time-frame expansion depth n")
		words  = flag.Int("words", 4, "signature width in 64-bit words")
		seed   = flag.Int64("seed", 1, "simulation seed")
		top    = flag.Int("top", 0, "also list the top-N SER contributors; with -trace, the N slowest runs (default 10)")
		trace  = flag.String("trace", "", "report trace documents: a file of one per line (serbench -trace) or a serretimed traces/ directory")
	)
	flag.Parse()
	if *trace != "" {
		if err := fleetReport(os.Stdout, *trace, *top); err != nil {
			fatal(err)
		}
		return
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "seranalyze: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	d, err := serretime.Load(*in)
	if err != nil {
		fatal(err)
	}
	st, err := d.Stats()
	if err != nil {
		fatal(err)
	}
	an, err := d.Analyze(*phi, serretime.AnalysisOptions{
		Frames: *frames, SignatureWords: *words, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("circuit        %s\n", d.Name())
	fmt.Printf("inputs/outputs %d / %d\n", st.PIs, st.POs)
	fmt.Printf("gates          %d (depth %d)\n", st.Gates, st.Depth)
	fmt.Printf("flip-flops     %d\n", st.FFs)
	fmt.Printf("graph          |V|=%d |E|=%d\n", st.Vertices, st.Edges)
	fmt.Printf("clock period   %.4g\n", an.Phi)
	fmt.Printf("SER            %.4e\n", an.SER)
	fmt.Printf("  gate term    %.4e (%.1f%%)\n", an.GateSER, pct(an.GateSER, an.SER))
	fmt.Printf("  register term %.4e (%.1f%%)\n", an.RegisterSER, pct(an.RegisterSER, an.SER))
	fmt.Printf("register obs   %.4g over %d registers\n", an.RegisterObs, an.Registers)
	if *top > 0 {
		crit, err := d.CriticalElements(*phi, *top, serretime.AnalysisOptions{
			Frames: *frames, SignatureWords: *words, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\ntop %d contributors:\n", len(crit))
		fmt.Printf("%-24s %-9s %10s %7s %7s %8s\n", "element", "kind", "SER", "share", "obs", "|ELW|")
		for _, c := range crit {
			fmt.Printf("%-24s %-9s %10.3e %6.1f%% %7.3f %8.3g\n",
				c.Name, c.Kind, c.SER, 100*c.Share, c.Obs, c.Window)
		}
	}
}

// fleetReport aggregates trace documents into the fleet report and the
// per-run phase tables of the top slowest runs.
func fleetReport(w io.Writer, path string, top int) error {
	docs, skipped, err := telemetry.LoadTraceDocs(path)
	if err != nil {
		return err
	}
	if len(docs) == 0 {
		return fmt.Errorf("%s: no trace documents", path)
	}
	if skipped > 0 {
		fmt.Fprintf(w, "seranalyze: %d undecodable trace document(s) skipped\n", skipped)
	}
	return telemetry.AggregateTraces(docs).WriteReport(w, top)
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seranalyze:", err)
	os.Exit(1)
}
