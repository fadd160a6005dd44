// Command sergen synthesizes a sequential benchmark circuit with
// prescribed statistics and writes it in ISCAS89 .bench format. It either
// takes explicit statistics or the name of one of the paper's Table I
// circuits (whose published |V|, |E|, #FF and clock-period regime it
// reproduces — see DESIGN.md §4 for the substitution rationale).
//
// Usage:
//
//	sergen -table s13207 [-scale 1] -out s13207.bench
//	sergen -preset par100k -out par100k.bench
//	sergen -gates 5000 -conns 11000 -ffs 1200 [-depth 40] -out custom.bench
//
// The -out file is replaced atomically: a failed run leaves the previous
// file, never a torn netlist.
package main

import (
	"flag"
	"fmt"
	"os"

	"serretime"
	"serretime/internal/faultfs"
	"serretime/internal/gen"
)

func main() {
	var (
		table  = flag.String("table", "", "Table I circuit name (overrides explicit statistics)")
		preset = flag.String("preset", "", "named benchmark preset (par50k, par100k): the circuits the repo's benchmarks generate on demand")
		scale  = flag.Int("scale", 1, "shrink factor for -table")
		gates  = flag.Int("gates", 0, "gate count")
		conns  = flag.Int("conns", 0, "connection count")
		ffs    = flag.Int("ffs", 0, "flip-flop count")
		depth  = flag.Int("depth", 0, "target logic depth (0 = derived)")
		seed   = flag.Int64("seed", 0, "generator seed (0 = derive from name)")
		name   = flag.String("name", "synth", "design name for explicit statistics")
		out    = flag.String("out", "", "output .bench path (default: stdout)")
		list   = flag.Bool("list", false, "list the Table I circuit names and exit")
	)
	flag.Parse()

	if *list {
		for _, n := range serretime.TableICircuits() {
			fmt.Println(n)
		}
		return
	}
	var d *serretime.Design
	var err error
	if *table != "" {
		d, err = serretime.NewTableIDesign(*table, *scale)
	} else if *preset != "" {
		var spec gen.Spec
		if spec, err = gen.Preset(*preset); err == nil {
			d, err = serretime.Synthesize(serretime.CircuitSpec{
				Name: spec.Name, Gates: spec.Gates, Conns: spec.Conns,
				FFs: spec.FFs, Depth: spec.Depth,
			})
		}
	} else {
		d, err = serretime.Synthesize(serretime.CircuitSpec{
			Name: *name, Gates: *gates, Conns: *conns, FFs: *ffs,
			Depth: *depth, Seed: *seed,
		})
	}
	if err != nil {
		fatal(err)
	}
	st := d.Stats()
	fmt.Fprintf(os.Stderr, "sergen: %s: |V|=%d |E|=%d #FF=%d PIs=%d POs=%d depth=%d\n",
		d.Name(), st.Vertices, st.Edges, st.FFs, st.PIs, st.POs, st.Depth)
	if *out == "" {
		fmt.Print(d.String())
		return
	}
	if err := faultfs.WriteAtomic(faultfs.OS(), *out, 0o644, false, d.WriteBench); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sergen:", err)
	os.Exit(1)
}
