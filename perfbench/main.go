// Command perfbench is serretime's end-to-end benchmark. It runs one of
// three closed-loop workloads against the program built from the same
// checkout, checks every operation's output against an oracle, and
// prints one JSON line of metrics:
//
//	solve  in-process Parse + RetimeRobust of the Table I substitutes
//	serve  HTTP submit → poll → result against an in-process serretimed
//	eco    delta cycles over the serretimed session API on par6000
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	sh perfbench/run.sh --workload solve --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs half the time
// untraced and half with the benchmark's own recorder attached and
// reports the per-layer metrics. `perfbench pin` re-records the result
// digests the oracle compares against (digests.json). README.md has the
// design and the steadiness record.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "worker":
			return workerMain(args[1:], stdout, stderr)
		case "pin":
			return pinMain(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "solve, serve or eco")
	seed := fs.Int64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	root := fs.String("root", ".", "repository checkout the benchmark reads its base netlist from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	res, err := drive(*root, *workload, *seed, *seconds, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// pinMain records the oracle's digests from the program as it stands
// and writes them to digests.json in the benchmark's directory. Run it
// only on a commit whose results are known good.
func pinMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench pin", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository checkout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p, err := recordPins(context.Background(), *root)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench pin: %v\n", err)
		return 1
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench pin: %v\n", err)
		return 1
	}
	path := filepath.Join(*root, "perfbench", "digests.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintf(stderr, "perfbench pin: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench pin: wrote %s\n", path)
	return 0
}

// recordPins solves every pinned input with the library: the Table I
// substitutes at both workload scales, the eco base netlist, and the
// default seed's delta cycle, cold.
func recordPins(ctx context.Context, root string) (*pins, error) {
	p := &pins{Solve: map[string]string{}, Serve: map[string]string{}}
	for _, sc := range []struct {
		gateCap int
		dst     map[string]string
	}{{solveGateCap, p.Solve}, {serveGateCap, p.Serve}} {
		all, err := renderTableI(sc.gateCap)
		if err != nil {
			return nil, err
		}
		digests := make([]string, len(all))
		err = parallel(len(all), func(i int) error {
			_, out, _, err := solveNetlist(ctx, all[i], solveOptions(nil))
			digests[i] = digest(out)
			return err
		})
		if err != nil {
			return nil, err
		}
		for i, n := range all {
			sc.dst[n.Name] = digests[i]
		}
	}
	base, _, mirrors, err := ecoCycleFor(root, defaultSeed)
	if err != nil {
		return nil, err
	}
	all := append([][]byte{base}, mirrors...)
	digests := make([]string, len(all))
	err = parallel(len(all), func(i int) error {
		_, out, _, err := solveNetlist(ctx, netlist{Name: "eco", Bench: all[i]}, ecoOptions())
		digests[i] = digest(out)
		return err
	})
	if err != nil {
		return nil, err
	}
	p.EcoOpen, p.EcoDefaultSeed = digests[0], digests[1:]
	return p, nil
}
