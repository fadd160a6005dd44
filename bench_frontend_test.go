package serretime

// Front-end benchmarks of the analysis engine: the n-time-frame signature
// simulation and the backward ODC observability pass (and, in
// BenchmarkFrontEndFast, the analytical engine) — the phases that dominate
// wall-clock before the optimizer starts.
//
// Sub-benchmark names are structured key=value segments
// (circuit=X/phase=Y/workers=N) so that `cmd/benchjson` can turn the
// output into BENCH_baseline.json entries and `benchstat` can diff
// sequential against sharded runs of the same phase (the CI
// benchmark-compare job). workers=1 is the exact sequential code path;
// outputs are bit-identical for every worker count (see
// TestFrontEndDeterminism* and DESIGN.md §11).

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
	"serretime/internal/gen"
	"serretime/internal/obs"
	"serretime/internal/sim"
)

// frontEndWorkers lists the worker counts benchmarked per phase: the
// sequential baseline, a fixed 2-way split, and the machine width (when it
// differs). SERRETIME_BENCH_WORKERS overrides the list with explicit
// comma-separated counts (e.g. "1,2,4,8" for the EXPERIMENTS.md scaling
// table and the CI benchmark-compare job).
func frontEndWorkers() []int {
	if s := os.Getenv("SERRETIME_BENCH_WORKERS"); s != "" {
		var ws []int
		for _, part := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				panic("SERRETIME_BENCH_WORKERS: bad worker count " + part)
			}
			ws = append(ws, n)
		}
		return ws
	}
	ws := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 {
		ws = append(ws, n)
	}
	return ws
}

func benchCircuit(b *testing.B, name string) *circuit.Circuit {
	b.Helper()
	c, err := benchfmt.ParseFile("testdata/" + name + ".bench")
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkFrontEnd(b *testing.B) {
	for _, name := range []string{"par2500", "par6000"} {
		c := benchCircuit(b, name)
		for _, w := range frontEndWorkers() {
			cfg := sim.Config{Words: 8, Frames: 15, Seed: 1, Workers: w}
			b.Run(fmt.Sprintf("circuit=%s/phase=sim/workers=%d", name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tr, err := sim.Run(context.Background(), c, cfg)
					if err != nil {
						b.Fatal(err)
					}
					tr.Release()
				}
			})
			tr, err := sim.Run(context.Background(), c, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("circuit=%s/phase=obs/workers=%d", name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := obs.Compute(context.Background(), tr, obs.Options{Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// Preset circuits (par50k, par100k) are generated on demand rather than
// checked in: at these sizes the .bench text would be multiple megabytes
// of noise in the repository, and gen.Generate is deterministic, so
// every run benchmarks the same netlist. The specs live in
// internal/gen/presets.go, shared with `sergen -preset`.
var (
	presetMu      sync.Mutex
	presetCircuit = map[string]*circuit.Circuit{}
)

func presetBench(b *testing.B, name string) *circuit.Circuit {
	b.Helper()
	presetMu.Lock()
	defer presetMu.Unlock()
	if c, ok := presetCircuit[name]; ok {
		return c
	}
	spec, err := gen.Preset(name)
	if err != nil {
		b.Fatal(err)
	}
	c, err := gen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	presetCircuit[name] = c
	return c
}

func par50k(b *testing.B) *circuit.Circuit {
	return presetBench(b, "par50k")
}

// BenchmarkFrontEndLarge exercises the CSR front end at a scale where the
// flat layout matters: ~50k gates, where per-node allocation and pointer
// chasing dominated the pre-CSR representation. Reduced signature width and
// frame count keep the CI bench-smoke (-benchtime=1x) run fast.
func BenchmarkFrontEndLarge(b *testing.B) {
	c := par50k(b)
	for _, w := range frontEndWorkers() {
		cfg := sim.Config{Words: 4, Frames: 8, Seed: 1, Workers: w}
		b.Run(fmt.Sprintf("circuit=par50k/phase=sim/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr, err := sim.Run(context.Background(), c, cfg)
				if err != nil {
					b.Fatal(err)
				}
				tr.Release()
			}
		})
		tr, err := sim.Run(context.Background(), c, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("circuit=par50k/phase=obs/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := obs.Compute(context.Background(), tr, obs.Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
		tr.Release()
	}
}

// BenchmarkFrontEndFast measures the analytical propagation-probability
// engine (accuracy=fast) against the same horizon the exact benchmarks
// use. The fastobs phase replaces sim+obs wholesale — one number
// per circuit per worker count is the honest comparison. par100k is the
// asymptotic leg: at 100k gates the fast engine must finish well under a
// second single-worker (tracked in BENCH_fastser.json via `make
// bench-fastser`), a regime where signature simulation at useful widths
// is tens of seconds.
func BenchmarkFrontEndFast(b *testing.B) {
	run := func(name string, c *circuit.Circuit, frames int) {
		for _, w := range frontEndWorkers() {
			b.Run(fmt.Sprintf("circuit=%s/phase=fastobs/workers=%d", name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := obs.ComputeFast(context.Background(), c, frames, obs.Options{Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	for _, name := range []string{"par2500", "par6000"} {
		run(name, benchCircuit(b, name), 15)
	}
	run("par100k", presetBench(b, "par100k"), 15)
}
