package serretime

// Property tests of the worker-count invariance claimed by DESIGN.md §11:
// sim.Run and obs.Compute must produce bit-identical results for
// Workers ∈ {1, 2, GOMAXPROCS} on generated circuits. Workers = 1 is the
// sequential reference path, so these tests pin the sharded
// implementations to the legacy behavior bit for bit.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"serretime/internal/circuit"
	"serretime/internal/gen"
	"serretime/internal/obs"
	"serretime/internal/sim"
)

// determinismWorkers returns the worker counts under test: the sequential
// reference, a forced 2-way split (exercises sharding even on one CPU),
// and the machine width when it differs.
func determinismWorkers() []int {
	ws := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 {
		ws = append(ws, n)
	}
	return ws
}

// determinismCircuits generates a few structurally diverse circuits: small
// and dense, wide with fanout hubs, and one whose word count exceeds any
// tested worker count so spans hold multiple words.
func determinismCircuits(t testing.TB) map[string]*circuit.Circuit {
	t.Helper()
	specs := []gen.Spec{
		{Name: "det-small", Gates: 60, Conns: 130, FFs: 9, Depth: 6},
		{Name: "det-wide", Gates: 420, Conns: 980, FFs: 48, Depth: 9, FanoutSkew: 0.25},
		{Name: "det-deep", Gates: 300, Conns: 640, FFs: 30, Depth: 24},
	}
	out := make(map[string]*circuit.Circuit, len(specs))
	for _, s := range specs {
		c, err := gen.Generate(s)
		if err != nil {
			t.Fatalf("generate %s: %v", s.Name, err)
		}
		out[s.Name] = c
	}
	return out
}

func traceEqual(t *testing.T, want, got *sim.Trace, label string) {
	t.Helper()
	if want.Words != got.Words || want.Frames != got.Frames {
		t.Fatalf("%s: shape mismatch", label)
	}
	n := want.Circuit.NumNodes()
	for f := 0; f < want.Frames; f++ {
		for id := 0; id < n; id++ {
			a := want.Value(f, circuit.NodeID(id))
			b := got.Value(f, circuit.NodeID(id))
			for w := range a {
				if a[w] != b[w] {
					t.Fatalf("%s: frame %d node %d word %d: %x != %x",
						label, f, id, w, a[w], b[w])
				}
			}
		}
	}
}

// TestFrontEndDeterminismSim: identical traces for every worker count,
// across signature widths that divide unevenly into the span counts.
func TestFrontEndDeterminismSim(t *testing.T) {
	for name, c := range determinismCircuits(t) {
		for _, words := range []int{1, 3, 8} {
			ref, err := sim.Run(context.Background(), c, sim.Config{Words: words, Frames: 11, Seed: 7, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range determinismWorkers()[1:] {
				tr, err := sim.Run(context.Background(), c, sim.Config{Words: words, Frames: 11, Seed: 7, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				traceEqual(t, ref, tr, fmt.Sprintf("%s words=%d workers=%d", name, words, w))
				// Release and re-run: a trace built on a recycled plane from
				// the pool must be bit-identical to one on fresh memory.
				tr.Release()
				tr, err = sim.Run(context.Background(), c, sim.Config{Words: words, Frames: 11, Seed: 7, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				traceEqual(t, ref, tr, fmt.Sprintf("%s words=%d workers=%d pooled", name, words, w))
				tr.Release()
			}
		}
	}
}

// TestFrontEndDeterminismObs: identical observability vectors for every
// worker count, with and without the final-register drop.
func TestFrontEndDeterminismObs(t *testing.T) {
	for name, c := range determinismCircuits(t) {
		tr, err := sim.Run(context.Background(), c, sim.Config{Words: 5, Frames: 10, Seed: 11, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, drop := range []bool{false, true} {
			ref, err := obs.Compute(context.Background(), tr, obs.Options{DropFinalRegisters: drop, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range determinismWorkers()[1:] {
				res, err := obs.Compute(context.Background(), tr, obs.Options{DropFinalRegisters: drop, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if res.K != ref.K || len(res.Obs) != len(ref.Obs) {
					t.Fatalf("%s: shape mismatch", name)
				}
				for i := range ref.Obs {
					if res.Obs[i] != ref.Obs[i] {
						t.Fatalf("%s drop=%v workers=%d: obs[%d] = %v != %v",
							name, drop, w, i, res.Obs[i], ref.Obs[i])
					}
				}
			}
		}
	}
}
