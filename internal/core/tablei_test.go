package core

import (
	"context"
	"testing"

	"serretime/internal/gen"
	"serretime/internal/graph"
	"serretime/internal/obs"
	"serretime/internal/retime"
	"serretime/internal/ser"
	"serretime/internal/sim"
)

// tableIProblem is one Table I substitute's optimizer input.
type tableIProblem struct {
	base        *graph.Graph
	gains, obsI []int64
	opt         Options // the Section V period and Rmin, Ts = 0, Th = 2
}

// tableIInstance builds a substitute's problem the way a solve does: the
// generated circuit shrunk by scale, exact observabilities at the default
// analysis options (15 frames, 4 words, seed 1), the Section V
// initialization, and gains at K = 256 vectors.
func tableIInstance(tb testing.TB, name string, scale int) *tableIProblem {
	tb.Helper()
	ctx := context.Background()
	spec, err := gen.FindTableI(name)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := gen.Generate(spec.Scale(scale).Spec)
	if err != nil {
		tb.Fatal(err)
	}
	g := graph.FromCircuit(c)
	res, err := obs.ComputeDesign(ctx, c, sim.Config{Words: 4, Frames: 15, Seed: 1}, obs.Options{Accuracy: obs.AccuracyExact})
	if err != nil {
		tb.Fatal(err)
	}
	gateObs := ser.VertexObs(g, res)
	edgeObs := ser.EdgeObs(c, g, gateObs, res)
	init, err := retime.Initialize(ctx, g, retime.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	base, err := g.Rebase(init.R)
	if err != nil {
		tb.Fatal(err)
	}
	gains, obsI := Gains(base, gateObs, edgeObs, 256)
	return &tableIProblem{
		base: base, gains: gains, obsI: obsI,
		opt: Options{Phi: init.Phi, Ts: 0, Th: 2, Rmin: init.Rmin},
	}
}

// TestEnginesAgainstExactTableI checks both optimizer engines against
// the exact MinObs optimum (MinObsExact, forward-only moves, the
// min-cost-flow solution of the LP) on each Table I substitute at cap
// 500 (scale ⌈gates/500⌉), from its Section V start. MinObs is an LP, so
// the closure engine, whose cuts are exact, must reach the optimum; the
// forest engine can never go below it, and every substitute where it
// stops above is logged.
func TestEnginesAgainstExactTableI(t *testing.T) {
	if testing.Short() {
		t.Skip("solves 21 substitutes three ways")
	}
	const gateCap = 500
	ctx := context.Background()
	above := 0
	for _, spec := range gen.TableI {
		name := spec.Name
		p := tableIInstance(t, name, (spec.Gates+gateCap-1)/gateCap)
		opt := p.opt
		exact, err := MinObsExact(p.base, p.gains, p.obsI, opt.Phi, opt.Ts, true)
		if err != nil {
			t.Fatalf("%s: exact: %v", name, err)
		}
		closure, err := Minimize(ctx, p.base, p.gains, p.obsI, opt)
		if err != nil {
			t.Fatalf("%s: closure engine: %v", name, err)
		}
		if closure.Objective != exact.Objective {
			t.Errorf("%s: closure engine objective %d, exact optimum %d", name, closure.Objective, exact.Objective)
		}
		opt.newEngine = newForestEngine
		forest, err := Minimize(ctx, p.base, p.gains, p.obsI, opt)
		if err != nil {
			t.Fatalf("%s: forest engine: %v", name, err)
		}
		switch {
		case forest.Objective < exact.Objective:
			t.Errorf("%s: forest engine objective %d below the exact optimum %d", name, forest.Objective, exact.Objective)
		case forest.Objective > exact.Objective:
			above++
			t.Logf("%s: forest engine objective %d above the exact optimum %d", name, forest.Objective, exact.Objective)
		}
	}
	t.Logf("forest engine above the exact optimum on %d of %d substitutes", above, len(gen.TableI))
}

// BenchmarkAblation_Engine compares the exact closure engine against the
// paper's weighted regular forest on MinObsWin.
func BenchmarkAblation_Engine(b *testing.B) {
	p := tableIInstance(b, "b14_1_opt", 4)
	for _, eng := range []struct {
		name  string
		build func(int, []int64) (engine, error)
	}{{"closure", nil}, {"forest", newForestEngine}} {
		b.Run(eng.name, func(b *testing.B) {
			opt := p.opt
			opt.ELWConstraints = true
			opt.newEngine = eng.build
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Minimize(context.Background(), p.base, p.gains, p.obsI, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
