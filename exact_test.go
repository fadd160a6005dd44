package serretime

import (
	"context"
	"testing"

	"serretime/internal/core"
	"serretime/internal/gen"
)

// TestEnginesAgainstExactTableI checks both optimizer engines against
// the exact MinObs optimum (core.MinObsExact, forward-only moves, the
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
	for _, name := range TableICircuits() {
		spec, err := gen.FindTableI(name)
		if err != nil {
			t.Fatal(err)
		}
		p := prepare(t, name, (spec.Gates+gateCap-1)/gateCap)
		opt := coreOpts(p, false)
		exact, err := core.MinObsExact(p.base, p.gains, p.obsI, opt.Phi, opt.Ts, true)
		if err != nil {
			t.Fatalf("%s: exact: %v", name, err)
		}
		closure, err := core.Minimize(ctx, p.base, p.gains, p.obsI, opt)
		if err != nil {
			t.Fatalf("%s: closure engine: %v", name, err)
		}
		if closure.Objective != exact.Objective {
			t.Errorf("%s: closure engine objective %d, exact optimum %d", name, closure.Objective, exact.Objective)
		}
		opt.Engine = core.EngineForest
		forest, err := core.Minimize(ctx, p.base, p.gains, p.obsI, opt)
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
	t.Logf("forest engine above the exact optimum on %d of %d substitutes", above, len(TableICircuits()))
}
