package serretime

// Allocation-regression guards for the flat CSR front end. The point of the
// CSR refactor is that a steady-state analysis pass performs O(1)
// allocations: the circuit's CSR view is cached, the signature planes and
// ODC mask slabs are pooled, and the per-gate dedup maps of the old TopoOrder
// are gone. These tests pin that property with testing.AllocsPerRun so a
// future change cannot quietly reintroduce per-node or per-gate allocation
// (the pre-CSR baseline was ~1 alloc per gate in sim.Run: see
// BENCH_pre_csr.txt). TestAllocRegressionMinimize and
// TestAllocRegressionInitialize extend the guard to the optimizer's step
// path and the Section V initialization, and TestAllocRegressionRebuild
// and TestAllocRegressionELWExact to the result path: materializing the
// retimed netlist and the exact windows of eq. (3). Run as part of the
// normal test suite and as an explicit CI step.

import (
	"context"
	"testing"

	"serretime/internal/circuit"
	"serretime/internal/core"
	"serretime/internal/elw"
	"serretime/internal/gen"
	"serretime/internal/graph"
	"serretime/internal/obs"
	"serretime/internal/retime"
	"serretime/internal/sim"
)

func allocCircuit(t *testing.T) (*circuit.Circuit, *graph.Graph) {
	t.Helper()
	cc, err := gen.Generate(gen.Spec{Name: "alloc", Gates: 800, Conns: 1800, FFs: 90, Depth: 12})
	if err != nil {
		t.Fatal(err)
	}
	gg := graph.FromCircuit(cc)
	return cc, gg
}

func TestAllocRegressionSimRun(t *testing.T) {
	c, _ := allocCircuit(t)
	cfg := sim.Config{Words: 4, Frames: 10, Seed: 3, Workers: 1}
	run := func() {
		tr, err := sim.Run(context.Background(), c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr.Release()
	}
	run() // warm the CSR cache and the trace pool
	// Steady state: the Trace header, the RNG, the worker pool and a few
	// slice headers — far below one allocation per gate (800 gates here).
	const maxAllocs = 24
	if got := testing.AllocsPerRun(20, run); got > maxAllocs {
		t.Fatalf("sim.Run steady state: %.0f allocs/run, want <= %d", got, maxAllocs)
	}
}

func TestAllocRegressionObsCompute(t *testing.T) {
	c, _ := allocCircuit(t)
	tr, err := sim.Run(context.Background(), c, sim.Config{Words: 4, Frames: 10, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Release()
	run := func() {
		if _, err := obs.Compute(context.Background(), tr, obs.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	// The Result (Obs slice) is returned to the caller, so the floor is the
	// result itself plus pool/closure headers — still independent of the
	// node count beyond the single Obs slice.
	const maxAllocs = 30
	if got := testing.AllocsPerRun(20, run); got > maxAllocs {
		t.Fatalf("obs.Compute steady state: %.0f allocs/run, want <= %d", got, maxAllocs)
	}
}

func TestAllocRegressionObsComputeFast(t *testing.T) {
	c, _ := allocCircuit(t)
	run := func() {
		if _, err := obs.ComputeFast(context.Background(), c, 10, obs.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the CSR cache, the level/dedup prep and the float planes
	// Steady state: the returned Result (one Obs slice), the arena
	// headers, the worker pool and the two hoisted shard closures —
	// a constant ~31 regardless of circuit size. The probability planes,
	// level buckets and dedup tables are all arena-backed and pooled; at
	// 800 gates anything scaling with gates × frames blows this cap
	// immediately.
	const maxAllocs = 36
	if got := testing.AllocsPerRun(20, run); got > maxAllocs {
		t.Fatalf("obs.ComputeFast steady state: %.0f allocs/run, want <= %d", got, maxAllocs)
	}
}

func TestAllocRegressionComputeWD(t *testing.T) {
	_, g := allocCircuit(t)
	run := func() { g.ComputeWD() }
	// The W/D matrices themselves (2 slices + struct) and one row-fill
	// scratch dominate. Anything growing with |V| beyond them is a
	// regression.
	const maxAllocs = 16
	if got := testing.AllocsPerRun(10, run); got > maxAllocs {
		t.Fatalf("ComputeWD: %.0f allocs/run, want <= %d", got, maxAllocs)
	}
}

// TestAllocRegressionInitialize guards the Section V initialization: one
// retime.Initialize on the alloc circuit. Both Φ searches probe with one
// timing state, whose arrival times, edge weights and update scratch
// every FEAS pass and probe reuse, so what is left is that state, the
// kept retimings and the L/R label sweeps of the hold checks. When every
// pass recomputed its topological order and arrival times into fresh
// slices, the same call made 198 allocations.
func TestAllocRegressionInitialize(t *testing.T) {
	_, g := allocCircuit(t)
	ctx := context.Background()
	opt := RetimeOptions{}.normalized()
	run := func() {
		if _, err := retime.Initialize(ctx, g, retime.Options{Ts: opt.Ts, Th: opt.Th, Epsilon: opt.Epsilon}); err != nil {
			t.Fatal(err)
		}
	}
	const maxAllocs = 130
	got := testing.AllocsPerRun(5, run)
	t.Logf("retime.Initialize: %.0f allocs/run", got)
	if got > maxAllocs {
		t.Fatalf("retime.Initialize: %.0f allocs/run, want <= %d", got, maxAllocs)
	}
}

// TestAllocRegressionMinimize guards the optimizer's step path: one
// MinObsWin core.Minimize over the Section V-initialized alloc circuit,
// prepared exactly as Retime prepares it. The closure engine keeps its
// constraints and its max-closure network in flat arrays, one set per
// round, and findViolations reuses one violation buffer, so allocations
// come from rounds and the amortized growth of those arrays, not from
// steps, constraints or negative edges. With a per-cut network rebuild,
// per-call maps and one heap violation per negative edge, the same call
// made 126,899 allocations.
func TestAllocRegressionMinimize(t *testing.T) {
	c, _ := allocCircuit(t)
	d, err := newDesign(c)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opt := RetimeOptions{}.normalized()
	if err := d.ensureObs(ctx, opt.Analysis, 1, nil); err != nil {
		t.Fatal(err)
	}
	init, err := retime.Initialize(ctx, d.g, retime.Options{Ts: opt.Ts, Th: opt.Th, Epsilon: opt.Epsilon})
	if err != nil {
		t.Fatal(err)
	}
	base, err := d.g.Rebase(init.R)
	if err != nil {
		t.Fatal(err)
	}
	gains, obsInt, err := core.Gains(base, d.gateObs, d.edgeObs, opt.kUnits())
	if err != nil {
		t.Fatal(err)
	}
	copt := core.Options{Phi: init.Phi, Ts: opt.Ts, Th: opt.Th, Rmin: init.Rmin, ELWConstraints: true}
	var steps int
	run := func() {
		res, err := core.Minimize(ctx, base, gains, obsInt, copt)
		if err != nil {
			t.Fatal(err)
		}
		steps = res.Steps
	}
	run()
	// 413 allocations over 457 steps: the per-round engines and the
	// growth of their arrays, and the labels of each pass.
	const maxAllocs = 600
	got := testing.AllocsPerRun(5, run)
	t.Logf("core.Minimize: %d steps, %.0f allocs/run", steps, got)
	if got > maxAllocs {
		t.Fatalf("core.Minimize: %.0f allocs/run over %d steps, want <= %d", got, steps, maxAllocs)
	}
}

// sectionV is the alloc circuit's Section V initialization, the retiming
// and period the result-path guards run at.
func sectionV(t *testing.T, g *graph.Graph) *retime.Init {
	t.Helper()
	opt := RetimeOptions{}.normalized()
	init, err := retime.Initialize(context.Background(), g, retime.Options{Ts: opt.Ts, Th: opt.Th, Epsilon: opt.Epsilon})
	if err != nil {
		t.Fatal(err)
	}
	return init
}

// TestAllocRegressionRebuild guards graph.Rebuild: one rebuild of the
// alloc circuit at its Section V retiming. Node IDs are fixed up front,
// pins resolve into ID-indexed slices, the register names share one
// buffer, and fanins and fanouts each live in one array: 39 allocations,
// a constant number of slices and the two name maps. When every pin went
// through name-keyed maps, Sprintf tap names and circuit.Builder's name
// resolution, the same call made 4,547 allocations.
func TestAllocRegressionRebuild(t *testing.T) {
	c, g := allocCircuit(t)
	init := sectionV(t, g)
	run := func() {
		if _, err := graph.Rebuild(c, g, init.R); err != nil {
			t.Fatal(err)
		}
	}
	const maxAllocs = 400
	got := testing.AllocsPerRun(5, run)
	t.Logf("graph.Rebuild: %.0f allocs/run", got)
	if got > maxAllocs {
		t.Fatalf("graph.Rebuild: %.0f allocs/run, want <= %d", got, maxAllocs)
	}
}

// TestAllocRegressionELWExact guards elw.Exact: one evaluation of eq. (3)
// on the alloc circuit at its Section V retiming and period. Each fanout
// window is merged into the vertex's set translated in place, so the
// allocations are the sets themselves: 1,154 over 801 vertices, one per
// set plus its growth. With a shifted copy and a re-sort of the
// concatenation per fanout edge, the same call made 5,087 allocations.
func TestAllocRegressionELWExact(t *testing.T) {
	_, g := allocCircuit(t)
	init := sectionV(t, g)
	opt := RetimeOptions{}.normalized()
	p := elw.Params{Phi: init.Phi, Ts: opt.Ts, Th: opt.Th}
	run := func() {
		if _, err := elw.Exact(g, init.R, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	const maxAllocs = 1600
	got := testing.AllocsPerRun(5, run)
	t.Logf("elw.Exact: %.0f allocs/run", got)
	if got > maxAllocs {
		t.Fatalf("elw.Exact: %.0f allocs/run, want <= %d", got, maxAllocs)
	}
}
