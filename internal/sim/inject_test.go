package sim_test

import (
	"context"
	"math"
	"testing"

	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
	"serretime/internal/obs"
	. "serretime/internal/sim"
)

func TestInjectFlipChain(t *testing.T) {
	// a -> NOT -> PO: every injected flip must surface immediately.
	b := circuit.NewBuilder("chain")
	b.PI("a")
	b.Gate("n", circuit.FnNot, "a")
	b.PO("n")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(context.Background(), c, Config{Words: 2, Frames: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := c.Lookup("n")
	o, err := EmpiricalObs(tr, id)
	if err != nil {
		t.Fatal(err)
	}
	if o != 1 {
		t.Fatalf("empirical obs = %g, want 1", o)
	}
	// The flip appears in frame 0 only (no state to carry it).
	diffs, _ := InjectFlip(tr, id)
	if Density(diffs[0][0]) != 1 {
		t.Fatal("frame 0 diff not full")
	}
	if Density(diffs[1][0]) != 0 {
		t.Fatal("frame 1 diff should be clean")
	}
}

func TestInjectFlipMasked(t *testing.T) {
	// y = AND(x, 0): flips at x never surface.
	b := circuit.NewBuilder("masked")
	b.PI("x")
	b.Gate("zero", circuit.FnConst0)
	b.Gate("y", circuit.FnAnd, "x", "zero")
	b.PO("y")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(context.Background(), c, Config{Words: 2, Frames: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := c.Lookup("x")
	o, err := EmpiricalObs(tr, x)
	if err != nil {
		t.Fatal(err)
	}
	if o != 0 {
		t.Fatalf("empirical obs = %g, want 0", o)
	}
}

func TestInjectFlipThroughState(t *testing.T) {
	// a -> q (DFF) -> PO buffer: the flip surfaces one frame later.
	b := circuit.NewBuilder("state")
	b.PI("a")
	b.DFF("q", "a")
	b.Gate("y", circuit.FnBuf, "q")
	b.PO("y")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(context.Background(), c, Config{Words: 2, Frames: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Lookup("a")
	diffs, err := InjectFlip(tr, a)
	if err != nil {
		t.Fatal(err)
	}
	if Density(diffs[0][0]) != 0 {
		t.Fatal("flip visible too early")
	}
	if Density(diffs[1][0]) != 1 {
		t.Fatal("flip not latched into frame 1")
	}
	if Density(diffs[2][0]) != 0 {
		t.Fatal("flip persisted too long")
	}
}

func TestInjectRejectsBadTarget(t *testing.T) {
	b := circuit.NewBuilder("xorloop")
	b.PI("a")
	b.Gate("n", circuit.FnXor, "a", "q")
	b.DFF("q", "n")
	b.PO("n")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := Run(context.Background(), c, Config{Words: 1, Frames: 2, Seed: 1})
	if _, err := InjectFlip(tr, circuit.NodeID(99)); err == nil {
		t.Fatal("bad target accepted")
	}
}

// TestODCMatchesInjectionOnTrees: on fanout-free circuits the ODC
// propagation is exact, so the analytical and empirical observabilities
// must agree bit for bit.
func TestODCMatchesInjectionOnTrees(t *testing.T) {
	b := circuit.NewBuilder("tree")
	b.PI("a")
	b.PI("b")
	b.PI("c")
	b.PI("d")
	b.Gate("n1", circuit.FnAnd, "a", "b")
	b.Gate("n2", circuit.FnOr, "c", "d")
	b.Gate("n3", circuit.FnNand, "n1", "n2")
	b.PO("n3")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(context.Background(), c, Config{Words: 8, Frames: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := obs.Compute(context.Background(), tr, obs.Options{DropFinalRegisters: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"n1", "n2", "n3", "a", "b", "c", "d"} {
		id, _ := c.Lookup(name)
		emp, err := EmpiricalObs(tr, id)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(emp-res.GateObs(id)) > 1e-12 {
			t.Errorf("%s: empirical %g vs ODC %g", name, emp, res.GateObs(id))
		}
	}
}

// TestODCCloseToInjectionOnS27 bounds the reconvergence error of the ODC
// approximation against exact fault injection on a real benchmark.
func TestODCCloseToInjectionOnS27(t *testing.T) {
	c, err := benchfmt.ParseFile("../../testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(context.Background(), c, Config{Words: 8, Frames: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := obs.Compute(context.Background(), tr, obs.Options{DropFinalRegisters: true})
	if err != nil {
		t.Fatal(err)
	}
	var sumErr float64
	var worst float64
	n := 0
	for _, id := range c.NodesOfKind(circuit.KindGate) {
		emp, err := EmpiricalObs(tr, id)
		if err != nil {
			t.Fatal(err)
		}
		e := math.Abs(emp - res.GateObs(id))
		sumErr += e
		if e > worst {
			worst = e
		}
		n++
	}
	mean := sumErr / float64(n)
	t.Logf("ODC vs injection on s27: mean |err| = %.3f, worst = %.3f", mean, worst)
	if mean > 0.10 {
		t.Fatalf("ODC approximation drifts too far from ground truth: mean %.3f", mean)
	}
}
