package obs

import (
	"context"
	"math"
	"testing"

	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
	"serretime/internal/sim"
)

func mustBuild(t testing.TB, b *circuit.Builder) *circuit.Circuit {
	t.Helper()
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func analyze(t testing.TB, c *circuit.Circuit, cfg sim.Config, opt Options) *Result {
	t.Helper()
	tr, err := sim.Run(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Compute(context.Background(), tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestObsInverterChain(t *testing.T) {
	b := circuit.NewBuilder("chain")
	b.PI("a")
	b.Gate("n1", circuit.FnNot, "a")
	b.Gate("n2", circuit.FnNot, "n1")
	b.PO("n2")
	c := mustBuild(t, b)
	r := analyze(t, c, sim.Config{Words: 4, Frames: 1, Seed: 1}, Options{})
	for _, name := range []string{"a", "n1", "n2"} {
		id, _ := c.Lookup(name)
		if r.GateObs(id) != 1 {
			t.Errorf("obs(%s) = %g, want 1", name, r.GateObs(id))
		}
	}
	if r.K != 256 {
		t.Fatalf("K = %d", r.K)
	}
}

func TestObsAndMasking(t *testing.T) {
	// y = AND(a, b): a is observable only when b = 1 (density ~ 0.5).
	b := circuit.NewBuilder("and")
	b.PI("a")
	b.PI("b")
	b.Gate("y", circuit.FnAnd, "a", "b")
	b.PO("y")
	c := mustBuild(t, b)
	r := analyze(t, c, sim.Config{Words: 64, Frames: 1, Seed: 7}, Options{})
	a, _ := c.Lookup("a")
	if got := r.GateObs(a); math.Abs(got-0.5) > 0.05 {
		t.Errorf("obs(a) = %g, want ~0.5", got)
	}
	y, _ := c.Lookup("y")
	if r.GateObs(y) != 1 {
		t.Errorf("obs(y) = %g, want 1", r.GateObs(y))
	}
}

func TestObsConstantBlocked(t *testing.T) {
	b := circuit.NewBuilder("blocked")
	b.PI("x")
	b.Gate("zero", circuit.FnConst0)
	b.Gate("y", circuit.FnAnd, "x", "zero")
	b.PO("y")
	c := mustBuild(t, b)
	r := analyze(t, c, sim.Config{Words: 4, Frames: 2, Seed: 3}, Options{})
	x, _ := c.Lookup("x")
	if r.GateObs(x) != 0 {
		t.Errorf("obs(x) = %g, want 0", r.GateObs(x))
	}
}

func TestObsXorAlwaysSensitized(t *testing.T) {
	b := circuit.NewBuilder("xor")
	b.PI("a")
	b.PI("b")
	b.Gate("y", circuit.FnXor, "a", "b")
	b.PO("y")
	c := mustBuild(t, b)
	r := analyze(t, c, sim.Config{Words: 2, Frames: 1, Seed: 5}, Options{})
	for _, name := range []string{"a", "b", "y"} {
		id, _ := c.Lookup(name)
		if r.GateObs(id) != 1 {
			t.Errorf("obs(%s) = %g, want 1", name, r.GateObs(id))
		}
	}
}

func TestObsThroughRegisters(t *testing.T) {
	// a -> q1 -> q2 -> y(PO): the error surfaces two frames later.
	b := circuit.NewBuilder("pipe")
	b.PI("a")
	b.DFF("q1", "a")
	b.DFF("q2", "q1")
	b.Gate("y", circuit.FnBuf, "q2")
	b.PO("y")
	c := mustBuild(t, b)
	a, _ := c.Lookup("a")

	// Enough frames: fully observable.
	r := analyze(t, c, sim.Config{Words: 2, Frames: 4, Seed: 2}, Options{})
	if r.GateObs(a) != 1 {
		t.Errorf("obs(a) with 4 frames = %g, want 1", r.GateObs(a))
	}
	// Too few frames and final registers dropped: unobservable.
	r = analyze(t, c, sim.Config{Words: 2, Frames: 2, Seed: 2}, Options{DropFinalRegisters: true})
	if r.GateObs(a) != 0 {
		t.Errorf("obs(a) truncated = %g, want 0", r.GateObs(a))
	}
	// Too few frames but latched errors count: fully observable.
	r = analyze(t, c, sim.Config{Words: 2, Frames: 2, Seed: 2}, Options{})
	if r.GateObs(a) != 1 {
		t.Errorf("obs(a) latched = %g, want 1", r.GateObs(a))
	}
}

func TestObsRepeatedFanin(t *testing.T) {
	// y = XOR(x, x) == 0 regardless of x: flipping x flips both pins,
	// so x is unobservable.
	b := circuit.NewBuilder("rep")
	b.PI("x")
	b.PI("p")
	b.Gate("y", circuit.FnXor, "x", "x")
	b.Gate("z", circuit.FnOr, "y", "p")
	b.PO("z")
	c := mustBuild(t, b)
	r := analyze(t, c, sim.Config{Words: 4, Frames: 1, Seed: 11}, Options{})
	x, _ := c.Lookup("x")
	if r.GateObs(x) != 0 {
		t.Errorf("obs(x) = %g, want 0 (both-pin flip cancels)", r.GateObs(x))
	}
}

func TestObsFrameOutOfRange(t *testing.T) {
	b := circuit.NewBuilder("t")
	b.PI("a")
	b.Gate("y", circuit.FnBuf, "a")
	b.PO("y")
	c := mustBuild(t, b)
	tr, err := sim.Run(context.Background(), c, sim.Config{Words: 1, Frames: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compute(context.Background(), tr, Options{Frame: 2}); err == nil {
		t.Fatal("out-of-range frame accepted")
	}
	if _, err := Compute(context.Background(), tr, Options{Frame: -1}); err == nil {
		t.Fatal("negative frame accepted")
	}
}

func TestObsS27Sane(t *testing.T) {
	c, err := benchfmt.ParseFile("../../testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	r := analyze(t, c, sim.Config{Words: 16, Frames: 15, Seed: 1}, Options{})
	// Every observability is a valid probability, and the PO driver G17
	// is fully observable.
	for i := 0; i < c.NumNodes(); i++ {
		o := r.Obs[i]
		if o < 0 || o > 1 {
			t.Fatalf("obs out of range: %g", o)
		}
	}
	g17, _ := c.Lookup("G17")
	if r.GateObs(g17) != 1 {
		t.Errorf("obs(G17) = %g, want 1 (is a PO)", r.GateObs(g17))
	}
	// G11 feeds G17 = NOT(G11) and two other paths: fully observable.
	g11, _ := c.Lookup("G11")
	if r.GateObs(g11) != 1 {
		t.Errorf("obs(G11) = %g, want 1", r.GateObs(g11))
	}
}

func TestObsMonotoneInFrames(t *testing.T) {
	// With DropFinalRegisters, more frames can only increase any gate's
	// observability on identical vectors... the vectors differ per run,
	// so assert the weaker sanity property: the sequential circuit's
	// average observability with 10 frames is at least that with 1 frame
	// minus noise.
	c, err := benchfmt.ParseFile("../../testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	avg := func(frames int) float64 {
		r := analyze(t, c, sim.Config{Words: 32, Frames: frames, Seed: 4}, Options{DropFinalRegisters: true})
		var s float64
		var n int
		for _, id := range c.NodesOfKind(circuit.KindGate) {
			s += r.GateObs(id)
			n++
		}
		return s / float64(n)
	}
	if a1, a10 := avg(1), avg(10); a10 < a1-0.05 {
		t.Errorf("avg obs with 10 frames (%g) much lower than with 1 (%g)", a10, a1)
	}
}
