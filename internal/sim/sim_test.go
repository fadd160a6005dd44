package sim

import (
	"context"
	"testing"
	"testing/quick"

	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
)

func xorLoop(t testing.TB) *circuit.Circuit {
	t.Helper()
	// q toggles its state XOR input a: q' = a XOR q.
	b := circuit.NewBuilder("xorloop")
	b.PI("a")
	b.Gate("n", circuit.FnXor, "a", "q")
	b.DFF("q", "n")
	b.PO("n")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunShapes(t *testing.T) {
	c := xorLoop(t)
	tr, err := Run(context.Background(), c, Config{Words: 2, Frames: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Frames != 4 || tr.Words != 2 {
		t.Fatal("config not recorded")
	}
	n, _ := c.Lookup("n")
	if len(tr.Value(0, n)) != 2 {
		t.Fatal("signature width wrong")
	}
}

func TestRunSemantics(t *testing.T) {
	c := xorLoop(t)
	tr, err := Run(context.Background(), c, Config{Words: 1, Frames: 5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Lookup("a")
	n, _ := c.Lookup("n")
	q, _ := c.Lookup("q")
	for f := 0; f < 5; f++ {
		// n = a XOR q in every frame.
		if tr.Value(f, n)[0] != tr.Value(f, a)[0]^tr.Value(f, q)[0] {
			t.Fatalf("frame %d: gate equation violated", f)
		}
		// q(f) = n(f-1) for f > 0.
		if f > 0 && tr.Value(f, q)[0] != tr.Value(f-1, n)[0] {
			t.Fatalf("frame %d: register transport violated", f)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	c := xorLoop(t)
	t1, _ := Run(context.Background(), c, Config{Words: 2, Frames: 3, Seed: 9})
	t2, _ := Run(context.Background(), c, Config{Words: 2, Frames: 3, Seed: 9})
	n, _ := c.Lookup("n")
	for f := 0; f < 3; f++ {
		for w := 0; w < 2; w++ {
			if t1.Value(f, n)[w] != t2.Value(f, n)[w] {
				t.Fatal("same seed, different trace")
			}
		}
	}
	t3, _ := Run(context.Background(), c, Config{Words: 2, Frames: 3, Seed: 10})
	same := true
	for f := 0; f < 3; f++ {
		for w := 0; w < 2; w++ {
			if t1.Value(f, n)[w] != t3.Value(f, n)[w] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical trace")
	}
}

func TestRunConfigValidation(t *testing.T) {
	c := xorLoop(t)
	if _, err := Run(context.Background(), c, Config{Words: 0, Frames: 1}); err == nil {
		t.Fatal("Words=0 accepted")
	}
	if _, err := Run(context.Background(), c, Config{Words: 1, Frames: 0}); err == nil {
		t.Fatal("Frames=0 accepted")
	}
}

func TestPopCountAndDensity(t *testing.T) {
	if PopCount([]uint64{0, ^uint64(0), 0xF}) != 68 {
		t.Fatal("PopCount wrong")
	}
	if Density([]uint64{^uint64(0), 0}) != 0.5 {
		t.Fatal("Density wrong")
	}
	if Density(nil) != 0 {
		t.Fatal("Density(nil) wrong")
	}
}

func TestStepperMatchesRun(t *testing.T) {
	// Stepping a circuit with the same inputs and initial state as Run
	// must reproduce the trace.
	c, err := benchfmt.ParseFile("../../testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Words: 2, Frames: 6, Seed: 3}
	tr, err := Run(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStepper(c, cfg.Words)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range c.NodesOfKind(circuit.KindDFF) {
		if err := st.SetState(q, tr.Value(0, q)); err != nil {
			t.Fatal(err)
		}
	}
	for f := 0; f < cfg.Frames; f++ {
		pi := make([][]uint64, len(c.PIs()))
		for i, id := range c.PIs() {
			pi[i] = tr.Value(f, id)
		}
		po, err := st.Step(pi)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range c.POs() {
			want := tr.Value(f, id)
			for w := range want {
				if po[i][w] != want[w] {
					t.Fatalf("frame %d PO %d: stepper diverges from trace", f, i)
				}
			}
		}
	}
}

func TestStepperErrors(t *testing.T) {
	c := xorLoop(t)
	if _, err := NewStepper(c, 0); err == nil {
		t.Fatal("words=0 accepted")
	}
	st, _ := NewStepper(c, 1)
	a, _ := c.Lookup("a")
	if err := st.SetState(a, []uint64{0}); err == nil {
		t.Fatal("SetState on PI accepted")
	}
	q, _ := c.Lookup("q")
	if err := st.SetState(q, []uint64{0, 0}); err == nil {
		t.Fatal("wrong width accepted")
	}
	if _, err := st.Step(nil); err == nil {
		t.Fatal("missing PI signatures accepted")
	}
	if _, err := st.Step([][]uint64{{1, 2}}); err == nil {
		t.Fatal("wrong PI width accepted")
	}
}

func TestPropertyXorLoopIsAccumulator(t *testing.T) {
	// The xor loop integrates its input: q(t) = q(0) XOR a(0) ... XOR a(t-1).
	c := xorLoop(t)
	f := func(q0, a0, a1, a2 uint64) bool {
		st, _ := NewStepper(c, 1)
		q, _ := c.Lookup("q")
		st.SetState(q, []uint64{q0})
		acc := q0
		for _, a := range []uint64{a0, a1, a2} {
			po, err := st.Step([][]uint64{{a}})
			if err != nil {
				return false
			}
			acc ^= a
			if po[0][0] != acc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
