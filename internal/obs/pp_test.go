package obs

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
	"serretime/internal/sim"
)

// oracleEval evaluates fn over a multiset of inputs: distinct net i with
// multiplicity mult[i] carries bit (a >> i) & 1.
func oracleEval(fn circuit.Func, mult []int, a int) bool {
	in := make([]uint64, 0, 8)
	for i, m := range mult {
		for j := 0; j < m; j++ {
			in = append(in, uint64(a>>i&1))
		}
	}
	return fn.Eval(in)&1 == 1
}

// oracle enumerates the full truth table of fn over independent distinct
// nets with probabilities p and pin multiplicities mult, returning the
// exact output probability and, per net, the exact probability that
// flipping the net (all its pins at once) flips the output.
func oracle(fn circuit.Func, mult []int, p []float64) (float64, []float64) {
	k := len(mult)
	var pOut float64
	sens := make([]float64, k)
	for a := 0; a < 1<<k; a++ {
		w := 1.0
		for i := 0; i < k; i++ {
			if a>>i&1 == 1 {
				w *= p[i]
			} else {
				w *= 1 - p[i]
			}
		}
		out := oracleEval(fn, mult, a)
		if out {
			pOut += w
		}
		for x := 0; x < k; x++ {
			if oracleEval(fn, mult, a^(1<<x)) != out {
				sens[x] += w
			}
		}
	}
	return pOut, sens
}

// dedupEntries encodes multiplicities the way ppPrep does: net i stored
// as i when read an odd number of times, ^i when even.
func dedupEntries(mult []int) []circuit.NodeID {
	ded := make([]circuit.NodeID, len(mult))
	for i, m := range mult {
		if m%2 == 1 {
			ded[i] = circuit.NodeID(i)
		} else {
			ded[i] = ^circuit.NodeID(i)
		}
	}
	return ded
}

// TestFastTransferMatchesTruthTable pins the engine's per-gate closed
// forms to the full truth-table enumeration they claim to equal, for
// every library function, fanin counts 1..4 and pin multiplicities 1..2,
// over random probability vectors.
func TestFastTransferMatchesTruthTable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	fns := []circuit.Func{
		circuit.FnAnd, circuit.FnNand, circuit.FnOr, circuit.FnNor,
		circuit.FnXor, circuit.FnXnor,
	}
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(4)
		mult := make([]int, k)
		p := make([]float64, k)
		for i := range mult {
			mult[i] = 1 + rng.Intn(2)
			p[i] = rng.Float64()
		}
		ded := dedupEntries(mult)
		for _, fn := range fns {
			wantP, wantS := oracle(fn, mult, p)
			if got := ppSignalProb(fn, ded, p); math.Abs(got-wantP) > 1e-12 {
				t.Fatalf("%v mult=%v p=%v: prob %g, truth table %g", fn, mult, p, got, wantP)
			}
			for x := 0; x < k; x++ {
				if got := ppSens(fn, ded, circuit.NodeID(x), p); math.Abs(got-wantS[x]) > 1e-12 {
					t.Fatalf("%v mult=%v p=%v: sens(%d) %g, truth table %g", fn, mult, p, x, got, wantS[x])
				}
			}
		}
	}
	// BUF/NOT over a single pin.
	for _, fn := range []circuit.Func{circuit.FnBuf, circuit.FnNot} {
		p := []float64{0.3}
		wantP, wantS := oracle(fn, []int{1}, p)
		ded := dedupEntries([]int{1})
		if got := ppSignalProb(fn, ded, p); math.Abs(got-wantP) > 1e-12 {
			t.Fatalf("%v: prob %g, want %g", fn, got, wantP)
		}
		if got := ppSens(fn, ded, 0, p); math.Abs(got-wantS[0]) > 1e-12 {
			t.Fatalf("%v: sens %g, want %g", fn, got, wantS[0])
		}
	}
}

func fastAnalyze(t testing.TB, c *circuit.Circuit, frames int, opt Options) *Result {
	t.Helper()
	r, err := ComputeFast(context.Background(), c, frames, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFastHandCircuits replays the exact engine's hand-built circuits:
// on fanout-free logic the analytical values are exact, so the fast
// engine must reproduce the same deterministic observabilities.
func TestFastHandCircuits(t *testing.T) {
	t.Run("inverter-chain", func(t *testing.T) {
		b := circuit.NewBuilder("chain")
		b.PI("a")
		b.Gate("n1", circuit.FnNot, "a")
		b.Gate("n2", circuit.FnNot, "n1")
		b.PO("n2")
		c := mustBuild(t, b)
		r := fastAnalyze(t, c, 1, Options{})
		for _, name := range []string{"a", "n1", "n2"} {
			id, _ := c.Lookup(name)
			if r.GateObs(id) != 1 {
				t.Errorf("obs(%s) = %g, want 1", name, r.GateObs(id))
			}
		}
		if r.K != 0 {
			t.Errorf("K = %d, want 0 (analytical, no vectors)", r.K)
		}
	})
	t.Run("and-masking", func(t *testing.T) {
		// y = AND(a, b): a is observable exactly when b = 1, p = 1/2.
		b := circuit.NewBuilder("and")
		b.PI("a")
		b.PI("b")
		b.Gate("y", circuit.FnAnd, "a", "b")
		b.PO("y")
		c := mustBuild(t, b)
		r := fastAnalyze(t, c, 1, Options{})
		a, _ := c.Lookup("a")
		if got := r.GateObs(a); got != 0.5 {
			t.Errorf("obs(a) = %g, want exactly 0.5", got)
		}
	})
	t.Run("constant-blocked", func(t *testing.T) {
		b := circuit.NewBuilder("blocked")
		b.PI("x")
		b.Gate("zero", circuit.FnConst0)
		b.Gate("y", circuit.FnAnd, "x", "zero")
		b.PO("y")
		c := mustBuild(t, b)
		r := fastAnalyze(t, c, 2, Options{})
		x, _ := c.Lookup("x")
		if r.GateObs(x) != 0 {
			t.Errorf("obs(x) = %g, want 0", r.GateObs(x))
		}
	})
	t.Run("repeated-fanin", func(t *testing.T) {
		// y = XOR(x, x) == 0: flipping x flips both pins and cancels.
		b := circuit.NewBuilder("rep")
		b.PI("x")
		b.PI("p")
		b.Gate("y", circuit.FnXor, "x", "x")
		b.Gate("z", circuit.FnOr, "y", "p")
		b.PO("z")
		c := mustBuild(t, b)
		r := fastAnalyze(t, c, 1, Options{})
		x, _ := c.Lookup("x")
		if r.GateObs(x) != 0 {
			t.Errorf("obs(x) = %g, want 0 (both-pin flip cancels)", r.GateObs(x))
		}
	})
	t.Run("registers", func(t *testing.T) {
		// a -> q1 -> q2 -> y(PO): surfaces two frames later; the frame
		// horizon and final-register policy must mirror the exact engine.
		b := circuit.NewBuilder("pipe")
		b.PI("a")
		b.DFF("q1", "a")
		b.DFF("q2", "q1")
		b.Gate("y", circuit.FnBuf, "q2")
		b.PO("y")
		c := mustBuild(t, b)
		a, _ := c.Lookup("a")
		if r := fastAnalyze(t, c, 4, Options{}); r.GateObs(a) != 1 {
			t.Errorf("obs(a) with 4 frames = %g, want 1", r.GateObs(a))
		}
		if r := fastAnalyze(t, c, 2, Options{DropFinalRegisters: true}); r.GateObs(a) != 0 {
			t.Errorf("obs(a) truncated = %g, want 0", r.GateObs(a))
		}
		if r := fastAnalyze(t, c, 2, Options{}); r.GateObs(a) != 1 {
			t.Errorf("obs(a) latched = %g, want 1", r.GateObs(a))
		}
	})
}

func TestFastFrameValidation(t *testing.T) {
	b := circuit.NewBuilder("t")
	b.PI("a")
	b.Gate("y", circuit.FnBuf, "a")
	b.PO("y")
	c := mustBuild(t, b)
	if _, err := ComputeFast(context.Background(), c, 0, Options{}); err == nil {
		t.Fatal("zero-frame horizon accepted")
	}
	if _, err := ComputeFast(context.Background(), c, 2, Options{Frame: 2}); err == nil {
		t.Fatal("out-of-range frame accepted")
	}
	if _, err := ComputeFast(context.Background(), c, 2, Options{Frame: -1}); err == nil {
		t.Fatal("negative frame accepted")
	}
}

// TestFastDeterministicAcrossWorkers pins the bit-identity contract: the
// level-sharded float passes write disjoint slots and each node's
// products run sequentially in CSR order, so every worker count yields
// the same bits.
func TestFastDeterministicAcrossWorkers(t *testing.T) {
	c, err := benchfmt.ParseFile("../../testdata/par2500.bench")
	if err != nil {
		t.Fatal(err)
	}
	base := fastAnalyze(t, c, 15, Options{Workers: 1})
	for _, w := range []int{2, 3, 0} {
		r := fastAnalyze(t, c, 15, Options{Workers: w})
		for i := range base.Obs {
			if math.Float64bits(r.Obs[i]) != math.Float64bits(base.Obs[i]) {
				t.Fatalf("workers=%d: obs[%d] = %x, want %x", w, i, math.Float64bits(r.Obs[i]), math.Float64bits(base.Obs[i]))
			}
		}
	}
}

// TestFastProbabilitiesInRange checks every estimate is a probability on
// a real netlist with reconvergent fanout.
func TestFastProbabilitiesInRange(t *testing.T) {
	c, err := benchfmt.ParseFile("../../testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	r := fastAnalyze(t, c, 15, Options{})
	for i, o := range r.Obs {
		if o < 0 || o > 1 || math.IsNaN(o) {
			t.Fatalf("obs[%d] = %g out of [0,1]", i, o)
		}
	}
	g17, _ := c.Lookup("G17")
	if r.GateObs(g17) != 1 {
		t.Errorf("obs(G17) = %g, want 1 (is a PO)", r.GateObs(g17))
	}
}

// TestComputeDesignDispatch checks the Accuracy seam: exact routes
// through simulation + Compute, fast routes through ComputeFast, and the
// two produce the respective engines' results bit for bit.
func TestComputeDesignDispatch(t *testing.T) {
	c, err := benchfmt.ParseFile("../../testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Words: 4, Frames: 8, Seed: 9, Workers: 1}

	exact, err := ComputeDesign(t.Context(), c, cfg, Options{Accuracy: AccuracyExact, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantExact := analyze(t, c, cfg, Options{})
	for i := range wantExact.Obs {
		if exact.Obs[i] != wantExact.Obs[i] {
			t.Fatalf("exact dispatch diverges at node %d: %g vs %g", i, exact.Obs[i], wantExact.Obs[i])
		}
	}
	if exact.K != wantExact.K {
		t.Fatalf("exact dispatch K = %d, want %d", exact.K, wantExact.K)
	}

	fast, err := ComputeDesign(t.Context(), c, cfg, Options{Accuracy: AccuracyFast, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantFast := fastAnalyze(t, c, cfg.Frames, Options{Workers: 1})
	for i := range wantFast.Obs {
		if fast.Obs[i] != wantFast.Obs[i] {
			t.Fatalf("fast dispatch diverges at node %d: %g vs %g", i, fast.Obs[i], wantFast.Obs[i])
		}
	}
	if fast.K != 0 {
		t.Fatalf("fast dispatch K = %d, want 0", fast.K)
	}
}

func TestAccuracyString(t *testing.T) {
	if AccuracyExact.String() != "exact" || AccuracyFast.String() != "fast" {
		t.Fatalf("accuracy strings: %q, %q", AccuracyExact, AccuracyFast)
	}
	if s := Accuracy(9).String(); s != "Accuracy(9)" {
		t.Fatalf("out-of-range accuracy string %q", s)
	}
}
