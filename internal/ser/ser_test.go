package ser

import (
	"context"
	"math"
	"testing"

	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
	"serretime/internal/elw"
	"serretime/internal/graph"
	"serretime/internal/obs"
	"serretime/internal/sim"
)

func TestSyntheticRates(t *testing.T) {
	if GateRate(circuit.FnConst1, 0) != 0 {
		t.Fatal("constants must have zero rate")
	}
	if GateRate(circuit.FnNot, 1) <= GateRate(circuit.FnNand, 2) {
		t.Fatal("inverter should out-rate a NAND")
	}
	// Wider gates have lower raw rates.
	if GateRate(circuit.FnNand, 4) >= GateRate(circuit.FnNand, 2) {
		t.Fatal("rate must fall with fanin")
	}
	if RegisterRate <= 0 {
		t.Fatal("register rate must be positive")
	}
}

// handAnalysis builds host -1-> A(d=2) -0-> B(d=3) -0-> host and checks
// eq. (4) against hand arithmetic.
func TestComputeHand(t *testing.T) {
	b := graph.NewBuilder()
	a := b.AddVertex("A", 2)
	bb := b.AddVertex("B", 3)
	b.AddEdge(graph.Host, a, 1)
	b.AddEdge(a, bb, 0)
	b.AddEdge(bb, graph.Host, 0)
	g := b.Build()
	p := elw.DefaultParams(10) // windows: B [10,12], A [7,9], both measure 2

	gateObs := []float64{0, 0.5, 1.0}
	edgeObs := EdgeObsFromVertex(g, gateObs, 0.8)
	gateRate := []float64{0, 1e-5, 2e-5}
	in := Inputs{GateObs: gateObs, EdgeObs: edgeObs, GateRate: gateRate, RegRate: 3e-5, Params: p}
	an := Compute(g, graph.NewRetiming(g), in)
	// Gates: 0.5·1e-5·2/10 + 1.0·2e-5·2/10 = 1e-6 + 4e-6 = 5e-6.
	if math.Abs(an.Gates-5e-6) > 1e-12 {
		t.Fatalf("Gates = %g", an.Gates)
	}
	// One register on host->A: obs 0.8, adjacent window |ELW(A)| = 2.
	// 0.8·3e-5·2/10 = 4.8e-6.
	if math.Abs(an.Registers-4.8e-6) > 1e-12 {
		t.Fatalf("Registers = %g", an.Registers)
	}
	if an.NumRegisters != 1 || an.SharedRegisters != 1 {
		t.Fatalf("register counts: %d %d", an.NumRegisters, an.SharedRegisters)
	}
	if math.Abs(an.RegisterObs-0.8) > 1e-12 {
		t.Fatalf("RegisterObs = %g", an.RegisterObs)
	}
	if math.Abs(an.Total-an.Gates-an.Registers) > 1e-15 {
		t.Fatal("Total mismatch")
	}
}

func TestComputeDeepChain(t *testing.T) {
	// Edge with 3 registers: one adjacent window + two full windows.
	b := graph.NewBuilder()
	a := b.AddVertex("A", 1)
	bb := b.AddVertex("B", 4)
	b.AddEdge(graph.Host, a, 0)
	b.AddEdge(a, bb, 3)
	b.AddEdge(bb, graph.Host, 0)
	g := b.Build()
	p := elw.DefaultParams(10) // |ELW(B)| = 2, base window = 2

	gateObs := []float64{0, 0.6, 1}
	in := Inputs{
		GateObs:  gateObs,
		EdgeObs:  EdgeObsFromVertex(g, gateObs, 0),
		GateRate: []float64{0, 0, 0}, // isolate the register term
		RegRate:  1e-5,
		Params:   p,
	}
	an := Compute(g, graph.NewRetiming(g), in)
	// 0.6·1e-5·(2 + 2·2)/10 = 3.6e-6.
	if math.Abs(an.Registers-3.6e-6) > 1e-12 {
		t.Fatalf("Registers = %g", an.Registers)
	}
	if an.NumRegisters != 3 {
		t.Fatalf("NumRegisters = %d", an.NumRegisters)
	}
	if math.Abs(an.RegisterObs-1.8) > 1e-12 {
		t.Fatalf("RegisterObs = %g", an.RegisterObs)
	}
}

// TestRegisterWindows checks the register windows of eq. (4) on
// host -w-> A(d=1) feeding B(d=3) and C(d=5), both primary outputs: the
// register next to the consuming gate A sees ELW(A) − d(A) = [4,8], of
// measure 4, each deeper register of the chain the full latching window
// [Φ−Ts, Φ+Th], of measure 2, and edges without registers yield no
// register term.
func TestRegisterWindows(t *testing.T) {
	for w := int32(1); w <= 3; w++ {
		b := graph.NewBuilder()
		a := b.AddVertex("A", 1)
		bb := b.AddVertex("B", 3)
		c := b.AddVertex("C", 5)
		b.AddEdge(graph.Host, a, w)
		b.AddEdge(a, bb, 0)
		b.AddEdge(a, c, 0)
		b.AddEdge(bb, graph.Host, 0)
		b.AddEdge(c, graph.Host, 0)
		g := b.Build()
		ones := []float64{1, 1, 1, 1, 1}
		in := Inputs{
			GateObs: ones[:g.NumVertices()], EdgeObs: ones[:g.NumEdges()], GateRate: ones[:g.NumVertices()],
			RegRate: 1, Params: elw.DefaultParams(10),
		}
		var regs []Term
		Terms(g, graph.NewRetiming(g), in, func(t Term) {
			if t.Regs > 0 {
				regs = append(regs, t)
			}
		})
		if len(regs) != 1 || regs[0].Edge != 0 || regs[0].Regs != int(w) {
			t.Fatalf("w=%d: register terms %+v, want one on edge 0", w, regs)
		}
		if want := 4 + 2*float64(w-1); regs[0].Window != want {
			t.Fatalf("w=%d: register window %g, want %g", w, regs[0].Window, want)
		}
	}
}

// TestFullPipelineS27 wires sim + obs + elw + ser end to end on s27.
func TestFullPipelineS27(t *testing.T) {
	c, err := benchfmt.ParseFile("../../testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromCircuit(c)
	tr, err := sim.Run(context.Background(), c, sim.Config{Words: 16, Frames: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := obs.Compute(context.Background(), tr, obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gateObs := VertexObs(g, res)
	edgeObs := EdgeObs(c, g, gateObs, res)
	rates := VertexRates(c, g)
	_, crit := g.ArrivalTimes(graph.NewRetiming(g))
	p := elw.DefaultParams(crit + 1)
	in := Inputs{GateObs: gateObs, EdgeObs: edgeObs, GateRate: rates,
		RegRate: RegisterRate, Params: p}
	an := Compute(g, graph.NewRetiming(g), in)
	if an.Total <= 0 {
		t.Fatalf("SER = %g, want positive", an.Total)
	}
	if an.NumRegisters != 3 {
		t.Fatalf("NumRegisters = %d", an.NumRegisters)
	}
	if an.Gates <= 0 || an.Registers <= 0 {
		t.Fatalf("terms: %g %g", an.Gates, an.Registers)
	}
	// eq. (5) cross-check.
	if got := SumRegisterObs(g, graph.NewRetiming(g), edgeObs); math.Abs(got-an.RegisterObs) > 1e-12 {
		t.Fatalf("SumRegisterObs = %g, Analysis = %g", got, an.RegisterObs)
	}
}
