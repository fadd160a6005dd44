package serretime

// Executable reproductions of the paper's figures (DESIGN.md §3):
// Figure 1 (the observability/ELW trade-off), Figure 2 (the three active
// constraint types — asserted through the optimizer's violation counters),
// and Figure 3 (positive-positive tree linking, covered in
// internal/forest's TestFigure3; here the weight-update path is exercised
// through the public pipeline).

import (
	"context"
	"math"
	"testing"

	"serretime/internal/core"
	"serretime/internal/elw"
	"serretime/internal/graph"
	"serretime/internal/ser"
)

// TestFigure1 asserts the exact scenario of the paper's Figure 1: moving
// the register forward reduces register observability (0.6 -> 0.4) but
// grows |ELW(A)| and |ELW(B)| by 1 each, and the total SER gets worse.
func TestFigure1(t *testing.T) {
	gr, g, in := figure1Graph()
	r0 := graph.NewRetiming(gr)
	r1 := graph.NewRetiming(gr)
	r1[g] = -1
	if err := gr.CheckLegal(r1); err != nil {
		t.Fatal(err)
	}

	elws0 := elw.Exact(gr, r0, in.Params, 0)
	elws1 := elw.Exact(gr, r1, in.Params, 0)
	// A and B are vertices 1 and 2.
	for _, v := range []graph.VertexID{1, 2} {
		grow := elws1[v].Measure() - elws0[v].Measure()
		if math.Abs(grow-1) > 1e-9 {
			t.Fatalf("|ELW(%s)| grew by %g, want 1", gr.Name(v), grow)
		}
	}
	an0 := ser.Compute(gr, r0, in)
	an1 := ser.Compute(gr, r1, in)
	if an1.RegisterObs >= an0.RegisterObs {
		t.Fatalf("register obs did not fall: %g -> %g", an0.RegisterObs, an1.RegisterObs)
	}
	if an1.Total <= an0.Total {
		t.Fatalf("SER did not worsen: %g -> %g", an0.Total, an1.Total)
	}
}

// TestFigure2ActiveConstraints drives the optimizer into each of the three
// violation kinds of Figure 2 and checks they are detected and repaired.
func TestFigure2ActiveConstraints(t *testing.T) {
	// (a) P0: chain with a positive-gain sink whose move drains an empty
	// edge, dragging its predecessor.
	b := graph.NewBuilder()
	u := b.AddVertex("u", 1)
	v := b.AddVertex("v", 1)
	b.AddEdge(graph.Host, u, 1)
	b.AddEdge(u, v, 0)
	b.AddEdge(v, graph.Host, 1)
	g := b.Build()
	gains := []int64{0, -1, 10}
	obsI := []int64{1, 1, 1}
	res, err := core.Minimize(context.Background(), g, gains, obsI, core.Options{Phi: 100, Th: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations[core.KindP0] == 0 {
		t.Fatalf("no P0 repair recorded: %v", res.Violations)
	}
	if res.R[v] == 0 || res.R[u] == 0 {
		t.Fatalf("P0 constraint should have moved both u and v: %v", res.R)
	}

	// (b) P1': a move that would merge a critical path must be repaired
	// (tested against the tight-period graph of the core tests).
	b2 := graph.NewBuilder()
	a2 := b2.AddVertex("a", 5)
	v2 := b2.AddVertex("b", 5)
	b2.AddEdge(graph.Host, a2, 0)
	b2.AddEdge(a2, v2, 1)
	b2.AddEdge(v2, graph.Host, 0)
	g2 := b2.Build()
	res2, err := core.Minimize(context.Background(), g2, []int64{0, -100, 800}, []int64{500, 900, 100},
		core.Options{Phi: 6, Th: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Violations[core.KindP1] == 0 && res2.Violations[core.KindP0] == 0 {
		t.Fatalf("no P1'/P0 repair recorded: %v", res2.Violations)
	}
	if res2.Objective != res2.Initial {
		t.Fatalf("tight period must block the move (obj %d -> %d)", res2.Initial, res2.Objective)
	}

	// (c) P2': the shortened register-launched path must be repaired (the
	// p2Graph of the core tests, via the public pipeline semantics).
	b3 := graph.NewBuilder()
	a3 := b3.AddVertex("A", 5)
	v3 := b3.AddVertex("B", 1)
	c3 := b3.AddVertex("C", 5)
	b3.AddEdge(graph.Host, a3, 0)
	b3.AddEdge(a3, v3, 1)
	b3.AddEdge(v3, c3, 0)
	b3.AddEdge(c3, graph.Host, 0)
	g3 := b3.Build()
	res3, err := core.Minimize(context.Background(), g3, []int64{0, -900, 800, -100}, []int64{500, 900, 100, 500},
		core.Options{Phi: 100, Th: 2, Rmin: 6, ELWConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Violations[core.KindP2] == 0 {
		t.Fatalf("no P2' repair recorded: %v", res3.Violations)
	}
	if res3.R[v3] != 0 {
		t.Fatalf("P2' should have blocked the move: r = %v", res3.R)
	}
}
