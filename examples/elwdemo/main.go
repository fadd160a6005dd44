// ELW demo: reproduces the scenario of Figure 1 in the paper — a register
// relocation that reduces register observability yet *worsens* the overall
// SER, because it enlarges the error-latching windows of the gates in its
// fanin cone. This is the effect MinObsWin's P2' constraint exists to
// prevent.
//
// The circuit: gates A and B feed F and also drive primary outputs of
// their own; F drives a register whose output reaches a primary output
// through G:
//
//	A(d=2) ─┬────────────────────────── PO
//	        ├─ F(d=1) ─[FF]─ G(d=2) ─── PO
//	B(d=2) ─┴────────────────────────── PO
//
// F is highly observable (obs 0.6), G less so (0.4): moving the register
// forward across G lowers the register's observability — but A's and B's
// error-latching windows are the union of their direct latching window and
// the one propagated through F, and the longer F→G path pushes the latter
// further out, growing |ELW(A)| and |ELW(B)| by 1 each (the paper's
// Figure 1 annotation).
//
// Run from the repository root:
//
//	go run ./examples/elwdemo
package main

import (
	"fmt"
	"log"

	"serretime/internal/elw"
	"serretime/internal/graph"
	"serretime/internal/ser"
)

func main() {
	b := graph.NewBuilder()
	a := b.AddVertex("A", 2)
	bb := b.AddVertex("B", 2)
	f := b.AddVertex("F", 1)
	gg := b.AddVertex("G", 2)
	b.AddEdge(graph.Host, a, 0)
	b.AddEdge(graph.Host, bb, 0)
	b.AddEdge(a, f, 0)
	b.AddEdge(bb, f, 0)
	b.AddEdge(f, gg, 1) // the register under discussion
	b.AddEdge(gg, graph.Host, 0)
	b.AddEdge(a, graph.Host, 0) // A and B are also observed directly
	b.AddEdge(bb, graph.Host, 0)
	g := b.Build()

	// Annotated observabilities in the spirit of Figure 1.
	gateObs := []float64{0, 0.7, 0.7, 0.6, 0.4}
	edgeObs := ser.EdgeObsFromVertex(g, gateObs, 0.5)
	gateRate := []float64{0, 1e-4, 1e-4, 1e-4, 1e-4}
	p := elw.Params{Phi: 8, Ts: 0, Th: 2}

	show := func(title string, r graph.Retiming) *ser.Analysis {
		elws := elw.Exact(g, r, p, 0)
		an := ser.Compute(g, r, ser.Inputs{
			GateObs: gateObs, EdgeObs: edgeObs, GateRate: gateRate,
			RegRate: 2e-4, Params: p,
		})
		fmt.Printf("%s\n", title)
		for v := 1; v < g.NumVertices(); v++ {
			fmt.Printf("  ELW(%s) = %v  (|ELW| = %g)\n",
				g.Name(graph.VertexID(v)), elws[v], elws[v].Measure())
		}
		fmt.Printf("  register obs = %.2f, SER = %.4e (gates %.2e + regs %.2e)\n\n",
			an.RegisterObs, an.Total, an.Gates, an.Registers)
		return an
	}

	before := show("Before: register between F and G (obs 0.6)", graph.NewRetiming(g))

	// Move the register forward across G (r(G) = -1): it now sits at the
	// primary output with observability 0.4.
	r := graph.NewRetiming(g)
	r[gg] = -1
	if err := g.CheckLegal(r); err != nil {
		log.Fatal(err)
	}
	after := show("After: register moved past G (obs 0.4)", r)

	fmt.Printf("register observability fell %.2f -> %.2f, ", before.RegisterObs, after.RegisterObs)
	if after.Total > before.Total {
		fmt.Printf("yet SER rose %.3e -> %.3e (+%.1f%%):\n",
			before.Total, after.Total, 100*(after.Total-before.Total)/before.Total)
		fmt.Println("the larger error-latching windows of A, B and F outweigh the")
		fmt.Println("logic-masking gain — exactly the trade-off Figure 1 illustrates")
		fmt.Println("and the ELW constraint P2' of MinObsWin guards against.")
	} else {
		fmt.Println("and SER also fell — adjust the parameters to see the trade-off.")
	}
}
