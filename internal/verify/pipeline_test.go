package verify

import (
	"context"
	"testing"

	"serretime/internal/core"
	"serretime/internal/gen"
	"serretime/internal/graph"
	"serretime/internal/retime"
)

// TestOptimizerMovesEquivalentOnGenerated runs the full optimization on
// synthetic circuits and proves the optimizer's forward move sequentially
// equivalent by exact state transport and co-simulation — the end-to-end
// correctness property of the whole pipeline.
func TestOptimizerMovesEquivalentOnGenerated(t *testing.T) {
	for _, spec := range []gen.Spec{
		{Name: "veq-sparse", Gates: 300, Conns: 450, FFs: 80, Depth: 20},
		{Name: "veq-dense", Gates: 300, Conns: 700, FFs: 90, Depth: 15},
		{Name: "veq-shallow", Gates: 200, Conns: 460, FFs: 60, Depth: 9},
	} {
		c, err := gen.Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		g := graph.FromCircuit(c)
		init, err := retime.Initialize(context.Background(), g, retime.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		base, err := g.Rebase(init.R)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		// Synthetic observabilities keyed by vertex id (deterministic).
		gateObs := make([]float64, base.NumVertices())
		for v := 1; v < base.NumVertices(); v++ {
			gateObs[v] = float64((v*7919)%100) / 100
		}
		edgeObs := make([]float64, base.NumEdges())
		for e := 0; e < base.NumEdges(); e++ {
			ed := base.Edge(graph.EdgeID(e))
			if ed.From == graph.Host {
				edgeObs[e] = 0.5
			} else {
				edgeObs[e] = gateObs[ed.From]
			}
		}
		gains, obsInt, err := core.Gains(base, gateObs, edgeObs, 256)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		res, err := core.Minimize(context.Background(), base, gains, obsInt, core.Options{
			Phi: init.Phi, Ts: 0, Th: 2, Rmin: init.Rmin, ELWConstraints: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		// Materialize the initialized circuit and transfer the move.
		rb, err := graph.Rebuild(c, g, init.R)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		g1 := graph.FromCircuit(rb.C)
		r1 := graph.NewRetiming(g1)
		moved := 0
		for v := 1; v < base.NumVertices(); v++ {
			if res.R[v] == 0 {
				continue
			}
			n1, ok := rb.C.Lookup(base.Name(graph.VertexID(v)))
			if !ok {
				t.Fatalf("%s: gate %q lost", spec.Name, base.Name(graph.VertexID(v)))
			}
			v1, ok := g1.VertexOf(n1)
			if !ok {
				t.Fatalf("%s: gate %q not a vertex", spec.Name, base.Name(graph.VertexID(v)))
			}
			r1[v1] = res.R[v]
			moved++
		}
		if err := ForwardEquivalent(rb.C, g1, r1, DefaultOptions()); err != nil {
			t.Fatalf("%s: equivalence: %v", spec.Name, err)
		}
		t.Logf("%s: %d gates moved, equivalence verified", spec.Name, moved)
	}
}
