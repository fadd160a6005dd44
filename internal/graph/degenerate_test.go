package graph

import (
	"testing"

	"serretime/internal/circuit"
)

// Degenerate FromCircuit inputs. A netlist with no gate other than a
// constant has no retiming graph worth the name and no clock period, so
// circuit construction rejects it, as it rejects a loop of flip-flops
// with no gate. Beside a gate, a connection that carries no retimable
// logic extracts to nothing.

func TestFromCircuitZeroGates(t *testing.T) {
	b := circuit.NewBuilder("wire")
	b.PI("a")
	b.PO("a")
	if _, err := b.Build(); err == nil {
		t.Fatal("a PI->PO wire with no gate built")
	}
	// Beside a gate the wire extracts to nothing: only the x->g pin and
	// the g->host PO edge remain.
	b.PI("x")
	b.Gate("g", circuit.FnNot, "x")
	b.PO("g")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := FromCircuit(c)
	if g.NumVertices() != 2 || g.NumEdges() != 2 {
		t.Fatalf("wire beside a gate: got %d vertices, %d edges; want 2 and 2",
			g.NumVertices(), g.NumEdges())
	}
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	if got := len(g.ZeroWeightTopo(NewRetiming(g))); got != 1 {
		t.Fatalf("ZeroWeightTopo ordered %d vertices, want 1", got)
	}
}

func TestFromCircuitRegisteredWire(t *testing.T) {
	// PI -> DFF -> PO: registers with no gate anywhere on the path carry
	// no retimable logic, and alone they do not build.
	// (TestFromCircuitPIPODropped extracts one beside a gate.)
	b := circuit.NewBuilder("regwire")
	b.PI("a")
	b.DFF("q", "a")
	b.PO("q")
	if _, err := b.Build(); err == nil {
		t.Fatal("a registered PI->PO wire with no gate built")
	}
}
