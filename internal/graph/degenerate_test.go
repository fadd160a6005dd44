package graph

import (
	"testing"

	"serretime/internal/circuit"
)

// Degenerate FromCircuit inputs: extractions with no retimable logic must
// produce a consistent (if trivial) graph. (A loop of flip-flops with no
// gate has no graph; circuit.FromNodes rejects it.)

func TestFromCircuitZeroGates(t *testing.T) {
	b := circuit.NewBuilder("wire")
	b.PI("a")
	b.PO("a")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := FromCircuit(c)
	if g.NumVertices() != 1 || g.NumEdges() != 0 {
		t.Fatalf("wire circuit: got %d vertices, %d edges; want host only",
			g.NumVertices(), g.NumEdges())
	}
	// The empty graph must still pass its own invariants and support the
	// core queries without panicking.
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	if got := len(g.Out(Host)); got != 0 {
		t.Fatalf("host out-degree %d, want 0", got)
	}
	if _, err := g.ZeroWeightTopo(nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromCircuitRegisteredWire(t *testing.T) {
	// PI -> DFF -> PO: registers with no gate anywhere on the path carry no
	// retimable logic and are dropped entirely.
	b := circuit.NewBuilder("regwire")
	b.PI("a")
	b.DFF("q", "a")
	b.PO("q")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := FromCircuit(c)
	if g.NumVertices() != 1 || g.NumEdges() != 0 {
		t.Fatalf("registered wire: got %d vertices, %d edges; want host only",
			g.NumVertices(), g.NumEdges())
	}
}
