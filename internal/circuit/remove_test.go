package circuit_test

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"serretime"
	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
	"serretime/internal/guard"
)

// A circuit never changes once built, so a node is removed by the
// rm_node op of an ECO delta: serretime.ApplyDeltaOps builds the circuit
// without it through circuit.FromNodes. The tests below check the
// circuits that come out.

// buildECO returns a small circuit: a, b inputs; g1 = AND(a,b);
// g2 = OR(g1,a); d = DFF(g2); PO g2.
func buildECO(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := circuit.NewBuilder("eco").PI("a").PI("b").
		Gate("g1", circuit.FnAnd, "a", "b").
		Gate("g2", circuit.FnOr, "g1", "a").
		DFF("d", "g2").PO("g2").Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func rmNode(name string) serretime.DeltaOp {
	return serretime.DeltaOp{Op: "rm_node", Name: name}
}

func mustApply(t *testing.T, c *circuit.Circuit, ops ...serretime.DeltaOp) *circuit.Circuit {
	t.Helper()
	out, err := serretime.ApplyDeltaOps(c, ops)
	if err != nil {
		t.Fatalf("ApplyDeltaOps(%+v): %v", ops, err)
	}
	return out
}

// mustReject requires ops to be refused with a typed parse error.
func mustReject(t *testing.T, c *circuit.Circuit, what string, ops ...serretime.DeltaOp) {
	t.Helper()
	if _, err := serretime.ApplyDeltaOps(c, ops); !errors.Is(err, guard.ErrParse) {
		t.Fatalf("%s: err = %v, want guard.ErrParse", what, err)
	}
}

func TestRemoveNode(t *testing.T) {
	c := buildECO(t)

	// Guarded: g1 is read by g2; g2 is a PO; d reads g2.
	mustReject(t, c, "removed a node with readers", rmNode("g1"))
	c = mustApply(t, c, rmNode("d"))
	if _, ok := c.Lookup("d"); ok {
		t.Fatalf("d still resolvable after removal")
	}
	mustReject(t, c, "removed a primary output", rmNode("g2"))
	c = mustApply(t, c, serretime.DeltaOp{Op: "unmark_po", Name: "g2"})
	c = mustApply(t, c, rmNode("g2"))

	// IDs above the removed nodes shifted down; names stay coherent.
	if err := c.Validate(); err != nil {
		t.Fatalf("validate after removals: %v", err)
	}
	g1, ok := c.Lookup("g1")
	if !ok {
		t.Fatalf("g1 lost")
	}
	if got := c.Node(g1).Fanout; len(got) != 0 {
		t.Fatalf("g1 keeps stale fanout %v", got)
	}
	if got := c.NumNodes(); got != 3 {
		t.Fatalf("NumNodes = %d, want 3", got)
	}
	for i, name := range []string{"a", "b", "g1"} {
		id, ok := c.Lookup(name)
		if !ok || id != circuit.NodeID(i) || c.Node(id).Name != name {
			t.Fatalf("name map broken for %q", name)
		}
	}

	// A node reading the same driver through two pins releases it fully.
	c = mustApply(t, c, serretime.DeltaOp{Op: "add_gate", Name: "g3", Fn: "AND", Fanin: []string{"g1", "g1"}})
	c = mustApply(t, c, rmNode("g3"))
	if got := c.Node(g1).Fanout; len(got) != 0 {
		t.Fatalf("double-pin removal left fanout %v on g1", got)
	}

	// Fanins that point above a removed node are renumbered with it.
	c = mustApply(t, c,
		serretime.DeltaOp{Op: "add_gate", Name: "x", Fn: "BUF", Fanin: []string{"b"}},
		serretime.DeltaOp{Op: "add_gate", Name: "y", Fn: "NOT", Fanin: []string{"x"}})
	c = mustApply(t, c, rmNode("g1"))
	x, _ := c.Lookup("x")
	y, ok := c.Lookup("y")
	if !ok || x != 2 || !slices.Equal(c.Node(y).Fanin, []circuit.NodeID{x}) {
		t.Fatalf("after removing g1: x = %d, y reads %v, want x = 2 read by y", x, c.Node(y).Fanin)
	}
}

// TestRemoveNodeKeepsEqualCircuitsAligned is the ECO bit-alignment
// contract: two equal circuits receiving the same delta stream stay
// equal node for node. The second circuit is the first's .bench round
// trip, as an ECO client holds it.
func TestRemoveNodeKeepsEqualCircuitsAligned(t *testing.T) {
	a := buildECO(t)
	var buf bytes.Buffer
	if err := benchfmt.Write(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := benchfmt.Parse(&buf, "eco")
	if err != nil {
		t.Fatal(err)
	}
	stream := [][]serretime.DeltaOp{
		{rmNode("d"), {Op: "rewire", Name: "g1", Fanin: []string{"b", "a"}}},
		{{Op: "add_gate", Name: "x", Fn: "XOR", Fanin: []string{"g2", "b"}}, {Op: "mark_po", Name: "x"}},
		{{Op: "unmark_po", Name: "g2"}, {Op: "rewire", Name: "x", Fanin: []string{"g1", "b"}}, rmNode("g2")},
	}
	for k, ops := range stream {
		a, b = mustApply(t, a, ops...), mustApply(t, b, ops...)
		if a.NumNodes() != b.NumNodes() {
			t.Fatalf("delta %d: node counts diverged: %d vs %d", k, a.NumNodes(), b.NumNodes())
		}
		for i := 0; i < a.NumNodes(); i++ {
			na, nb := a.Node(circuit.NodeID(i)), b.Node(circuit.NodeID(i))
			if na.Name != nb.Name || na.Kind != nb.Kind || na.Fn != nb.Fn ||
				!slices.Equal(na.Fanin, nb.Fanin) || !slices.Equal(na.Fanout, nb.Fanout) {
				t.Fatalf("delta %d: node %d diverged: %+v vs %+v", k, i, *na, *nb)
			}
		}
		if !slices.Equal(a.POs(), b.POs()) {
			t.Fatalf("delta %d: POs diverged: %v vs %v", k, a.POs(), b.POs())
		}
	}
}
