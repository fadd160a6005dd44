package eco

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"serretime"
	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
)

func load(t *testing.T, name string) *circuit.Circuit {
	t.Helper()
	c, err := benchfmt.ParseFile("../../testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// format renders a delta as one line, e.g. "rewire G9 [G16 G11]".
func format(ops []serretime.DeltaOp) string {
	parts := make([]string, len(ops))
	for i, op := range ops {
		parts[i] = strings.TrimSpace(fmt.Sprintf("%s %s %s", op.Op, op.Name, op.Fn))
		if op.Fanin != nil {
			parts[i] += fmt.Sprintf(" %v", op.Fanin)
		}
	}
	return strings.Join(parts, "; ")
}

// sameNodes reports how got differs from want: names, kinds, functions,
// fanins, fanouts, primary inputs and outputs, and topological order.
func sameNodes(got, want *circuit.Circuit) error {
	if got.NumNodes() != want.NumNodes() {
		return fmt.Errorf("%d nodes, want %d", got.NumNodes(), want.NumNodes())
	}
	for i := 0; i < got.NumNodes(); i++ {
		g, w := got.Node(circuit.NodeID(i)), want.Node(circuit.NodeID(i))
		if g.Name != w.Name || g.Kind != w.Kind || g.Fn != w.Fn ||
			!slices.Equal(g.Fanin, w.Fanin) || !slices.Equal(g.Fanout, w.Fanout) {
			return fmt.Errorf("node %d: %+v, want %+v", i, *g, *w)
		}
	}
	if !slices.Equal(got.PIs(), want.PIs()) || !slices.Equal(got.POs(), want.POs()) {
		return fmt.Errorf("PIs %v POs %v, want %v %v", got.PIs(), got.POs(), want.PIs(), want.POs())
	}
	if !slices.Equal(got.TopoOrder(), want.TopoOrder()) {
		return fmt.Errorf("topological order differs")
	}
	return nil
}

// TestGenDeterministic: the stream depends only on the base and the seed.
func TestGenDeterministic(t *testing.T) {
	base := load(t, "s27.bench")
	a, b, other := NewGen(base, 7), NewGen(base, 7), NewGen(base, 8)
	differs := false
	for i := 0; i < 32; i++ {
		oa, err := a.Next()
		if err != nil {
			t.Fatal(err)
		}
		ob, err := b.Next()
		if err != nil {
			t.Fatal(err)
		}
		oo, err := other.Next()
		if err != nil {
			t.Fatal(err)
		}
		if format(oa) != format(ob) {
			t.Fatalf("delta %d: %q and %q from the same base and seed", i, format(oa), format(ob))
		}
		differs = differs || format(oa) != format(oo)
	}
	if !differs {
		t.Fatal("seeds 7 and 8 gave the same 32 deltas")
	}
}

// TestGenMirror: after each Next, the mirror is what ApplyDeltaOps makes
// of the previous mirror with the returned ops, and parsing Bench gives
// it back node for node, so a cold solve of those bytes is an exact
// oracle for the session's delta solve.
func TestGenMirror(t *testing.T) {
	for _, name := range []string{"s27.bench", "pipeline4.bench"} {
		g := NewGen(load(t, name), 3)
		for i := 0; i < 32; i++ {
			prev := g.Circuit()
			ops, err := g.Next()
			if err != nil {
				t.Fatalf("%s: delta %d: %v", name, i, err)
			}
			want, err := serretime.ApplyDeltaOps(prev, ops)
			if err != nil {
				t.Fatalf("%s: delta %d %q: %v", name, i, format(ops), err)
			}
			if err := sameNodes(g.Circuit(), want); err != nil {
				t.Fatalf("%s: delta %d %q: mirror: %v", name, i, format(ops), err)
			}
			b, err := g.Bench()
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := benchfmt.Parse(bytes.NewReader(b), name)
			if err != nil {
				t.Fatalf("%s: delta %d: Bench does not parse: %v", name, i, err)
			}
			if err := sameNodes(parsed, g.Circuit()); err != nil {
				t.Fatalf("%s: delta %d %q: parsed Bench: %v", name, i, format(ops), err)
			}
		}
	}
}

// TestGenPar2500 applies 64 deltas to a mid-size netlist.
func TestGenPar2500(t *testing.T) {
	g := NewGen(load(t, "par2500.bench"), 1)
	for i := 0; i < 64; i++ {
		if _, err := g.Next(); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
}

// TestGenGolden pins the topological order of two small bases and a
// short stream on one of them. rewire ranks its candidates by
// Circuit.TopoOrder, so perfbench's eco delta stream, and the digests
// pinned for it, change whenever that order does. A stream probes only
// the pairs of gates it draws, so the orders are pinned outright.
func TestGenGolden(t *testing.T) {
	for name, want := range map[string]string{
		"s27.bench":       "G0 G1 G2 G3 G5 G6 G7 G14 G12 G8 G13 G15 G16 G9 G11 G17 G10",
		"pipeline4.bench": "a b c n1 n2 r1 r2 n3 r3 r4 n5 r5 fb y n4 z",
	} {
		c := load(t, name)
		var got []string
		for _, id := range c.TopoOrder() {
			got = append(got, c.Node(id).Name)
		}
		if strings.Join(got, " ") != want {
			t.Errorf("%s: TopoOrder = %v, want [%s]", name, got, want)
		}
	}
	g := NewGen(load(t, "pipeline4.bench"), 1)
	for i, want := range []string{
		"rewire n4 [r1 r2]",
		"rewire n3 [c r2]",
		"add_gate eco_add_3 AND [z n5]; mark_po eco_add_3",
		"rewire z [r4 fb]",
		"rewire n4 [r1 c]",
		"mark_po n4",
		"add_gate eco_add_7 AND [n5 n2]; mark_po eco_add_7",
		"unmark_po eco_add_3; rm_node eco_add_3",
	} {
		ops, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got := format(ops); got != want {
			t.Errorf("delta %d = %q, want %q", i, got, want)
		}
	}
}
