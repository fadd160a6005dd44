package vlogfmt

import (
	"errors"
	"strings"
	"testing"

	"serretime/internal/circuit"
	"serretime/internal/graph"
	"serretime/internal/guard"
)

// FuzzParseVerilog checks the robustness contract of the structural
// Verilog reader: any byte stream either parses into a circuit or
// yields an error unwrapping to guard.ErrParse — it must never panic
// or return (nil, nil). A parsed circuit must pass checkBuilt.
func FuzzParseVerilog(f *testing.F) {
	f.Add("module m(a, y);\ninput a;\noutput y;\nnot n1(y, a);\nendmodule\n")
	f.Add("module m(a, b, y);\ninput a, b;\noutput y;\nwire w;\nand g1(w, a, b);\ndff r1(y, w);\nendmodule\n")
	f.Add("module m;\n/* block\ncomment */ endmodule\n")
	f.Add("module ;\n")
	f.Add("assign y = a;\n")
	f.Add("module m(y);\noutput y;\nand g1(y);\nendmodule\n")
	f.Add("not n1(y, a);\n")
	f.Add("module m(a, g);\ninput a;\noutput g;\ndff r0(q, q);\nand g0(g, a, q);\nendmodule\n")
	f.Fuzz(func(t *testing.T, input string) {
		c, err := Parse(strings.NewReader(input), "fuzz")
		if err != nil {
			if !errors.Is(err, guard.ErrParse) {
				t.Fatalf("error does not unwrap to guard.ErrParse: %v", err)
			}
			return
		}
		if c == nil {
			t.Fatal("nil circuit with nil error")
		}
		checkBuilt(t, c)
	})
}

// checkBuilt requires what every built circuit guarantees: a retiming
// graph that passes Check, and a TopoOrder that lists each node once,
// every gate after its gate fanins.
func checkBuilt(t *testing.T, c *circuit.Circuit) {
	t.Helper()
	if err := graph.FromCircuit(c).Check(); err != nil {
		t.Fatalf("retiming graph: %v", err)
	}
	rank := make([]int, c.NumNodes()) // 1 + position in TopoOrder; 0 = not listed
	for i, id := range c.TopoOrder() {
		if rank[id] != 0 {
			t.Fatalf("TopoOrder lists node %d twice", id)
		}
		rank[id] = i + 1
	}
	for id, r := range rank {
		nd := c.Node(circuit.NodeID(id))
		if r == 0 {
			t.Fatalf("TopoOrder leaves out node %q", nd.Name)
		}
		for _, f := range nd.Fanin {
			if nd.Kind == circuit.KindGate && c.Node(f).Kind == circuit.KindGate && rank[f] >= r {
				t.Fatalf("TopoOrder puts gate %q before its fanin %q", nd.Name, c.Node(f).Name)
			}
		}
	}
}
