package bliffmt

import (
	"errors"
	"strings"
	"testing"

	"serretime/internal/circuit"
	"serretime/internal/graph"
	"serretime/internal/guard"
)

// FuzzParseBLIF checks the robustness contract of the BLIF reader: any
// byte stream either parses into a circuit or yields an error
// unwrapping to guard.ErrParse — it must never panic or return
// (nil, nil). A parsed circuit must pass checkBuilt.
func FuzzParseBLIF(f *testing.F) {
	f.Add(".model s27\n.inputs a b\n.outputs y\n.latch d q re clk 2\n.names a b y\n11 1\n.end\n")
	f.Add(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n")
	f.Add(".names a b y\n1- 1\n-1 1\n")
	f.Add(".names y\n1\n")
	f.Add(".latch\n")
	f.Add(".names a y\n11 1\n")
	f.Add("1 1\n")
	f.Add(".inputs a \\\nb c\n.outputs y\n.names a b c y\n111 1\n.end\n")
	f.Add(".model m\n.inputs a\n.outputs g\n.latch q q re clk 0\n.names a q g\n11 1\n.end\n")
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
		var sb strings.Builder
		if werr := Write(&sb, c); werr != nil {
			t.Fatalf("round-trip write failed: %v", werr)
		}
		if _, rerr := Parse(strings.NewReader(sb.String()), "fuzz2"); rerr != nil {
			t.Fatalf("round-trip re-parse failed: %v\noutput:\n%s", rerr, sb.String())
		}
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
