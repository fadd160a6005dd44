package gen

import (
	"context"
	"math"
	"testing"

	"serretime/internal/circuit"
	"serretime/internal/graph"
	"serretime/internal/retime"
)

func TestGenerateSmall(t *testing.T) {
	c, err := Generate(Spec{Name: "tiny", Gates: 50, Conns: 110, FFs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	_, _, gates, dffs := c.Counts()
	if gates != 50 || dffs != 10 {
		t.Fatalf("counts: %d gates, %d dffs", gates, dffs)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Spec{Name: "det", Gates: 80, Conns: 170, FFs: 12})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Spec{Name: "det", Gates: 80, Conns: 170, FFs: 12})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != b.NumNodes() {
		t.Fatal("nondeterministic node count")
	}
	for i := 0; i < a.NumNodes(); i++ {
		na, nb := a.Node(circuit.NodeID(i)), b.Node(circuit.NodeID(i))
		if na.Name != nb.Name || na.Fn != nb.Fn || len(na.Fanin) != len(nb.Fanin) {
			t.Fatalf("node %d differs", i)
		}
	}
	c, err := Generate(Spec{Name: "det2", Gates: 80, Conns: 170, FFs: 12})
	if err != nil {
		t.Fatal(err)
	}
	same := c.NumNodes() == a.NumNodes()
	if same {
		for i := 0; i < a.NumNodes() && same; i++ {
			na, nc := a.Node(circuit.NodeID(i)), c.Node(circuit.NodeID(i))
			same = na.Name == nc.Name && na.Fn == nc.Fn && len(na.Fanin) == len(nc.Fanin)
			if same {
				for j := range na.Fanin {
					if na.Fanin[j] != nc.Fanin[j] {
						same = false
					}
				}
			}
		}
	}
	if same {
		t.Fatal("different names produced identical circuits")
	}
}

func TestGenerateStatisticsAccuracy(t *testing.T) {
	s := Spec{Name: "stats", Gates: 2000, Conns: 4400, FFs: 600}
	c, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromCircuit(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumGates() != s.Gates {
		t.Fatalf("|V| = %d, want %d", g.NumGates(), s.Gates)
	}
	// |E| within 15% of the target (PO padding adds slack).
	if dev := math.Abs(float64(g.NumEdges()-s.Conns)) / float64(s.Conns); dev > 0.15 {
		t.Fatalf("|E| = %d, target %d (dev %.0f%%)", g.NumEdges(), s.Conns, dev*100)
	}
	if got := g.SharedRegisters(graph.NewRetiming(g)); got < int64(s.FFs) {
		t.Fatalf("registers = %d, want >= %d", got, s.FFs)
	}
}

func TestGenerateNoDangling(t *testing.T) {
	c, err := Generate(Spec{Name: "dangle", Gates: 300, Conns: 700, FFs: 60})
	if err != nil {
		t.Fatal(err)
	}
	// Every gate must have a fanout or be a primary output.
	isPO := make(map[circuit.NodeID]bool)
	for _, po := range c.POs() {
		isPO[po] = true
	}
	for _, id := range c.NodesOfKind(circuit.KindGate) {
		if len(c.Node(id).Fanout) == 0 && !isPO[id] {
			t.Fatalf("gate %q dangles", c.Node(id).Name)
		}
	}
}

func TestGenerateRetimable(t *testing.T) {
	c, err := Generate(Spec{Name: "retimable", Gates: 400, Conns: 900, FFs: 120, Depth: 25})
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromCircuit(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	init, err := retime.Initialize(context.Background(), g, retime.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckLegal(init.R); err != nil {
		t.Fatal(err)
	}
	if init.Phi <= 0 || init.Rmin <= 0 {
		t.Fatalf("init: %+v", init)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Generate(Spec{Name: "x", Gates: 2, Conns: 4, FFs: 1}); err == nil {
		t.Fatal("tiny gate count accepted")
	}
	if _, err := Generate(Spec{Name: "x", Gates: 10, Conns: 20, FFs: 0}); err == nil {
		t.Fatal("zero FFs accepted")
	}
	if _, err := Generate(Spec{Name: "x", Gates: 10, Conns: 5, FFs: 1}); err == nil {
		t.Fatal("too few connections accepted")
	}
}

func TestTableISpecs(t *testing.T) {
	if len(TableI) != 21 {
		t.Fatalf("Table I has %d rows, want 21", len(TableI))
	}
	for _, s := range TableI {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if s.PaperPhi <= 0 || s.PaperSER <= 0 {
			t.Errorf("%s: missing paper numbers", s.Name)
		}
	}
	if _, err := FindTableI("s13207"); err != nil {
		t.Fatal(err)
	}
	if _, err := FindTableI("nope"); err == nil {
		t.Fatal("unknown circuit found")
	}
}

func TestTableIGenerateSmallest(t *testing.T) {
	s, _ := FindTableI("b14_1_opt")
	c, err := Generate(s.Spec)
	if err != nil {
		t.Fatal(err)
	}
	_, _, gates, dffs := c.Counts()
	if gates != 4049 || dffs != 2382 {
		t.Fatalf("counts: %d %d", gates, dffs)
	}
	g, err := graph.FromCircuit(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestScale(t *testing.T) {
	s, _ := FindTableI("b19")
	sc := s.Scale(16)
	if sc.Gates != 224625/16 || sc.FFs != 60801/16 {
		t.Fatalf("scaled: %+v", sc.Spec)
	}
	if s.Scale(1).Gates != s.Gates {
		t.Fatal("scale 1 must be identity")
	}
	if _, err := Generate(sc.Spec); err != nil {
		t.Fatal(err)
	}
}
