package circuit

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// buildS27ish constructs a small sequential circuit reminiscent of s27:
// 4 PIs, 3 DFFs, a handful of gates, 1 PO.
func buildS27ish(t testing.TB) *Circuit {
	t.Helper()
	b := NewBuilder("s27ish")
	b.PI("G0").PI("G1").PI("G2").PI("G3")
	b.Gate("n1", FnNot, "G0")
	b.Gate("n2", FnAnd, "G1", "G2")
	b.Gate("n3", FnOr, "n1", "n2")
	b.DFF("q1", "n3")
	b.Gate("n4", FnNor, "q1", "G3")
	b.DFF("q2", "n4")
	b.Gate("n5", FnNand, "q2", "n3")
	b.DFF("q3", "n5")
	b.Gate("n6", FnXor, "q3", "n4")
	b.PO("n6")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFuncEval(t *testing.T) {
	a, b := uint64(0b1100), uint64(0b1010)
	cases := []struct {
		fn   Func
		in   []uint64
		want uint64
	}{
		{FnBuf, []uint64{a}, a},
		{FnNot, []uint64{a}, ^a},
		{FnAnd, []uint64{a, b}, a & b},
		{FnNand, []uint64{a, b}, ^(a & b)},
		{FnOr, []uint64{a, b}, a | b},
		{FnNor, []uint64{a, b}, ^(a | b)},
		{FnXor, []uint64{a, b}, a ^ b},
		{FnXnor, []uint64{a, b}, ^(a ^ b)},
		{FnConst0, nil, 0},
		{FnConst1, nil, ^uint64(0)},
		{FnAnd, []uint64{a, b, ^uint64(0)}, a & b},
		{FnXor, []uint64{a, b, a}, b},
	}
	for _, tc := range cases {
		if got := tc.fn.Eval(tc.in); got != tc.want {
			t.Errorf("%s.Eval(%x) = %x, want %x", tc.fn, tc.in, got, tc.want)
		}
	}
}

func TestFuncArity(t *testing.T) {
	if FnNot.MinInputs() != 1 || FnNot.MaxInputs() != 1 {
		t.Error("NOT arity wrong")
	}
	if FnAnd.MinInputs() != 2 || FnAnd.MaxInputs() != -1 {
		t.Error("AND arity wrong")
	}
	if FnConst1.MinInputs() != 0 || FnConst1.MaxInputs() != 0 {
		t.Error("CONST1 arity wrong")
	}
}

func TestAddAndLookup(t *testing.T) {
	c := buildS27ish(t)
	id, ok := c.Lookup("n4")
	if !ok {
		t.Fatal("n4 not found")
	}
	if c.Node(id).Fn != FnNor {
		t.Fatalf("n4 Fn = %v", c.Node(id).Fn)
	}
	if _, ok := c.Lookup("nope"); ok {
		t.Fatal("found nonexistent node")
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	if _, err := NewBuilder("dup").PI("a").PI("a").Build(); err == nil {
		t.Fatal("Builder accepted a duplicate name")
	}
	if _, err := NewBuilder("dup").PI("a").Gate("", FnNot, "a").Build(); err == nil {
		t.Fatal("Builder accepted an empty name")
	}
	if _, err := FromNodes("dup", []Node{{Name: "a"}, {Name: "a"}}, nil); err == nil {
		t.Fatal("FromNodes accepted a duplicate name")
	}
	if _, err := FromNodes("dup", []Node{{Name: "a"}, {Name: "", Kind: KindGate, Fn: FnNot, Fanin: []NodeID{0}}}, nil); err == nil {
		t.Fatal("FromNodes accepted an empty name")
	}
}

func TestBadFanin(t *testing.T) {
	if _, err := FromNodes("bad", []Node{{Name: "g", Kind: KindGate, Fn: FnNot, Fanin: []NodeID{99}}}, nil); err == nil {
		t.Fatal("unknown fanin accepted")
	}
	if _, err := NewBuilder("bad").PI("a").Gate("g", FnNot, "a", "a").Build(); err == nil {
		t.Fatal("NOT with 2 inputs accepted")
	}
	if _, err := NewBuilder("bad").PI("a").Gate("g", FnAnd, "a").Build(); err == nil {
		t.Fatal("AND with 1 input accepted")
	}
	if _, err := NewBuilder("bad").PI("a").Gate("g", FnNot, "b").Build(); err == nil {
		t.Fatal("undeclared fanin accepted")
	}
}

func TestCounts(t *testing.T) {
	c := buildS27ish(t)
	pis, pos, gates, dffs := c.Counts()
	if pis != 4 || pos != 1 || gates != 6 || dffs != 3 {
		t.Fatalf("Counts = %d %d %d %d", pis, pos, gates, dffs)
	}
}

func TestMarkPOIdempotent(t *testing.T) {
	c, err := NewBuilder("po").PI("a").Gate("g", FnNot, "a").PO("g").PO("a").PO("g").Build()
	if err != nil {
		t.Fatal(err)
	}
	g, _ := c.Lookup("g")
	a, _ := c.Lookup("a")
	if got := c.POs(); len(got) != 2 || got[0] != g || got[1] != a {
		t.Fatalf("POs = %v, want [g a] (a repeat counts once, at its first position)", got)
	}
	if _, err := FromNodes("po", []Node{{Name: "a"}}, []NodeID{0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := FromNodes("po", []Node{{Name: "a"}}, []NodeID{999}); err == nil {
		t.Fatal("PO of unknown node accepted")
	}
	if _, err := NewBuilder("po").PI("a").PO("b").Build(); err == nil {
		t.Fatal("PO of undeclared net accepted")
	}
}

func TestTopoOrder(t *testing.T) {
	c := buildS27ish(t)
	order := c.TopoOrder()
	if len(order) != c.NumNodes() {
		t.Fatalf("order len = %d, want %d", len(order), c.NumNodes())
	}
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	for i := 0; i < c.NumNodes(); i++ {
		nd := c.Node(NodeID(i))
		if nd.Kind != KindGate {
			continue
		}
		for _, f := range nd.Fanin {
			if c.Node(f).Kind == KindGate && pos[f] >= pos[NodeID(i)] {
				t.Fatalf("gate %s before its fanin %s", nd.Name, c.Node(f).Name)
			}
		}
	}
}

func TestTopoOrderMixedFanin(t *testing.T) {
	// Regression: a gate with one PI fanin and one gate fanin must come
	// after the gate fanin even though the PI is popped first.
	c, err := NewBuilder("mixed").PI("a").PI("b").Gate("g1", FnNot, "b").Gate("g2", FnAnd, "a", "g1").Build()
	if err != nil {
		t.Fatal(err)
	}
	g1, _ := c.Lookup("g1")
	g2, _ := c.Lookup("g2")
	order := c.TopoOrder()
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	if pos[g2] < pos[g1] {
		t.Fatal("g2 ordered before its gate fanin g1")
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	b := NewBuilder("cyc").PI("a")
	b.Gate("g1", FnAnd, "a", "g2")
	b.Gate("g2", FnAnd, "g1", "a")
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "combinational cycle") {
		t.Fatalf("Build of a combinational cycle: %v", err)
	}
	nodes := []Node{
		{Name: "a"},
		{Name: "g", Kind: KindGate, Fn: FnBuf, Fanin: []NodeID{1}},
	}
	if _, err := FromNodes("self", nodes, nil); err == nil {
		t.Fatal("FromNodes accepted a gate reading itself")
	}
}

func TestSequentialLoopAllowed(t *testing.T) {
	// A loop through a DFF is legal; the gate reads the DFF declared
	// after it.
	c, err := NewBuilder("loop").PI("a").Gate("g", FnAnd, "a", "q").DFF("q", "g").Build()
	if err != nil {
		t.Fatalf("sequential loop rejected: %v", err)
	}
	if got := len(c.TopoOrder()); got != c.NumNodes() {
		t.Fatalf("TopoOrder lists %d of %d nodes", got, c.NumNodes())
	}
}

// TestFromNodesSelfLoopDFF: a flip-flop reading itself closes a loop with
// no gate, which the retiming graph (one vertex per gate, register chains
// folded into edge weights) cannot represent, so no circuit is built.
func TestFromNodesSelfLoopDFF(t *testing.T) {
	_, err := NewBuilder("selfloop").DFF("x", "x").PO("x").Build()
	if err == nil || !strings.Contains(err.Error(), `flip-flop "x" is on a loop with no gate`) {
		t.Fatalf("Build of a self-loop DFF: %v", err)
	}
	if _, err := FromNodes("selfloop", []Node{{Name: "x", Kind: KindDFF, Fanin: []NodeID{0}}}, nil); err == nil {
		t.Fatal("FromNodes accepted a self-loop DFF nothing reads")
	}
}

// TestFromNodesDFFCycleChain: a loop of two flip-flops with no gate is
// rejected whether logic reads it or a flip-flop chain leads into it;
// flip-flop chains that branch and end at a gate or an input are not.
func TestFromNodesDFFCycleChain(t *testing.T) {
	b := NewBuilder("dffcycle")
	b.DFF("p", "q")
	b.DFF("q", "p")
	b.PI("a")
	b.Gate("g", FnAnd, "a", "p")
	b.PO("g")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "loop with no gate") {
		t.Fatalf("Build of a gate-free DFF cycle read by a gate: %v", err)
	}
	_, err := NewBuilder("tail").DFF("t", "p").DFF("p", "q").DFF("q", "p").PI("a").PO("a").Build()
	if err == nil {
		t.Fatal("Build accepted a chain leading into a gate-free DFF cycle")
	}
	c, err := NewBuilder("tree").PI("a").DFF("p1", "a").DFF("p2", "p1").DFF("p3", "p1").
		DFF("p4", "p3").Gate("g", FnOr, "p2", "p4").DFF("p5", "g").DFF("p6", "p5").PO("p6").Build()
	if err != nil {
		t.Fatalf("branching DFF chains rejected: %v", err)
	}
	if got := len(c.TopoOrder()); got != c.NumNodes() {
		t.Fatalf("TopoOrder lists %d of %d nodes", got, c.NumNodes())
	}
}

func TestStats(t *testing.T) {
	c := buildS27ish(t)
	s := c.Stats()
	if s.Gates != 6 || s.DFFs != 3 || s.PIs != 4 || s.POs != 1 {
		t.Fatalf("Stats = %+v", s)
	}
	// n1/n2 depth 1, n3 depth 2, n4 depth 1 (reads q1, a source),
	// n5 depth 3 (reads n3), n6 depth 2 (reads n4).
	if s.Depth != 3 {
		t.Fatalf("Depth = %d, want 3", s.Depth)
	}
	if s.MaxFanout < 2 {
		t.Fatalf("MaxFanout = %d", s.MaxFanout)
	}
}

func TestNodesOfKind(t *testing.T) {
	c := buildS27ish(t)
	if got := len(c.NodesOfKind(KindDFF)); got != 3 {
		t.Fatalf("DFF count = %d", got)
	}
	if got := len(c.NodesOfKind(KindPI)); got != 4 {
		t.Fatalf("PI count = %d", got)
	}
}

func TestFanoutDeduplicated(t *testing.T) {
	c, err := NewBuilder("dedup").PI("a").Gate("g", FnXor, "a", "a").Build()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Lookup("a")
	g, _ := c.Lookup("g")
	if n := len(c.Node(a).Fanout); n != 1 {
		t.Fatalf("fanout of a = %d, want 1 (deduplicated)", n)
	}
	if c.Node(a).Fanout[0] != g {
		t.Fatal("fanout wrong target")
	}
}

func TestKindAndFuncStrings(t *testing.T) {
	if KindPI.String() != "PI" || KindDFF.String() != "DFF" || KindGate.String() != "GATE" {
		t.Fatal("Kind strings wrong")
	}
	if FnNand.String() != "NAND" || FnXnor.String() != "XNOR" {
		t.Fatal("Func strings wrong")
	}
}

// randomDAGCircuit builds a random layered sequential circuit.
func randomDAGCircuit(r *rand.Rand, nGates int) (*Circuit, error) {
	nodes := make([]Node, 0, nGates+4)
	for i := 0; i < 4; i++ {
		nodes = append(nodes, Node{Name: pick2(r, i), Kind: KindPI})
	}
	fns := []Func{FnAnd, FnOr, FnNand, FnNor, FnXor, FnNot}
	for i := 0; i < nGates; i++ {
		fn := fns[r.Intn(len(fns))]
		var fanin []NodeID
		n := fn.MinInputs()
		if fn.MaxInputs() < 0 {
			n += r.Intn(2)
		}
		for j := 0; j < n; j++ {
			fanin = append(fanin, NodeID(r.Intn(len(nodes))))
		}
		if r.Intn(5) == 0 {
			nodes = append(nodes, Node{Name: name("q", i), Kind: KindDFF, Fanin: []NodeID{NodeID(r.Intn(len(nodes)))}})
		} else {
			nodes = append(nodes, Node{Name: name("g", i), Kind: KindGate, Fn: fn, Fanin: fanin})
		}
	}
	return FromNodes("rand", nodes, []NodeID{NodeID(len(nodes) - 1)})
}

func name(p string, i int) string {
	return p + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10)) + string(rune('0'+i%1000/100)) + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func pick2(r *rand.Rand, i int) string { return "pi" + itoa(i) }

func TestPropertyRandomCircuitsValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, err := randomDAGCircuit(r, 30)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTopoOrderComplete(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, err := randomDAGCircuit(r, 50)
		if err != nil {
			return false
		}
		order := c.TopoOrder()
		seen := make(map[NodeID]bool)
		for _, id := range order {
			if seen[id] {
				return false // duplicates
			}
			seen[id] = true
		}
		return len(order) == c.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
