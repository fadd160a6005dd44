package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildS27ish constructs a small sequential circuit reminiscent of s27:
// 4 PIs, 3 DFFs, a handful of gates, 1 PO.
func buildS27ish(t testing.TB) *Circuit {
	t.Helper()
	c := New("s27ish")
	mk := func(id NodeID, err error) NodeID {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	g0 := mk(c.AddPI("G0"))
	g1 := mk(c.AddPI("G1"))
	g2 := mk(c.AddPI("G2"))
	g3 := mk(c.AddPI("G3"))

	// Forward-declare DFF outputs by building combinational logic that
	// reads them after they exist; here we add DFFs at the end reading
	// gate outputs, and use placeholder order: first gates on PIs.
	n1 := mk(c.AddGate("n1", FnNot, g0))
	n2 := mk(c.AddGate("n2", FnAnd, g1, g2))
	n3 := mk(c.AddGate("n3", FnOr, n1, n2))
	q1 := mk(c.AddDFF("q1", n3))
	n4 := mk(c.AddGate("n4", FnNor, q1, g3))
	q2 := mk(c.AddDFF("q2", n4))
	n5 := mk(c.AddGate("n5", FnNand, q2, n3))
	q3 := mk(c.AddDFF("q3", n5))
	n6 := mk(c.AddGate("n6", FnXor, q3, n4))
	if err := c.MarkPO(n6); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
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
	c := New("dup")
	if _, err := c.AddPI("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddPI("a"); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := c.AddGate("", FnNot, 0); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestBadFanin(t *testing.T) {
	c := New("bad")
	if _, err := c.AddGate("g", FnNot, 99); err == nil {
		t.Fatal("unknown fanin accepted")
	}
	a, _ := c.AddPI("a")
	if _, err := c.AddGate("g", FnNot, a, a); err == nil {
		t.Fatal("NOT with 2 inputs accepted")
	}
	if _, err := c.AddGate("g", FnAnd, a); err == nil {
		t.Fatal("AND with 1 input accepted")
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
	c := buildS27ish(t)
	id, _ := c.Lookup("n6")
	if err := c.MarkPO(id); err != nil {
		t.Fatal(err)
	}
	if len(c.POs()) != 1 {
		t.Fatalf("POs = %v", c.POs())
	}
	if err := c.MarkPO(999); err == nil {
		t.Fatal("MarkPO of unknown node accepted")
	}
}

func TestTopoOrder(t *testing.T) {
	c := buildS27ish(t)
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
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
	c := New("mixed")
	a, _ := c.AddPI("a")
	b, _ := c.AddPI("b")
	g1, _ := c.AddGate("g1", FnNot, b)
	g2, _ := c.AddGate("g2", FnAnd, a, g1)
	_ = g2
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	if pos[g2] < pos[g1] {
		t.Fatal("g2 ordered before its gate fanin g1")
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	c := New("cyc")
	a, _ := c.AddPI("a")
	// Build a cycle by editing fanin directly (the public API cannot
	// create one because fanins must already exist).
	g1, _ := c.AddGate("g1", FnAnd, a, a)
	g2, _ := c.AddGate("g2", FnAnd, g1, a)
	c.Node(g1).Fanin[1] = g2
	c.Node(g2).Fanout = append(c.Node(g2).Fanout, g1)
	if _, err := c.TopoOrder(); err == nil {
		t.Fatal("combinational cycle not detected")
	}
	if err := c.Validate(); err == nil {
		t.Fatal("Validate missed combinational cycle")
	}
}

func TestSequentialLoopAllowed(t *testing.T) {
	// A loop through a DFF is legal.
	c := New("loop")
	a, _ := c.AddPI("a")
	g, _ := c.AddGate("g", FnAnd, a, a) // placeholder second input
	q, _ := c.AddDFF("q", g)
	c.Node(g).Fanin[1] = q
	c.Node(q).Fanout = append(c.Node(q).Fanout, g)
	if _, err := c.TopoOrder(); err != nil {
		t.Fatalf("sequential loop rejected: %v", err)
	}
}

func TestStats(t *testing.T) {
	c := buildS27ish(t)
	s, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
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

func TestClone(t *testing.T) {
	c := buildS27ish(t)
	d := c.Clone()
	if d.NumNodes() != c.NumNodes() {
		t.Fatal("clone size mismatch")
	}
	// Mutating the clone must not affect the original.
	d.Node(0).Name = "mutated"
	if c.Node(0).Name == "mutated" {
		t.Fatal("clone shares node storage")
	}
	if _, err := d.AddPI("extra"); err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() == d.NumNodes() {
		t.Fatal("clone shares slice growth")
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
	c := New("dedup")
	a, _ := c.AddPI("a")
	g, _ := c.AddGate("g", FnXor, a, a)
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
func randomDAGCircuit(r *rand.Rand, nGates int) *Circuit {
	c := New("rand")
	ids := make([]NodeID, 0, nGates+4)
	for i := 0; i < 4; i++ {
		id, _ := c.AddPI(pick2(r, i))
		ids = append(ids, id)
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
			fanin = append(fanin, ids[r.Intn(len(ids))])
		}
		var id NodeID
		if r.Intn(5) == 0 {
			id, _ = c.AddDFF(name("q", i), ids[r.Intn(len(ids))])
		} else {
			id, _ = c.AddGate(name("g", i), fn, fanin...)
		}
		ids = append(ids, id)
	}
	c.MarkPO(ids[len(ids)-1])
	return c
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
		c := randomDAGCircuit(r, 30)
		return c.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTopoOrderComplete(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomDAGCircuit(r, 50)
		order, err := c.TopoOrder()
		if err != nil {
			return false
		}
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
