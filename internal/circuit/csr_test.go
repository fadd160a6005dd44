package circuit

import (
	"testing"
)

func csrTestCircuit(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("csr-test")
	b.PI("a")
	b.PI("b")
	b.Gate("g1", FnAnd, "a", "b")
	b.DFF("q", "g1")
	b.Gate("g2", FnXor, "q", "a")
	b.Gate("g3", FnNot, "g2")
	b.PO("g3")
	b.PO("g1")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCSRMirrorsNodes: the packed fanin/fanout arrays, kinds, functions and
// orders of the CSR view must agree exactly with the per-node slices.
func TestCSRMirrorsNodes(t *testing.T) {
	c := csrTestCircuit(t)
	s := c.CSR()
	if s.N != c.NumNodes() {
		t.Fatalf("N = %d, want %d", s.N, c.NumNodes())
	}
	for id := 0; id < s.N; id++ {
		n := NodeID(id)
		nd := c.Node(n)
		if s.Kind[id] != nd.Kind || s.Fn[id] != nd.Fn {
			t.Fatalf("node %d: kind/fn mismatch", id)
		}
		fin := s.FaninOf(n)
		if len(fin) != len(nd.Fanin) {
			t.Fatalf("node %d: %d fanins, want %d", id, len(fin), len(nd.Fanin))
		}
		for i := range fin {
			if fin[i] != nd.Fanin[i] {
				t.Fatalf("node %d fanin %d: %d != %d", id, i, fin[i], nd.Fanin[i])
			}
		}
		fout := s.FanoutOf(n)
		if len(fout) != len(nd.Fanout) {
			t.Fatalf("node %d: %d fanouts, want %d", id, len(fout), len(nd.Fanout))
		}
		for i := range fout {
			if fout[i] != nd.Fanout[i] {
				t.Fatalf("node %d fanout %d: %d != %d", id, i, fout[i], nd.Fanout[i])
			}
		}
	}
	order := c.TopoOrder()
	if len(s.Order) != len(order) {
		t.Fatalf("order length %d, want %d", len(s.Order), len(order))
	}
	gates := 0
	for i, id := range order {
		if s.Order[i] != id {
			t.Fatalf("order[%d] = %d, want %d", i, s.Order[i], id)
		}
		if s.RevOrder[len(order)-1-i] != id {
			t.Fatalf("rev order mismatch at %d", i)
		}
		if s.Kind[id] == KindGate {
			if s.GateOrder[gates] != id {
				t.Fatalf("gate order[%d] = %d, want %d", gates, s.GateOrder[gates], id)
			}
			gates++
		}
	}
	if gates != len(s.GateOrder) {
		t.Fatalf("gate order has %d entries, want %d", len(s.GateOrder), gates)
	}
	for _, po := range c.POs() {
		if !s.IsPO[po] {
			t.Fatalf("PO %d not flagged", po)
		}
	}
}

// TestCSRLevels: sources at level 0, gates one above their deepest fanin.
func TestCSRLevels(t *testing.T) {
	c := csrTestCircuit(t)
	s := c.CSR()
	for id := 0; id < s.N; id++ {
		if s.Kind[id] != KindGate {
			if s.Level[id] != 0 {
				t.Fatalf("source %d at level %d", id, s.Level[id])
			}
			continue
		}
		want := int32(0)
		for _, f := range s.FaninOf(NodeID(id)) {
			if s.Level[f] > want {
				want = s.Level[f]
			}
		}
		want++
		if s.Level[id] != want {
			t.Fatalf("gate %d at level %d, want %d", id, s.Level[id], want)
		}
	}
}

// TestCSRCachedAndInvalidated: repeated and concurrent calls share one
// view. A circuit never changes, so a changed netlist is a new circuit:
// one built from the same nodes plus a PO gets its own view, and the
// first circuit's view stays as it was.
func TestCSRCachedAndInvalidated(t *testing.T) {
	c := csrTestCircuit(t)
	views := make(chan *CSR, 4)
	for i := 0; i < cap(views); i++ {
		go func() { views <- c.CSR() }()
	}
	s1 := <-views
	for i := 1; i < cap(views); i++ {
		if s := <-views; s != s1 {
			t.Fatal("concurrent CSR calls built separate views")
		}
	}
	if s2 := c.CSR(); s2 != s1 {
		t.Fatal("CSR not cached across calls")
	}
	nodes := make([]Node, c.NumNodes())
	for i := range nodes {
		nodes[i] = *c.Node(NodeID(i))
	}
	a, _ := c.Lookup("a")
	d, err := FromNodes(c.Name, nodes, append(append([]NodeID(nil), c.POs()...), a))
	if err != nil {
		t.Fatal(err)
	}
	s3 := d.CSR()
	if s3 == s1 || !s3.IsPO[a] {
		t.Fatal("the new circuit does not have its own view")
	}
	if s1.IsPO[a] || len(s1.POs) != 2 {
		t.Fatal("building a new circuit changed the first circuit's view")
	}
}

// TestEvalFaninMatchesEval: EvalFanin over a node-major plane must equal
// Eval over the gathered inputs for every function.
func TestEvalFaninMatchesEval(t *testing.T) {
	const stride = 3
	vals := []uint64{
		0xDEADBEEF00112233, 5, 9,
		0x0F0F0F0F0F0F0F0F, 7, 2,
		0xFFFF0000FFFF0000, 1, 8,
	}
	fanin := []NodeID{2, 0, 1}
	fns := []Func{FnConst0, FnConst1, FnBuf, FnNot, FnAnd, FnNand, FnOr, FnNor, FnXor, FnXnor}
	for _, fn := range fns {
		for w := 0; w < stride; w++ {
			var in []uint64
			for _, f := range fanin {
				in = append(in, vals[int(f)*stride+w])
			}
			want := fn.Eval(in)
			got := fn.EvalFanin(vals, fanin, stride, w)
			if got != want {
				t.Fatalf("fn %v word %d: EvalFanin %x != Eval %x", fn, w, got, want)
			}
		}
	}
}
