package graph

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
)

// ringGraph builds: host -1-> A(d=1) -0-> B(d=2) -0-> C(d=3) -1-> host,
// plus feedback B -2-> A.
func ringGraph() (*Graph, VertexID, VertexID, VertexID) {
	b := NewBuilder()
	a := b.AddVertex("A", 1)
	bb := b.AddVertex("B", 2)
	c := b.AddVertex("C", 3)
	b.AddEdge(Host, a, 1)
	b.AddEdge(a, bb, 0)
	b.AddEdge(bb, c, 0)
	b.AddEdge(c, Host, 1)
	b.AddEdge(bb, a, 2)
	return b.Build(), a, bb, c
}

func TestBuilderAndAccessors(t *testing.T) {
	g, a, bb, c := ringGraph()
	if g.NumVertices() != 4 || g.NumGates() != 3 || g.NumEdges() != 5 {
		t.Fatalf("sizes: %d %d %d", g.NumVertices(), g.NumGates(), g.NumEdges())
	}
	if g.Name(Host) != "<host>" || g.Name(a) != "A" {
		t.Fatal("names wrong")
	}
	if g.Delay(c) != 3 {
		t.Fatal("delay wrong")
	}
	if len(g.Out(bb)) != 2 || len(g.In(a)) != 2 {
		t.Fatal("adjacency wrong")
	}
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestWRAndLegal(t *testing.T) {
	g, a, bb, c := ringGraph()
	r := NewRetiming(g)
	if err := g.CheckLegal(r); err != nil {
		t.Fatal(err)
	}
	r[a] = -1
	// host->A: 1 + (-1) - 0 = 0; A->B: 0 + 0 - (-1) = 1; B->A: 2 - 1 = 1.
	if g.WR(0, r) != 0 || g.WR(1, r) != 1 || g.WR(4, r) != 1 {
		t.Fatalf("WR wrong: %d %d %d", g.WR(0, r), g.WR(1, r), g.WR(4, r))
	}
	if err := g.CheckLegal(r); err != nil {
		t.Fatal(err)
	}
	r[a] = -2 // host->A becomes -1
	if err := g.CheckLegal(r); err == nil {
		t.Fatal("illegal retiming accepted")
	}
	r[a] = 0
	r[Host] = 1
	if err := g.CheckLegal(r); err == nil {
		t.Fatal("host retiming accepted")
	}
	_, _ = bb, c
}

func TestRegisterCounts(t *testing.T) {
	g, a, _, _ := ringGraph()
	r := NewRetiming(g)
	if got := g.TotalEdgeRegisters(r); got != 4 {
		t.Fatalf("TotalEdgeRegisters = %d", got)
	}
	if got := g.SharedRegisters(r); got != 4 {
		t.Fatalf("SharedRegisters = %d", got)
	}
	r[a] = -1
	// Edges: host->A 0, A->B 1, B->C 0, C->host 1, B->A 1. Total 3.
	if got := g.TotalEdgeRegisters(r); got != 3 {
		t.Fatalf("TotalEdgeRegisters = %d", got)
	}
	// Shared: A's out max(1)=1, B max(0,1)=1, C 1, host group port -1: 0.
	if got := g.SharedRegisters(r); got != 3 {
		t.Fatalf("SharedRegisters = %d", got)
	}
}

func TestArrivalTimes(t *testing.T) {
	g, a, bb, c := ringGraph()
	arr, crit := g.ArrivalTimes(NewRetiming(g))
	if arr[a] != 1 || arr[bb] != 3 || arr[c] != 6 || crit != 6 {
		t.Fatalf("arrivals: %v crit %g", arr, crit)
	}
	// Retime A forward: register appears on A->B, splitting the path.
	r := NewRetiming(g)
	r[a] = -1
	arr, crit = g.ArrivalTimes(r)
	if arr[a] != 1 || arr[bb] != 2 || arr[c] != 5 || crit != 5 {
		t.Fatalf("arrivals after retime: %v crit %g", arr, crit)
	}
}

func TestZeroWeightCycleDetected(t *testing.T) {
	b := NewBuilder()
	a := b.AddVertex("a", 1)
	c := b.AddVertex("c", 1)
	b.AddEdge(a, c, 0)
	b.AddEdge(c, a, 0)
	g := b.Build()
	if err := g.Check(); err == nil {
		t.Fatal("zero-weight cycle not detected")
	}
	// The timing views need a graph that passes Check; given one that
	// fails it, they panic rather than order a cycle.
	defer func() {
		if recover() == nil {
			t.Fatal("ZeroWeightTopo ordered a zero-weight cycle")
		}
	}()
	g.ZeroWeightTopo(NewRetiming(g))
}

// TestPropertyZeroWeightTopoAnyRetiming: a retiming keeps every cycle's
// register count, so on a graph that passes Check, ZeroWeightTopo orders
// every gate under any integer retiming, legal or not, with each
// zero-weight edge between gates running forward in the order.
func TestPropertyZeroWeightTopoAnyRetiming(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		n := 2 + rng.Intn(8)
		for i := 0; i < n; i++ {
			b.AddVertex("v", 1)
		}
		for e := rng.Intn(3 * n); e >= 0; e-- {
			// Any pair, host and self loops included; weights 0..2.
			b.AddEdge(VertexID(rng.Intn(n+1)), VertexID(rng.Intn(n+1)), int32(rng.Intn(3)))
		}
		g := b.Build()
		if g.Check() != nil {
			continue
		}
		checked++
		for trial := 0; trial < 20; trial++ {
			r := NewRetiming(g)
			for v := range r {
				r[v] = int32(rng.Intn(7) - 3)
			}
			order := g.ZeroWeightTopo(r)
			pos := make([]int, g.NumVertices())
			for i := range pos {
				pos[i] = -1
			}
			for i, v := range order {
				if v == Host || pos[v] >= 0 {
					t.Fatalf("seed %d: order %v lists the host or a vertex twice", seed, order)
				}
				pos[v] = i
			}
			if len(order) != g.NumGates() {
				t.Fatalf("seed %d, r %v: ordered %d of %d gates", seed, r, len(order), g.NumGates())
			}
			for e := 0; e < g.NumEdges(); e++ {
				ed := g.Edge(EdgeID(e))
				if ed.From != Host && ed.To != Host && g.WR(EdgeID(e), r) == 0 && pos[ed.From] >= pos[ed.To] {
					t.Fatalf("seed %d, r %v: zero-weight edge %d->%d runs backward", seed, r, ed.From, ed.To)
				}
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d of 300 random graphs pass Check", checked)
	}
}

func TestWD(t *testing.T) {
	g, a, bb, c := ringGraph()
	m := g.ComputeWD()
	cases := []struct {
		u, v VertexID
		w    int32
		d    float64
	}{
		{a, a, 0, 1},
		{a, bb, 0, 3},
		{a, c, 0, 6},
		{a, Host, 1, 6},
		{bb, a, 2, 3},
		{Host, a, 1, 1},
		{Host, bb, 1, 3},
		{Host, Host, 0, 0}, // empty path: W(u,u)=0, D(u,u)=d(u)
	}
	for _, tc := range cases {
		if got := m.W(tc.u, tc.v); got != tc.w {
			t.Errorf("W(%s,%s) = %d, want %d", g.Name(tc.u), g.Name(tc.v), got, tc.w)
		}
		if got := m.D(tc.u, tc.v); got != tc.d {
			t.Errorf("D(%s,%s) = %g, want %g", g.Name(tc.u), g.Name(tc.v), got, tc.d)
		}
	}
	// The environment is a barrier: C reaches only the host.
	if m.W(c, a) != NoPath {
		t.Errorf("W(C,A) = %d, want NoPath (through-host path)", m.W(c, a))
	}
}

func TestMinMaxDelay(t *testing.T) {
	g, _, _, _ := ringGraph()
	if g.MaxDelay() != 3 || g.MinDelay() != 1 {
		t.Fatalf("MaxDelay=%g MinDelay=%g", g.MaxDelay(), g.MinDelay())
	}
}

func loadS27(t testing.TB) (*circuit.Circuit, *Graph) {
	t.Helper()
	c, err := benchfmt.ParseFile("../../testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	g := FromCircuit(c)
	return c, g
}

func TestFromCircuitS27(t *testing.T) {
	c, g := loadS27(t)
	if g.NumGates() != 10 {
		t.Fatalf("|V| = %d, want 10", g.NumGates())
	}
	// 18 gate input pins + 1 PO edge.
	if g.NumEdges() != 19 {
		t.Fatalf("|E| = %d, want 19", g.NumEdges())
	}
	r := NewRetiming(g)
	if got := g.TotalEdgeRegisters(r); got != 3 {
		t.Fatalf("registers = %d, want 3", got)
	}
	if got := g.SharedRegisters(r); got != 3 {
		t.Fatalf("shared registers = %d, want 3", got)
	}
	// Round-trip vertex mapping.
	n, _ := c.Lookup("G10")
	v, ok := g.VertexOf(n)
	if !ok || g.Name(v) != "G10" || g.NodeOf(v) != n {
		t.Fatal("vertex mapping broken")
	}
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestFromCircuitDFFChain(t *testing.T) {
	// a -> q1 -> q2 -> gate: edge weight 2.
	b := circuit.NewBuilder("chain")
	b.PI("a")
	b.DFF("q1", "a")
	b.DFF("q2", "q1")
	b.Gate("g", circuit.FnNot, "q2")
	b.PO("g")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := FromCircuit(c)
	if g.NumEdges() != 2 {
		t.Fatalf("|E| = %d", g.NumEdges())
	}
	e := g.Edge(0)
	if e.From != Host || e.W != 2 {
		t.Fatalf("chain edge = %+v", e)
	}
}

func TestFromCircuitPIPODropped(t *testing.T) {
	b := circuit.NewBuilder("direct")
	b.PI("a")
	b.DFF("q", "a")
	b.PO("q")
	b.PI("x")
	b.Gate("g", circuit.FnNot, "x")
	b.PO("g")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := FromCircuit(c)
	// Only the x->g pin and the g->host PO edge remain.
	if g.NumEdges() != 2 {
		t.Fatalf("|E| = %d, want 2", g.NumEdges())
	}
}

func TestRebase(t *testing.T) {
	g, a, _, _ := ringGraph()
	r := NewRetiming(g)
	r[a] = -1
	g2, err := g.Rebase(r)
	if err != nil {
		t.Fatal(err)
	}
	z := NewRetiming(g2)
	if g2.TotalEdgeRegisters(z) != g.TotalEdgeRegisters(r) {
		t.Fatal("rebase changed register count")
	}
	if g2.Edge(0).W != 0 || g2.Edge(1).W != 1 {
		t.Fatalf("rebased weights wrong: %d %d", g2.Edge(0).W, g2.Edge(1).W)
	}
	r[a] = -5
	if _, err := g.Rebase(r); err == nil {
		t.Fatal("illegal rebase accepted")
	}
}

func TestRebuildIdentity(t *testing.T) {
	c, g := loadS27(t)
	rb, err := Rebuild(c, g, NewRetiming(g))
	if err != nil {
		t.Fatal(err)
	}
	pis, pos, gates, dffs := rb.C.Counts()
	if pis != 4 || pos != 1 || gates != 10 || dffs != 3 {
		t.Fatalf("identity rebuild counts = %d %d %d %d", pis, pos, gates, dffs)
	}
}

// TestRebuildForwardMove moves pipeline4's registers r1 and r2 forward
// across n3 = OR(r1, r2), whose every fanin carries one. (s27 has no
// legal forward move: every gate's register-free fanin cone reaches a
// primary input.)
func TestRebuildForwardMove(t *testing.T) {
	c, err := benchfmt.ParseFile("../../testdata/pipeline4.bench")
	if err != nil {
		t.Fatal(err)
	}
	g := FromCircuit(c)
	n, _ := c.Lookup("n3")
	v, _ := g.VertexOf(n)
	r := NewRetiming(g)
	r[v] = -1
	if err := g.CheckLegal(r); err != nil {
		t.Fatalf("forward move across n3 is not legal: %v", err)
	}
	rb, err := Rebuild(c, g, r)
	if err != nil {
		t.Fatal(err)
	}
	_, _, gates, dffs := rb.C.Counts()
	if gates != 8 {
		t.Fatalf("gates = %d, want 8", gates)
	}
	if int64(dffs) != g.SharedRegisters(r) {
		t.Fatalf("dffs = %d, SharedRegisters = %d", dffs, g.SharedRegisters(r))
	}
	// n3 now reads the gates behind r1 and r2 directly.
	n3, _ := rb.C.Lookup("n3")
	var fanin []string
	for _, f := range rb.C.Node(n3).Fanin {
		fanin = append(fanin, rb.C.Node(f).Name)
	}
	if strings.Join(fanin, ",") != "n1,n2" {
		t.Fatalf("n3 reads %v after the move, want [n1 n2]", fanin)
	}
	// Chain bookkeeping: every chain tap must exist and read its
	// predecessor.
	for drv, ids := range rb.Chains {
		prev, ok := rb.C.Lookup(drv)
		if !ok {
			t.Fatalf("chain driver %q missing", drv)
		}
		for _, id := range ids {
			nd := rb.C.Node(id)
			if nd.Kind != circuit.KindDFF || nd.Fanin[0] != prev {
				t.Fatalf("chain %q malformed", drv)
			}
			prev = id
		}
	}
}

func TestRebuildRequiresExtractedGraph(t *testing.T) {
	g, _, _, _ := ringGraph()
	one, err := circuit.FromNodes("x", []circuit.Node{
		{Name: "a", Kind: circuit.KindPI},
		{Name: "g", Kind: circuit.KindGate, Fn: circuit.FnNot, Fanin: []circuit.NodeID{0}},
	}, []circuit.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Rebuild(one, g, NewRetiming(g)); err == nil {
		t.Fatal("Rebuild accepted synthetic graph")
	}
}

func TestWDUnreachable(t *testing.T) {
	b := NewBuilder()
	a := b.AddVertex("a", 1)
	c := b.AddVertex("c", 2)
	b.AddEdge(Host, a, 1)
	b.AddEdge(Host, c, 1)
	b.AddEdge(a, Host, 0)
	b.AddEdge(c, Host, 0)
	g := b.Build()
	m := g.ComputeWD()
	if m.W(a, c) != NoPath {
		t.Fatal("disconnected pair not NoPath")
	}
	if !math.IsInf(m.D(a, c), -1) {
		t.Fatal("D of unreachable pair not -Inf")
	}
}

// bruteWD enumerates all simple-ish paths (bounded length) to check W/D.
func bruteWD(g *Graph, maxLen int) (map[[2]VertexID]int32, map[[2]VertexID]float64) {
	w := make(map[[2]VertexID]int32)
	d := make(map[[2]VertexID]float64)
	type state struct {
		v     VertexID
		regs  int32
		delay float64
		steps int
	}
	for src := 0; src < g.NumVertices(); src++ {
		s := VertexID(src)
		stack := []state{{s, 0, g.Delay(s), 0}}
		for len(stack) > 0 {
			st := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			key := [2]VertexID{s, st.v}
			if cur, ok := w[key]; !ok || st.regs < cur || (st.regs == cur && st.delay > d[key]) {
				w[key] = st.regs
				if !ok || st.regs < cur {
					d[key] = st.delay
				} else if st.delay > d[key] {
					d[key] = st.delay
				}
			}
			if st.steps >= maxLen || (st.v == Host && st.v != s) {
				continue
			}
			for _, eid := range g.Out(st.v) {
				e := g.Edge(eid)
				stack = append(stack, state{e.To, st.regs + e.W, st.delay + g.Delay(e.To), st.steps + 1})
			}
		}
	}
	return w, d
}

func TestPropertyWDMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		n := 3 + rng.Intn(5)
		vs := make([]VertexID, n)
		for i := range vs {
			vs[i] = b.AddVertex("v", 1+float64(rng.Intn(4)))
		}
		b.AddEdge(Host, vs[0], 1)
		for i := 1; i < n; i++ {
			b.AddEdge(vs[rng.Intn(i)], vs[i], int32(rng.Intn(2)))
			if rng.Intn(3) == 0 {
				b.AddEdge(vs[i], vs[rng.Intn(i)], 1+int32(rng.Intn(2)))
			}
		}
		b.AddEdge(vs[n-1], Host, 0)
		g := b.Build()
		if g.Check() != nil {
			continue
		}
		m := g.ComputeWD()
		// Enumerate paths far longer than any min-register path needs.
		bw, bd := bruteWD(g, 3*n)
		for u := 0; u < g.NumVertices(); u++ {
			for v := 0; v < g.NumVertices(); v++ {
				key := [2]VertexID{VertexID(u), VertexID(v)}
				want, ok := bw[key]
				got := m.W(VertexID(u), VertexID(v))
				if !ok {
					if got != NoPath {
						t.Fatalf("seed %d: W(%d,%d) = %d, brute says unreachable", seed, u, v, got)
					}
					continue
				}
				if got != want {
					t.Fatalf("seed %d: W(%d,%d) = %d, want %d", seed, u, v, got, want)
				}
				if gd := m.D(VertexID(u), VertexID(v)); gd < bd[key]-1e-9 {
					// Brute force bounded-length search may miss longer
					// equal-register paths, so only check one direction.
					t.Fatalf("seed %d: D(%d,%d) = %g < brute %g", seed, u, v, gd, bd[key])
				}
			}
		}
	}
}
