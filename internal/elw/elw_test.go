package elw

import (
	"math/rand"
	"testing"
	"testing/quick"

	"serretime/internal/graph"
	"serretime/internal/interval"
)

// chain builds host -1-> A(d=2) -0-> B(d=3) -0-> host.
func chain() (*graph.Graph, graph.VertexID, graph.VertexID) {
	b := graph.NewBuilder()
	a := b.AddVertex("A", 2)
	bb := b.AddVertex("B", 3)
	b.AddEdge(graph.Host, a, 1)
	b.AddEdge(a, bb, 0)
	b.AddEdge(bb, graph.Host, 0)
	return b.Build(), a, bb
}

func TestExactChain(t *testing.T) {
	g, a, bb := chain()
	p := DefaultParams(10)
	elws := Exact(g, graph.NewRetiming(g), p, 0)
	if !elws[bb].Equal(interval.Single(10, 12)) {
		t.Fatalf("ELW(B) = %v", elws[bb])
	}
	if !elws[a].Equal(interval.Single(7, 9)) {
		t.Fatalf("ELW(A) = %v", elws[a])
	}
	if !elws[graph.Host].Empty() {
		t.Fatal("host has a window")
	}
}

func TestLabelsChain(t *testing.T) {
	g, a, bb := chain()
	p := DefaultParams(10)
	lab := ComputeLabels(g, graph.NewRetiming(g), p, nil)
	if lab.L[bb] != 10 || lab.R[bb] != 12 || lab.LT[bb] != bb || lab.RT[bb] != bb {
		t.Fatalf("labels(B) = L%g R%g lt%d rt%d", lab.L[bb], lab.R[bb], lab.LT[bb], lab.RT[bb])
	}
	if lab.L[a] != 7 || lab.R[a] != 9 || lab.LT[a] != bb || lab.RT[a] != bb {
		t.Fatalf("labels(A) = L%g R%g lt%d rt%d", lab.L[a], lab.R[a], lab.LT[a], lab.RT[a])
	}
	if v, ok := lab.CheckP1(g); !ok {
		t.Fatalf("P1 violated at %s", g.Name(v))
	}
}

// fanouts builds A feeding B (d=3) and C (d=5), both driving POs.
func fanouts() (*graph.Graph, graph.VertexID, graph.VertexID, graph.VertexID) {
	b := graph.NewBuilder()
	a := b.AddVertex("A", 1)
	bb := b.AddVertex("B", 3)
	c := b.AddVertex("C", 5)
	b.AddEdge(graph.Host, a, 1)
	b.AddEdge(a, bb, 0)
	b.AddEdge(a, c, 0)
	b.AddEdge(bb, graph.Host, 0)
	b.AddEdge(c, graph.Host, 0)
	return b.Build(), a, bb, c
}

func TestExactUnion(t *testing.T) {
	g, a, _, _ := fanouts()
	p := DefaultParams(10)
	elws := Exact(g, graph.NewRetiming(g), p, 0)
	// [7,9] ∪ [5,7] = [5,9].
	if !elws[a].Equal(interval.Single(5, 9)) {
		t.Fatalf("ELW(A) = %v", elws[a])
	}
	if elws[a].Measure() != 4 {
		t.Fatalf("|ELW(A)| = %g", elws[a].Measure())
	}
}

func TestExactDisjointUnion(t *testing.T) {
	// Delays far apart produce a two-interval window.
	b := graph.NewBuilder()
	a := b.AddVertex("A", 1)
	bb := b.AddVertex("B", 1)
	c := b.AddVertex("C", 8)
	b.AddEdge(graph.Host, a, 1)
	b.AddEdge(a, bb, 0)
	b.AddEdge(a, c, 0)
	b.AddEdge(bb, graph.Host, 0)
	b.AddEdge(c, graph.Host, 0)
	g := b.Build()
	p := DefaultParams(20)
	elws := Exact(g, graph.NewRetiming(g), p, 0)
	// Via B: [19,21]; via C: [12,14].
	want := interval.MustNew(interval.Interval{L: 12, R: 14}, interval.Interval{L: 19, R: 21})
	if !elws[a].Equal(want) {
		t.Fatalf("ELW(A) = %v, want %v", elws[a], want)
	}
	// Coalescing to one interval over-approximates.
	elws1 := Exact(g, graph.NewRetiming(g), p, 1)
	if elws1[a].Count() != 1 {
		t.Fatalf("coalesced count = %d", elws1[a].Count())
	}
	if elws1[a].Measure() < elws[a].Measure() {
		t.Fatal("coalescing lost measure")
	}
	// A ⊆ B exactly when A ∪ B = B.
	u := interval.MustNew(elws1[a].Intervals()...)
	u.UnionInPlace(elws[a])
	if !u.Equal(elws1[a]) {
		t.Fatal("coalesced set does not contain exact set")
	}
}

func TestLabelsCriticalEndpoints(t *testing.T) {
	g, a, bb, c := fanouts()
	p := DefaultParams(10)
	lab := ComputeLabels(g, graph.NewRetiming(g), p, nil)
	if lab.LT[a] != c { // L via the longer path through C
		t.Fatalf("lt(A) = %s", g.Name(lab.LT[a]))
	}
	if lab.RT[a] != bb { // R via the shorter path through B
		t.Fatalf("rt(A) = %s", g.Name(lab.RT[a]))
	}
}

func TestRegisteredFanoutPins(t *testing.T) {
	// A with a registered fanout gets the base window, plus combinational
	// extension through B.
	b := graph.NewBuilder()
	a := b.AddVertex("A", 1)
	bb := b.AddVertex("B", 3)
	c := b.AddVertex("C", 1)
	b.AddEdge(graph.Host, a, 1)
	b.AddEdge(a, bb, 0)
	b.AddEdge(a, c, 1) // registered fanout
	b.AddEdge(bb, graph.Host, 0)
	b.AddEdge(c, graph.Host, 0)
	g := b.Build()
	p := DefaultParams(10)
	elws := Exact(g, graph.NewRetiming(g), p, 0)
	// Base [10,12] ∪ via B [7,9].
	want := interval.MustNew(interval.Interval{L: 7, R: 9}, interval.Interval{L: 10, R: 12})
	if !elws[a].Equal(want) {
		t.Fatalf("ELW(A) = %v", elws[a])
	}
	lab := ComputeLabels(g, graph.NewRetiming(g), p, nil)
	if lab.L[a] != 7 || lab.R[a] != 12 {
		t.Fatalf("L/R(A) = %g/%g", lab.L[a], lab.R[a])
	}
	if lab.LT[a] != bb || lab.RT[a] != a {
		t.Fatal("critical endpoints wrong")
	}
}

func TestP1Violation(t *testing.T) {
	// Path delay 9 > Φ−Ts = 8 at A.
	b := graph.NewBuilder()
	a := b.AddVertex("A", 4)
	bb := b.AddVertex("B", 5)
	b.AddEdge(graph.Host, a, 1)
	b.AddEdge(a, bb, 0)
	b.AddEdge(bb, graph.Host, 0)
	g := b.Build()
	p := DefaultParams(8)
	lab := ComputeLabels(g, graph.NewRetiming(g), p, nil)
	// L(A) = 8 - 5 = 3 < d(A) = 4.
	v, ok := lab.CheckP1(g)
	if ok || v != a {
		t.Fatalf("P1 check: v=%d ok=%v", v, ok)
	}
}

func TestP2ViolationAndHoldSlack(t *testing.T) {
	// Registered edge into B with a very short path to the next register.
	b := graph.NewBuilder()
	a := b.AddVertex("A", 2)
	bb := b.AddVertex("B", 1)
	b.AddEdge(graph.Host, a, 0)
	b.AddEdge(a, bb, 1)
	b.AddEdge(bb, graph.Host, 1)
	g := b.Build()
	p := DefaultParams(10)
	r := graph.NewRetiming(g)
	lab := ComputeLabels(g, r, p, nil)
	// R(B) = 12 (registered fanout to host), so the register on A->B
	// launches a path of length d(B) + Φ+Th − R(B) = 1.
	slack, found := lab.MinHoldSlack(g, r, p)
	if !found || slack != 1 {
		t.Fatalf("hold slack = %g found=%v", slack, found)
	}
	if _, ok := lab.CheckP2(g, r, p, 1); !ok {
		t.Fatal("P2 with rmin=1 must hold")
	}
	eid, ok := lab.CheckP2(g, r, p, 2.0)
	if ok {
		t.Fatal("P2 with rmin=2 must fail")
	}
	if g.Edge(eid).To != bb {
		t.Fatalf("violating edge = %v", g.Edge(eid))
	}
}

// randomGraph builds a random layered synchronous graph: forward edges may
// be combinational, feedback edges always carry registers.
func randomGraph(r *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder()
	vs := make([]graph.VertexID, n)
	for i := 0; i < n; i++ {
		vs[i] = b.AddVertex("v", 1+float64(r.Intn(5)))
	}
	b.AddEdge(graph.Host, vs[0], int32(r.Intn(2)))
	for i := 1; i < n; i++ {
		// At least one in-edge from an earlier vertex.
		j := r.Intn(i)
		b.AddEdge(vs[j], vs[i], int32(r.Intn(2)))
		if r.Intn(2) == 0 {
			k := r.Intn(i)
			b.AddEdge(vs[k], vs[i], int32(r.Intn(3)))
		}
		if r.Intn(4) == 0 {
			b.AddEdge(vs[i], vs[r.Intn(i+1)], 1+int32(r.Intn(2))) // feedback
		}
	}
	b.AddEdge(vs[n-1], graph.Host, 0)
	b.AddEdge(vs[r.Intn(n)], graph.Host, int32(r.Intn(2)))
	return b.Build()
}

func TestPropertyRetimingShiftsWindows(t *testing.T) {
	// Any legal retiming keeps all windows inside [−TotalDelay, Φ+Th].
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 3+r.Intn(15))
		if g.Check() != nil {
			return true
		}
		p := DefaultParams(100)
		rt := graph.NewRetiming(g)
		// Random legal forward moves.
		for tries := 0; tries < 5; tries++ {
			v := graph.VertexID(1 + r.Intn(g.NumGates()))
			rt[v]--
			if g.CheckLegal(rt) != nil {
				rt[v]++
			}
		}
		elws := Exact(g, rt, p, 0)
		for v := 1; v < g.NumVertices(); v++ {
			if elws[v].Empty() {
				continue
			}
			if elws[v].Max() > p.Phi+p.Th+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// referenceExact is Exact as it was before the shifted merge, kept as
// the differential reference: every fanout window is materialized with
// Shift, and each union concatenates and re-sorts (interval.New).
func referenceExact(g *graph.Graph, r graph.Retiming, p Params, maxIntervals int) []interval.Set {
	order := g.ZeroWeightTopo(r)
	union := func(s, o interval.Set) interval.Set {
		return interval.MustNew(append(s.Intervals(), o.Intervals()...)...)
	}
	base := p.LatchWindow()
	out := make([]interval.Set, g.NumVertices())
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		var s interval.Set
		for _, eid := range g.Out(u) {
			to := g.EdgeTo(eid)
			if to == graph.Host || g.WR(eid, r) > 0 {
				s = union(s, base)
				continue
			}
			s = union(s, out[to].Shift(-g.Delay(to)))
		}
		if maxIntervals > 0 && s.Count() > maxIntervals {
			s = coalesce(s, maxIntervals)
		}
		out[u] = s
	}
	return out
}

// randomRetimed draws a randomGraph whose delays include non-dyadic
// values, so shifted windows round, and a random legal retiming of it;
// ok is false when the graph fails Check.
func randomRetimed(rng *rand.Rand) (g *graph.Graph, r graph.Retiming, ok bool) {
	delays := []float64{0.1, 0.3, 1, 1.5, 2, 2.7, 1.0 / 3}
	g0 := randomGraph(rng, 3+rng.Intn(40))
	b := graph.NewBuilder()
	for v := 1; v < g0.NumVertices(); v++ {
		b.AddVertex("v", delays[rng.Intn(len(delays))])
	}
	for e := 0; e < g0.NumEdges(); e++ {
		ed := g0.Edge(graph.EdgeID(e))
		b.AddEdge(ed.From, ed.To, ed.W)
	}
	g = b.Build()
	if g.Check() != nil {
		return nil, nil, false
	}
	r = graph.NewRetiming(g)
	for k := 0; k < g.NumVertices(); k++ {
		v := graph.VertexID(1 + rng.Intn(g.NumGates()))
		d := int32(1 - 2*rng.Intn(2))
		r[v] += d
		if g.CheckLegal(r) != nil {
			r[v] -= d
		}
	}
	return g, r, true
}

// TestExactMatchesReference compares every window of Exact with the
// reference (Set.Equal, endpoint for endpoint) on random graphs at random
// legal retimings, uncapped and capped at two intervals.
func TestExactMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 1500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, r, ok := randomRetimed(rng)
		if !ok {
			continue
		}
		p := Params{Phi: 5 + rng.Float64()*40, Ts: float64(rng.Intn(2)) * 0.5, Th: 2}
		for _, maxIntervals := range []int{0, 2} {
			want := referenceExact(g, r, p, maxIntervals)
			got := Exact(g, r, p, maxIntervals)
			for v := range want {
				if !got[v].Equal(want[v]) {
					t.Fatalf("seed %d cap %d: ELW(%d) = %v, want %v", seed, maxIntervals, v, got[v], want[v])
				}
			}
		}
	}
}

// TestPropertyTheorem1 checks Theorem 1 in the exact form ser.Terms
// relies on when it reads R(v) off the window: on random graphs at r = 0
// and at a random legal retiming, under every interval cap and with
// setup and hold times off the 0.5 grid, HasWindow, L and R equal
// !Empty, Min and Max of the window of Exact under ==, and the window's
// measure is at most R − L.
func TestPropertyTheorem1(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, moved, ok := randomRetimed(rng)
		if !ok {
			continue
		}
		p := Params{Phi: 5 + rng.Float64()*40, Ts: rng.Float64() * 3, Th: rng.Float64() * 3}
		for _, r := range []graph.Retiming{graph.NewRetiming(g), moved} {
			lab := ComputeLabels(g, r, p, nil)
			for _, maxIntervals := range []int{0, 1, 2} {
				elws := Exact(g, r, p, maxIntervals)
				for v := 1; v < g.NumVertices(); v++ {
					w := elws[v]
					if lab.HasWindow[v] == w.Empty() {
						t.Fatalf("seed %d cap %d: HasWindow(%d) = %v, window %v", seed, maxIntervals, v, lab.HasWindow[v], w)
					}
					if w.Empty() {
						continue
					}
					if lab.L[v] != w.Min() || lab.R[v] != w.Max() {
						t.Fatalf("seed %d cap %d: L/R(%d) = %v/%v, window %v", seed, maxIntervals, v, lab.L[v], lab.R[v], w)
					}
					if w.Measure() > lab.R[v]-lab.L[v]+1e-9 {
						t.Fatalf("seed %d cap %d: |ELW(%d)| = %v exceeds R − L", seed, maxIntervals, v, w.Measure())
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d windows checked", checked)
}
