package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"serretime/internal/elw"
	"serretime/internal/graph"
)

// singleMove builds host -0-> A(d) -1-> B(d) -0-> host with high obs on A
// and low on B: the register wants to move forward across B.
func singleMove(dA, dB float64) (*graph.Graph, graph.VertexID, graph.VertexID, []float64, []float64) {
	b := graph.NewBuilder()
	a := b.AddVertex("A", dA)
	bb := b.AddVertex("B", dB)
	b.AddEdge(graph.Host, a, 0)
	b.AddEdge(a, bb, 1)
	b.AddEdge(bb, graph.Host, 0)
	g := b.Build()
	gateObs := []float64{0, 0.9, 0.1}
	edgeObs := []float64{0.5, 0.9, 0.1}
	return g, a, bb, gateObs, edgeObs
}

const kUnits = 1000

func TestGains(t *testing.T) {
	g, a, bb, gateObs, edgeObs := singleMove(1, 1)
	gains, obsInt, err := Gains(g, gateObs, edgeObs, kUnits)
	if err != nil {
		t.Fatal(err)
	}
	// b(A) = K(0.5 − 0.9) = −400; b(B) = K(0.9 − 0.1) = 800.
	if gains[a] != -400 || gains[bb] != 800 {
		t.Fatalf("gains = %v", gains)
	}
	if obsInt[1] != 900 {
		t.Fatalf("obsInt = %v", obsInt)
	}
	if Objective(g, graph.NewRetiming(g), obsInt) != 900 {
		t.Fatal("initial objective wrong")
	}
}

func TestMinimizeSingleMove(t *testing.T) {
	g, _, bb, gateObs, edgeObs := singleMove(1, 1)
	gains, obsInt, _ := Gains(g, gateObs, edgeObs, kUnits)
	res, err := Minimize(g, gains, obsInt, Options{Phi: 100, Ts: 0, Th: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.R[bb] != -1 {
		t.Fatalf("r(B) = %d, want -1 (r = %v)", res.R[bb], res.R)
	}
	if res.Objective != 100 { // register now on B->host with obs 0.1
		t.Fatalf("objective = %d, want 100", res.Objective)
	}
	if res.Rounds < 1 {
		t.Fatal("no committed rounds")
	}
}

func TestMinimizeBlockedByP1(t *testing.T) {
	// With Φ just fitting each gate alone, removing the register merges a
	// path of length dA+dB = 10 > Φ: P1' forbids the move and the chain of
	// constraints freezes at the host.
	g, _, _, gateObs, edgeObs := singleMove(5, 5)
	gains, obsInt, _ := Gains(g, gateObs, edgeObs, kUnits)
	res, err := Minimize(g, gains, obsInt, Options{Phi: 6, Ts: 0, Th: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != res.Initial {
		t.Fatalf("objective moved: %d -> %d (r=%v)", res.Initial, res.Objective, res.R)
	}
	if res.Violations[KindP1] == 0 && res.Violations[KindP0] == 0 {
		t.Fatalf("expected a repair, got %v", res.Violations)
	}
}

// p2Graph: host -0-> A(5) -1-> B(1) -0-> C(5) -0-> host.
// Moving the register forward across B shortens its launched path from
// d(B)+d(C)... the tentative register on (B,C) launches just d(C)=5,
// while the original on (A,B) launches d(B)+5−5 = 6 (through B then C).
func p2Graph() (*graph.Graph, graph.VertexID, []float64, []float64) {
	b := graph.NewBuilder()
	a := b.AddVertex("A", 5)
	bb := b.AddVertex("B", 1)
	c := b.AddVertex("C", 5)
	b.AddEdge(graph.Host, a, 0)
	b.AddEdge(a, bb, 1)
	b.AddEdge(bb, c, 0)
	b.AddEdge(c, graph.Host, 0)
	g := b.Build()
	gateObs := []float64{0, 0.9, 0.1, 0.5}
	edgeObs := []float64{0.5, 0.9, 0.1, 0.5}
	return g, bb, gateObs, edgeObs
}

func TestMinObsWinRespectsRmin(t *testing.T) {
	g, bb, gateObs, edgeObs := p2Graph()
	gains, obsInt, _ := Gains(g, gateObs, edgeObs, kUnits)

	// Baseline MinObs happily moves the register (obs 0.9 -> 0.1).
	base, err := Minimize(g, gains, obsInt, Options{Phi: 100, Ts: 0, Th: 2})
	if err != nil {
		t.Fatal(err)
	}
	if base.R[bb] != -1 {
		t.Fatalf("MinObs r(B) = %d, want -1", base.R[bb])
	}

	// MinObsWin with Rmin = 6 (the initial hold slack) must refuse: the
	// moved register would launch a 5-delay path.
	win, err := Minimize(g, gains, obsInt, Options{Phi: 100, Ts: 0, Th: 2, Rmin: 6, ELWConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	if win.R[bb] != 0 {
		t.Fatalf("MinObsWin r(B) = %d, want 0 (r=%v)", win.R[bb], win.R)
	}
	if win.Violations[KindP2] == 0 {
		t.Fatal("no P2' repair recorded")
	}

	// Relaxing Rmin to 5 allows the move again.
	rel, err := Minimize(g, gains, obsInt, Options{Phi: 100, Ts: 0, Th: 2, Rmin: 5, ELWConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	if rel.R[bb] != -1 {
		t.Fatalf("relaxed MinObsWin r(B) = %d, want -1", rel.R[bb])
	}
}

func TestMinimizeValidation(t *testing.T) {
	g, _, _, gateObs, edgeObs := singleMove(1, 1)
	gains, obsInt, _ := Gains(g, gateObs, edgeObs, kUnits)
	if _, err := Minimize(g, gains[:1], obsInt, Options{Phi: 10}); err == nil {
		t.Fatal("short gains accepted")
	}
	if _, err := Minimize(g, gains, obsInt[:1], Options{Phi: 10}); err == nil {
		t.Fatal("short obsInt accepted")
	}
	if _, err := Minimize(g, gains, obsInt, Options{Phi: 0}); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestMinObsExactSingleMove(t *testing.T) {
	g, _, bb, gateObs, edgeObs := singleMove(1, 1)
	gains, obsInt, _ := Gains(g, gateObs, edgeObs, kUnits)
	res, err := MinObsExact(g, gains, obsInt, 100, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.R[bb] != -1 || res.Objective != 100 {
		t.Fatalf("exact: r=%v obj=%d", res.R, res.Objective)
	}
}

// randomInstance builds a random synchronous graph with random gate
// observabilities, plus a feasible clock period.
func randomInstance(rng *rand.Rand, n int) (*graph.Graph, []int64, []int64, float64) {
	b := graph.NewBuilder()
	vs := make([]graph.VertexID, n)
	for i := 0; i < n; i++ {
		vs[i] = b.AddVertex("v", 1+float64(rng.Intn(4)))
	}
	b.AddEdge(graph.Host, vs[0], int32(rng.Intn(2)))
	for i := 1; i < n; i++ {
		b.AddEdge(vs[rng.Intn(i)], vs[i], int32(rng.Intn(3)))
		if rng.Intn(2) == 0 {
			b.AddEdge(vs[rng.Intn(i)], vs[i], int32(rng.Intn(2)))
		}
		if rng.Intn(4) == 0 {
			b.AddEdge(vs[i], vs[rng.Intn(i+1)], 1+int32(rng.Intn(2)))
		}
	}
	b.AddEdge(vs[n-1], graph.Host, int32(rng.Intn(2)))
	b.AddEdge(vs[rng.Intn(n)], graph.Host, 0)
	g := b.Build()
	// No dangling cones: every gate must reach a latch point, as in a
	// real netlist (dead logic makes timing obligations retiming-
	// dependent and incomparable across solvers; see DESIGN.md).
	{
		bb := graph.NewBuilder()
		for v := 1; v < g.NumVertices(); v++ {
			bb.AddVertex(g.Name(graph.VertexID(v)), g.Delay(graph.VertexID(v)))
		}
		for e := 0; e < g.NumEdges(); e++ {
			ed := g.Edge(graph.EdgeID(e))
			bb.AddEdge(ed.From, ed.To, ed.W)
		}
		for v := 1; v < g.NumVertices(); v++ {
			if len(g.Out(graph.VertexID(v))) == 0 {
				bb.AddEdge(graph.VertexID(v), graph.Host, 0)
			}
		}
		g = bb.Build()
	}
	gateObs := make([]float64, g.NumVertices())
	for v := 1; v < g.NumVertices(); v++ {
		gateObs[v] = float64(rng.Intn(kUnits)) / kUnits
	}
	edgeObs := make([]float64, g.NumEdges())
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		if ed.From == graph.Host {
			edgeObs[e] = float64(rng.Intn(kUnits)) / kUnits
		} else {
			edgeObs[e] = gateObs[ed.From]
		}
	}
	gains, obsInt, _ := Gains(g, gateObs, edgeObs, kUnits)
	// A generous but not infinite period.
	_, crit, _ := g.ArrivalTimes(graph.NewRetiming(g))
	phi := crit * (1 + rng.Float64())
	_ = obsInt
	return g, gains, obsInt, phi
}

func TestPropertyMinObsMatchesExact(t *testing.T) {
	// The incremental forest-based MinObs must reach the exact optimum of
	// the forward-restricted program on random instances.
	mismatches := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, gains, obsInt, phi := randomInstance(rng, 3+rng.Intn(18))
		if g.Check() != nil {
			return true
		}
		inc, err := Minimize(g, gains, obsInt, Options{Phi: phi, Ts: 0, Th: 2})
		if err != nil {
			t.Logf("seed %d: incremental error: %v", seed, err)
			return false
		}
		ex, err := MinObsExact(g, gains, obsInt, phi, 0, true)
		if err != nil {
			t.Logf("seed %d: exact error: %v", seed, err)
			return false
		}
		if inc.Objective != ex.Objective {
			mismatches++
			t.Logf("seed %d: incremental %d vs exact %d (initial %d)",
				seed, inc.Objective, ex.Objective, ex.Initial)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatalf("%v (%d mismatches)", err, mismatches)
	}
}

func TestPropertyMinObsWinInvariants(t *testing.T) {
	// MinObsWin results are legal forward retimings satisfying P1' and
	// P2', and never worsen the objective.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, gains, obsInt, phi := randomInstance(rng, 3+rng.Intn(18))
		if g.Check() != nil {
			return true
		}
		p := elw.Params{Phi: phi, Ts: 0, Th: 2}
		lab, err := elw.ComputeLabels(g, graph.NewRetiming(g), p)
		if err != nil {
			return true
		}
		rmin, found := lab.MinHoldSlack(g, graph.NewRetiming(g), p)
		if !found {
			rmin = g.MinDelay()
		}
		// The unretimed circuit must satisfy P1' for the run to be valid.
		if _, ok := lab.CheckP1(g); !ok {
			return true
		}
		opt := Options{Phi: phi, Ts: 0, Th: 2, Rmin: rmin, ELWConstraints: true}
		res, err := Minimize(g, gains, obsInt, opt)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if g.CheckLegal(res.R) != nil {
			return false
		}
		for v := 1; v < g.NumVertices(); v++ {
			if res.R[v] > 0 {
				return false
			}
		}
		if res.Objective > res.Initial {
			return false
		}
		lab, err = elw.ComputeLabels(g, res.R, p)
		if err != nil {
			return false
		}
		if _, ok := lab.CheckP1(g); !ok {
			t.Logf("seed %d: P1' violated in result", seed)
			return false
		}
		if _, ok := lab.CheckP2(g, res.R, p, rmin); !ok {
			t.Logf("seed %d: P2' violated in result", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyWinNeverBeatsUnconstrained(t *testing.T) {
	// Adding P2' constraints can only reduce the achievable improvement.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, gains, obsInt, phi := randomInstance(rng, 3+rng.Intn(15))
		if g.Check() != nil {
			return true
		}
		p := elw.Params{Phi: phi, Ts: 0, Th: 2}
		lab, err := elw.ComputeLabels(g, graph.NewRetiming(g), p)
		if err != nil {
			return true
		}
		if _, ok := lab.CheckP1(g); !ok {
			return true
		}
		rmin, found := lab.MinHoldSlack(g, graph.NewRetiming(g), p)
		if !found {
			return true
		}
		base, err := Minimize(g, gains, obsInt, Options{Phi: phi, Ts: 0, Th: 2})
		if err != nil {
			return false
		}
		win, err := Minimize(g, gains, obsInt, Options{Phi: phi, Ts: 0, Th: 2, Rmin: rmin, ELWConstraints: true})
		if err != nil {
			return false
		}
		return win.Objective >= base.Objective
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMinAreaMatchesExact: with uniform observabilities the problem is
// classic min-area retiming; the incremental algorithm must still match
// the exact LP optimum.
func TestMinAreaMatchesExact(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, _, _, phi := randomInstance(rng, 3+rng.Intn(15))
		if g.Check() != nil {
			continue
		}
		ones := make([]float64, g.NumVertices())
		for v := range ones {
			ones[v] = 1
		}
		edgeOnes := make([]float64, g.NumEdges())
		for e := range edgeOnes {
			edgeOnes[e] = 1
		}
		gains, obsInt, err := Gains(g, ones, edgeOnes, 1)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := Minimize(g, gains, obsInt, Options{Phi: phi, Ts: 0, Th: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ex, err := MinObsExact(g, gains, obsInt, phi, 0, true)
		if err != nil {
			continue
		}
		if inc.Objective != ex.Objective {
			t.Errorf("seed %d: min-area incremental %d != exact %d", seed, inc.Objective, ex.Objective)
		}
	}
}
