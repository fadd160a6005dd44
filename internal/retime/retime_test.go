package retime

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"serretime/internal/benchfmt"
	"serretime/internal/elw"
	"serretime/internal/graph"
	"serretime/internal/telemetry"
)

// pipelineGraph builds host -2-> A(1) -0-> B(1) -0-> C(1) -0-> host:
// two boundary registers that can be pushed in to split the 3-delay path.
func pipelineGraph() *graph.Graph {
	b := graph.NewBuilder()
	a := b.AddVertex("A", 1)
	bb := b.AddVertex("B", 1)
	c := b.AddVertex("C", 1)
	b.AddEdge(graph.Host, a, 2)
	b.AddEdge(a, bb, 0)
	b.AddEdge(bb, c, 0)
	b.AddEdge(c, graph.Host, 0)
	return b.Build()
}

func TestFeasible(t *testing.T) {
	g := pipelineGraph()
	r := graph.NewRetiming(g)
	if !Feasible(g, r, 3, 0) {
		t.Fatal("period 3 must be feasible unretimed")
	}
	if Feasible(g, r, 2.5, 0) {
		t.Fatal("period 2.5 must be infeasible unretimed")
	}
}

func TestFEASBackwardSplitsPipeline(t *testing.T) {
	g := pipelineGraph()
	// Period 1 requires both boundary registers inside: A|B|C each alone.
	r, ok, err := FEASBackward(context.Background(), g, 1, 0)
	if err != nil || !ok {
		t.Fatalf("FEASBackward failed at period 1 (err %v)", err)
	}
	if err := g.CheckLegal(r); err != nil {
		t.Fatal(err)
	}
	if !Feasible(g, r, 1, 0) {
		t.Fatal("result does not meet period 1")
	}
}

func TestFEASBlockedAtOutput(t *testing.T) {
	// Forward FEAS cannot push registers past the PO; it must report
	// failure rather than produce an illegal retiming.
	g := pipelineGraph()
	if _, ok, err := FEAS(context.Background(), g, 1, 0); err != nil || ok {
		t.Fatal("FEAS claimed success where the PO blocks increments")
	}
}

func TestMinPeriodPipeline(t *testing.T) {
	g := pipelineGraph()
	r, phi, err := MinPeriod(context.Background(), g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if phi != 1 {
		t.Fatalf("min period = %g, want 1", phi)
	}
	if !Feasible(g, r, phi, 0) {
		t.Fatal("returned retiming infeasible at returned period")
	}
}

func TestMinPeriodCombinationalBound(t *testing.T) {
	// A pure PI->PO combinational path bounds the period from below.
	b := graph.NewBuilder()
	a := b.AddVertex("A", 2)
	bb := b.AddVertex("B", 3)
	b.AddEdge(graph.Host, a, 0)
	b.AddEdge(a, bb, 0)
	b.AddEdge(bb, graph.Host, 0)
	g := b.Build()
	_, phi, err := MinPeriod(context.Background(), g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if phi != 5 {
		t.Fatalf("min period = %g, want 5 (unsplittable)", phi)
	}
}

func TestMinPeriodWithSetup(t *testing.T) {
	g := pipelineGraph()
	_, phi, err := MinPeriod(context.Background(), g, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if phi != 2.5 {
		t.Fatalf("min period with Ts=1.5 = %g, want 2.5", phi)
	}
}

func TestSetupHoldSimple(t *testing.T) {
	// host -1-> A(3) -1-> B(3) -0-> host, hold th=2: every register-
	// launched shortest path is >= 3 already.
	b := graph.NewBuilder()
	a := b.AddVertex("A", 3)
	bb := b.AddVertex("B", 3)
	b.AddEdge(graph.Host, a, 1)
	b.AddEdge(a, bb, 1)
	b.AddEdge(bb, graph.Host, 0)
	g := b.Build()
	r, ok, err := SetupHold(context.Background(), g, 4, 0, 2, nil)
	if err != nil || !ok {
		t.Fatalf("SetupHold failed on an already-feasible circuit (err %v)", err)
	}
	if err := g.CheckLegal(r); err != nil {
		t.Fatal(err)
	}
}

func TestSetupHoldRepairsShortPath(t *testing.T) {
	// host -0-> A(5) -1-> B(1) -1-> C(5) -0-> host with th=2: the register
	// chain B sits between creates a 1-delay register-to-register path
	// (through B); repair must move a register.
	b := graph.NewBuilder()
	a := b.AddVertex("A", 5)
	bb := b.AddVertex("B", 1)
	c := b.AddVertex("C", 5)
	b.AddEdge(graph.Host, a, 0)
	b.AddEdge(a, bb, 1)
	b.AddEdge(bb, c, 1)
	b.AddEdge(c, graph.Host, 0)
	g := b.Build()
	p := elw.Params{Phi: 11, Ts: 0, Th: 2}
	lab := elw.ComputeLabels(g, graph.NewRetiming(g), p, nil)
	if _, ok := lab.CheckP2(g, graph.NewRetiming(g), p, 2); ok {
		t.Fatal("test premise broken: no hold violation unretimed")
	}
	r, ok, err := SetupHold(context.Background(), g, 11, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("SetupHold could not repair the short path")
	}
	lab = elw.ComputeLabels(g, r, p, nil)
	if _, ok := lab.CheckP2(g, r, p, 2); !ok {
		t.Fatal("hold violation survived successful SetupHold")
	}
}

func TestInitializePipeline(t *testing.T) {
	g := pipelineGraph()
	init, err := Initialize(context.Background(), g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckLegal(init.R); err != nil {
		t.Fatal(err)
	}
	if init.Phi < init.PhiMin {
		t.Fatalf("relaxed phi %g < phiMin %g", init.Phi, init.PhiMin)
	}
	if !Feasible(g, init.R, init.Phi, 0) {
		t.Fatal("initialization infeasible at relaxed period")
	}
	if init.Rmin <= 0 {
		t.Fatalf("Rmin = %g", init.Rmin)
	}
	// P2' must hold at the initialization point.
	p := elw.Params{Phi: init.Phi, Ts: 0, Th: 2}
	lab := elw.ComputeLabels(g, init.R, p, nil)
	if _, ok := lab.CheckP2(g, init.R, p, init.Rmin); !ok {
		t.Fatal("P2' violated at initialization")
	}
}

// TestInitializeTracesProbes checks the init span's children: one merged
// init-probe node whose count is the number of Φ probes, holding the
// elw-recompute spans of the probes' hold checks.
func TestInitializeTracesProbes(t *testing.T) {
	c, err := benchfmt.ParseFile("../../testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromCircuit(c)
	probes := &probeCounter{}
	tr := telemetry.NewTrace(telemetry.TraceID{})
	o := DefaultOptions()
	o.Recorder = telemetry.Tee(tr, probes)
	init, err := Initialize(context.Background(), g, o)
	if err != nil {
		t.Fatal(err)
	}
	if !init.SetupHoldOK {
		t.Fatal("test premise broken: s27 falls back to MinPeriod")
	}
	tr.Finish()
	in := tr.Snapshot().Find("init")
	if in == nil {
		t.Fatal("no init span")
	}
	var probe *telemetry.Span
	for _, c := range in.Children {
		if c.Name == "init-probe" {
			if probe != nil {
				t.Fatal("init-probe spans not merged into one node")
			}
			probe = c
		}
	}
	if probe == nil || probes.n < 2 || probe.Count != probes.n {
		t.Fatalf("init-probe node %+v, want count %d (> 1)", probe, probes.n)
	}
	if probe.Find("elw-recompute") == nil {
		t.Fatal("hold checks not recorded under init-probe")
	}
}

// probeCounter counts init-probe spans.
type probeCounter struct{ n int64 }

func (p *probeCounter) SpanStart(ph telemetry.Phase) {
	if ph == telemetry.PhaseInitProbe {
		p.n++
	}
}
func (*probeCounter) SpanEnd(telemetry.Phase, error) {}
func (*probeCounter) Count(telemetry.Counter, int64) {}
func (*probeCounter) Gauge(telemetry.Gauge, int64)   {}

func TestInitializeS27(t *testing.T) {
	c, err := benchfmt.ParseFile("../../testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromCircuit(c)
	init, err := Initialize(context.Background(), g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckLegal(init.R); err != nil {
		t.Fatal(err)
	}
	if !Feasible(g, init.R, init.Phi, 0) {
		t.Fatal("s27 initialization infeasible")
	}
}

func TestInitializeRejectsNegativeEpsilon(t *testing.T) {
	g := pipelineGraph()
	if _, err := Initialize(context.Background(), g, Options{Epsilon: -1}); err == nil {
		t.Fatal("negative epsilon accepted")
	}
}

// randomGraph mirrors the elw test helper.
func randomGraph(r *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder()
	vs := make([]graph.VertexID, n)
	for i := 0; i < n; i++ {
		vs[i] = b.AddVertex("v", 1+float64(r.Intn(5)))
	}
	b.AddEdge(graph.Host, vs[0], int32(r.Intn(2)))
	for i := 1; i < n; i++ {
		b.AddEdge(vs[r.Intn(i)], vs[i], int32(r.Intn(2)))
		if r.Intn(2) == 0 {
			b.AddEdge(vs[r.Intn(i)], vs[i], int32(r.Intn(3)))
		}
		if r.Intn(4) == 0 {
			b.AddEdge(vs[i], vs[r.Intn(i+1)], 1+int32(r.Intn(2)))
		}
	}
	b.AddEdge(vs[n-1], graph.Host, 0)
	return b.Build()
}

func TestPropertyMinPeriodSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 3+rng.Intn(25))
		if g.Check() != nil {
			return true
		}
		r, phi, err := MinPeriod(context.Background(), g, 0)
		if err != nil {
			return false
		}
		if g.CheckLegal(r) != nil {
			return false
		}
		if !Feasible(g, r, phi, 0) {
			return false
		}
		// Never worse than the unretimed circuit.
		_, crit := g.ArrivalTimes(graph.NewRetiming(g))
		return phi <= snapUp(crit)+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyInitializeFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 3+rng.Intn(20))
		if g.Check() != nil {
			return true
		}
		init, err := Initialize(context.Background(), g, DefaultOptions())
		if err != nil {
			return false
		}
		if g.CheckLegal(init.R) != nil {
			return false
		}
		if !Feasible(g, init.R, init.Phi, 0) {
			return false
		}
		// When setup+hold succeeded, P2' must hold at Rmin.
		if init.SetupHoldOK {
			p := elw.Params{Phi: init.Phi, Ts: 0, Th: 2}
			lab := elw.ComputeLabels(g, init.R, p, nil)
			if _, ok := lab.CheckP2(g, init.R, p, init.Rmin); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
