package serretime

// Benchmarks regenerating the paper's evaluation artifacts (DESIGN.md §3):
//
//   - BenchmarkTableI_*: one sub-benchmark per Table I circuit (scaled) for
//     the SER analysis pipeline, the Efficient MinObs baseline and the
//     MinObsWin algorithm — the t_ref / t_new columns. The full-scale rows
//     are printed by cmd/serbench.
//   - BenchmarkRebuild: materializing the retimed netlist of the same
//     circuits, the other half of the result path beside the SER analysis.
//   - BenchmarkFigure1_Tradeoff: the Figure 1 ELW/observability trade-off
//     evaluation.
//   - BenchmarkFigure2_ConstraintDetection: violation detection and repair
//     (the three active-constraint types).
//   - BenchmarkFigure3_BreakTree: the weighted-regular-forest BreakTree /
//     re-link sequence.
//   - BenchmarkAblation_*: design-choice ablations called out in DESIGN.md
//     (check order, batching, literal gains, signature width). The engine
//     ablation, closure against forest, is internal/core's
//     BenchmarkAblation_Engine.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"serretime/internal/core"
	"serretime/internal/elw"
	"serretime/internal/forest"
	"serretime/internal/graph"
	"serretime/internal/retime"
	"serretime/internal/ser"
	"serretime/internal/telemetry"
)

// benchCircuits is a representative slice of Table I: a sparse ISCAS
// circuit, a dense ITC one, the combinational-dominated s38417 and one of
// the big b-circuits, scaled to keep one benchmark iteration sub-second.
var benchCircuits = []struct {
	name  string
	scale int
}{
	{"s13207", 4},
	{"s38417", 8},
	{"b14_1_opt", 2},
	{"b17_opt", 8},
}

// prepared caches the expensive per-circuit setup shared by benchmarks.
type preparedProblem struct {
	d     *Design
	base  *graph.Graph
	init  *retime.Init
	gains []int64
	obsI  []int64
}

var (
	prepMu sync.Mutex
	preps  = map[string]*preparedProblem{}
)

func prepare(b testing.TB, name string, scale int) *preparedProblem {
	b.Helper()
	key := fmt.Sprintf("%s/%d", name, scale)
	prepMu.Lock()
	defer prepMu.Unlock()
	if p, ok := preps[key]; ok {
		return p
	}
	d, err := NewTableIDesign(name, scale)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.ensureObs(context.Background(), AnalysisOptions{}, 0, nil); err != nil {
		b.Fatal(err)
	}
	init, err := retime.Initialize(context.Background(), d.g, retime.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	base, err := d.g.Rebase(init.R)
	if err != nil {
		b.Fatal(err)
	}
	gains, obsI := core.Gains(base, d.gateObs, d.edgeObs, 256)
	p := &preparedProblem{d: d, base: base, init: init, gains: gains, obsI: obsI}
	preps[key] = p
	return p
}

func coreOpts(p *preparedProblem, win bool) core.Options {
	return core.Options{
		Phi: p.init.Phi, Ts: 0, Th: 2, Rmin: p.init.Rmin,
		ELWConstraints: win,
	}
}

// BenchmarkTableI_SERAnalysis measures the full eq. (4) evaluation
// (exact ELWs + both terms) of each circuit.
func BenchmarkTableI_SERAnalysis(b *testing.B) {
	for _, c := range benchCircuits {
		b.Run(fmt.Sprintf("%s_div%d", c.name, c.scale), func(b *testing.B) {
			p := prepare(b, c.name, c.scale)
			in := ser.Inputs{
				GateObs: p.d.gateObs, EdgeObs: p.d.edgeObs, GateRate: p.d.rates,
				RegRate: ser.RegisterRate, Params: elwParams(p.init.Phi),
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ser.Compute(p.base, graph.NewRetiming(p.base), in)
			}
		})
	}
}

// BenchmarkRebuild measures graph.Rebuild of each circuit at its
// Section V retiming: the netlist materialization every solve ends with.
func BenchmarkRebuild(b *testing.B) {
	for _, c := range benchCircuits {
		b.Run(fmt.Sprintf("%s_div%d", c.name, c.scale), func(b *testing.B) {
			p := prepare(b, c.name, c.scale)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := graph.Rebuild(p.d.c, p.d.g, p.init.R); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableI_MinObs is the t_ref column: the Efficient MinObs run.
func BenchmarkTableI_MinObs(b *testing.B) {
	for _, c := range benchCircuits {
		b.Run(fmt.Sprintf("%s_div%d", c.name, c.scale), func(b *testing.B) {
			p := prepare(b, c.name, c.scale)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Minimize(context.Background(), p.base, p.gains, p.obsI, coreOpts(p, false)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableI_MinObsWin is the t_new column: the full Algorithm 1.
func BenchmarkTableI_MinObsWin(b *testing.B) {
	for _, c := range benchCircuits {
		b.Run(fmt.Sprintf("%s_div%d", c.name, c.scale), func(b *testing.B) {
			p := prepare(b, c.name, c.scale)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Minimize(context.Background(), p.base, p.gains, p.obsI, coreOpts(p, true)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableI_Initialization measures the Section V setup (setup+hold
// min-period retiming and Rmin selection).
func BenchmarkTableI_Initialization(b *testing.B) {
	for _, c := range benchCircuits {
		b.Run(fmt.Sprintf("%s_div%d", c.name, c.scale), func(b *testing.B) {
			p := prepare(b, c.name, c.scale)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := retime.Initialize(context.Background(), p.d.g, retime.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// figure1Graph rebuilds the Figure 1 scenario (see examples/elwdemo).
func figure1Graph() (*graph.Graph, graph.VertexID, ser.Inputs) {
	bb := graph.NewBuilder()
	a := bb.AddVertex("A", 2)
	bv := bb.AddVertex("B", 2)
	f := bb.AddVertex("F", 1)
	g := bb.AddVertex("G", 2)
	bb.AddEdge(graph.Host, a, 0)
	bb.AddEdge(graph.Host, bv, 0)
	bb.AddEdge(a, f, 0)
	bb.AddEdge(bv, f, 0)
	bb.AddEdge(f, g, 1)
	bb.AddEdge(g, graph.Host, 0)
	bb.AddEdge(a, graph.Host, 0)
	bb.AddEdge(bv, graph.Host, 0)
	gr := bb.Build()
	gateObs := []float64{0, 0.7, 0.7, 0.6, 0.4}
	in := ser.Inputs{
		GateObs:  gateObs,
		EdgeObs:  ser.EdgeObsFromVertex(gr, gateObs, 0.5),
		GateRate: []float64{0, 1e-4, 1e-4, 1e-4, 1e-4},
		RegRate:  2e-4,
		Params:   elw.Params{Phi: 8, Ts: 0, Th: 2},
	}
	return gr, g, in
}

// BenchmarkFigure1_Tradeoff evaluates the before/after SER of the
// Figure 1 register move.
func BenchmarkFigure1_Tradeoff(b *testing.B) {
	gr, g, in := figure1Graph()
	r := graph.NewRetiming(gr)
	moved := graph.NewRetiming(gr)
	moved[g] = -1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ser.Compute(gr, r, in)
		ser.Compute(gr, moved, in)
	}
}

// BenchmarkFigure2_ConstraintDetection runs the optimizer on a structure
// exercising all three active-constraint types per iteration.
func BenchmarkFigure2_ConstraintDetection(b *testing.B) {
	p := prepare(b, "b14_1_opt", 4)
	opt := coreOpts(p, true)
	opt.SingleViolation = true // every constraint individually detected
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Minimize(context.Background(), p.base, p.gains, p.obsI, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3_BreakTree measures the BreakTree/SetWeight/Link
// sequence of the weighted regular forest (the Figure 3 update).
func BenchmarkFigure3_BreakTree(b *testing.B) {
	const n = 1024
	gains := make([]int64, n)
	for i := range gains {
		gains[i] = int64(i%7) - 3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := forest.New(n, gains)
		if err != nil {
			b.Fatal(err)
		}
		for v := int32(1); v < n; v++ {
			if err := f.Link(v-1, v); err != nil {
				b.Fatal(err)
			}
		}
		for v := int32(0); v < n; v += 3 {
			f.Break(v)
			if err := f.SetWeight(v, 2); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblation_CheckOrder compares the paper's published check order
// (P2', P0, P1') against the default P0-first order.
func BenchmarkAblation_CheckOrder(b *testing.B) {
	p := prepare(b, "b14_1_opt", 4)
	orders := map[string][]core.Kind{
		"P0_P2_P1_default": {core.KindP0, core.KindP2, core.KindP1},
		"P2_P0_P1_paper":   {core.KindP2, core.KindP0, core.KindP1},
		"P1_P0_P2":         {core.KindP1, core.KindP0, core.KindP2},
	}
	for name, order := range orders {
		b.Run(name, func(b *testing.B) {
			opt := coreOpts(p, true)
			opt.CheckOrder = order
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Minimize(context.Background(), p.base, p.gains, p.obsI, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Batching compares batched violation repairs against
// the verbatim one-repair-per-iteration Algorithm 1.
func BenchmarkAblation_Batching(b *testing.B) {
	p := prepare(b, "b14_1_opt", 4)
	for _, mode := range []struct {
		name   string
		single bool
	}{{"batched", false}, {"single", true}} {
		b.Run(mode.name, func(b *testing.B) {
			opt := coreOpts(p, true)
			opt.SingleViolation = mode.single
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Minimize(context.Background(), p.base, p.gains, p.obsI, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_LiteralGains compares the eq.(5)-consistent gain
// formula against the paper's literal b(v) (see DESIGN.md).
func BenchmarkAblation_LiteralGains(b *testing.B) {
	p := prepare(b, "b14_1_opt", 4)
	for _, mode := range []struct {
		name string
		fn   func(*graph.Graph, []float64, []float64, int) ([]int64, []int64)
	}{{"eq5_consistent", core.Gains}, {"literal", core.GainsLiteral}} {
		b.Run(mode.name, func(b *testing.B) {
			gains, obsI := mode.fn(p.base, p.d.gateObs, p.d.edgeObs, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Minimize(context.Background(), p.base, gains, obsI, coreOpts(p, true)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTelemetry_Overhead measures the instrumentation cost of a full
// MinObsWin run: the always-on no-op recorder (the ≤1% overhead budget of
// DESIGN.md §9) against a live trace and a nil recorder.
func BenchmarkTelemetry_Overhead(b *testing.B) {
	p := prepare(b, "b14_1_opt", 4)
	for _, mode := range []struct {
		name string
		rec  func() telemetry.Recorder
	}{
		{"nil", func() telemetry.Recorder { return nil }},
		{"nop", func() telemetry.Recorder { return telemetry.Nop }},
		{"trace", func() telemetry.Recorder { return telemetry.NewTrace(telemetry.TraceID{}) }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opt := coreOpts(p, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opt.Recorder = mode.rec()
				if _, err := core.Minimize(context.Background(), p.base, p.gains, p.obsI, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_SignatureWidth measures the observability analysis at
// different signature widths (obs convergence vs cost).
func BenchmarkAblation_SignatureWidth(b *testing.B) {
	for _, words := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("words%d", words), func(b *testing.B) {
			d, err := NewTableIDesign("b14_1_opt", 4)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.gateObs = nil // force recomputation
				if err := d.ensureObs(context.Background(), AnalysisOptions{SignatureWords: words}, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
