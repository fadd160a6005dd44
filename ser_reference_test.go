package serretime

import (
	"context"
	"testing"

	"serretime/internal/core"
	"serretime/internal/elw"
	"serretime/internal/gen"
	"serretime/internal/graph"
	"serretime/internal/retime"
	"serretime/internal/ser"
)

// referenceSER is eq. (4) as ser.Compute evaluated it while a second
// sweep, elw.ComputeLabels, supplied the hold slack of each register
// term: the gate terms, then the register terms with the slack
// shortfall added where the labels give the consumer a window. It also
// counts the register terms that took a shortfall.
func referenceSER(g *graph.Graph, r graph.Retiming, in ser.Inputs) (*ser.Analysis, int, error) {
	elws := elw.Exact(g, r, in.Params, in.MaxIntervals)
	lab := elw.ComputeLabels(g, r, in.Params, nil)
	a := &ser.Analysis{}
	for v := 1; v < g.NumVertices(); v++ {
		a.Gates += in.GateObs[v] * in.GateRate[v] * elws[v].Measure() / in.Params.Phi
	}
	shortfalls := 0
	baseMeasure := in.Params.Ts + in.Params.Th
	for i := 0; i < g.NumEdges(); i++ {
		eid := graph.EdgeID(i)
		k := g.WR(eid, r)
		if k <= 0 {
			continue
		}
		e := g.Edge(eid)
		adjacent := baseMeasure
		if e.To != graph.Host {
			adjacent = elws[e.To].Measure()
			if lab.HasWindow[e.To] {
				if shortfall := in.Params.Th - lab.HoldSlack(g, in.Params, eid); shortfall > 0 {
					adjacent += shortfall
					shortfalls++
				}
			}
		}
		win := adjacent + float64(k-1)*baseMeasure
		o := in.EdgeObs[i]
		a.NumRegisters += int64(k)
		a.RegisterObs += o * float64(k)
		a.Registers += o * in.RegRate * win / in.Params.Phi
	}
	a.SharedRegisters = g.SharedRegisters(r)
	a.Total = a.Gates + a.Registers
	return a, shortfalls, nil
}

// solvedRetiming runs the pipeline of Design.retime up to the
// optimizer's answer and returns the total retiming with the ELW timing
// its result is evaluated at.
func solvedRetiming(t *testing.T, d *Design, opt RetimeOptions) (graph.Retiming, elw.Params) {
	t.Helper()
	ctx := context.Background()
	opt = opt.normalized()
	if err := d.ensureObs(ctx, opt.Analysis, opt.Workers, nil); err != nil {
		t.Fatal(err)
	}
	init, err := retime.Initialize(ctx, d.g, retime.Options{Ts: opt.Ts, Th: opt.Th, Epsilon: opt.Epsilon})
	if err != nil {
		t.Fatal(err)
	}
	base, err := d.g.Rebase(init.R)
	if err != nil {
		t.Fatal(err)
	}
	gains, obsInt := core.Gains(base, d.gateObs, d.edgeObs, opt.kUnits())
	cres, err := core.Minimize(ctx, base, gains, obsInt, core.Options{
		Phi: init.Phi, Ts: opt.Ts, Th: opt.Th, Rmin: init.Rmin,
		ELWConstraints: opt.Algorithm == MinObsWin,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := init.R.Clone()
	for v := range total {
		total[v] += cres.R[v]
	}
	return total, elw.Params{Phi: init.Phi, Ts: opt.Ts, Th: opt.Th}
}

// TestSERMatchesLabelReference checks that ser.Compute, which reads each
// register's hold slack off the exact window (Theorem 1), equals the
// label-sweep form of referenceSER field for field under ==, on the 21
// Table I substitutes at most 500 gates, at r = 0 and at the MinObs and
// MinObsWin solutions. The shortfall branch must be taken somewhere, or
// the comparison would not reach it.
func TestSERMatchesLabelReference(t *testing.T) {
	const gateCap = 500
	evaluated, shortfalls := 0, 0
	for _, name := range TableICircuits() {
		spec, err := gen.FindTableI(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewTableIDesign(name, (spec.Gates+gateCap-1)/gateCap)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algorithm{MinObs, MinObsWin} {
			opt := RetimeOptions{Algorithm: algo, Analysis: AnalysisOptions{Frames: 3, SignatureWords: 1}, Workers: 1}
			solved, p := solvedRetiming(t, d, opt)
			for _, r := range []graph.Retiming{graph.NewRetiming(d.g), solved} {
				in := d.serInputs(d.g, r, p, opt.Analysis)
				got := ser.Compute(d.g, r, in)
				want, n, err := referenceSER(d.g, r, in)
				if err != nil {
					t.Fatal(err)
				}
				if *got != *want {
					t.Fatalf("%s/%v: ser.Compute = %+v, label reference %+v", name, algo, *got, *want)
				}
				evaluated++
				shortfalls += n
			}
		}
	}
	t.Logf("%d evaluations, %d register terms with a hold shortfall", evaluated, shortfalls)
	if shortfalls == 0 {
		t.Fatal("no register term took a hold shortfall")
	}
}
