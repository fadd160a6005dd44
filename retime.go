package serretime

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"serretime/internal/benchfmt"
	"serretime/internal/core"
	"serretime/internal/elw"
	"serretime/internal/graph"
	"serretime/internal/guard"
	"serretime/internal/retime"
	"serretime/internal/telemetry"
	"serretime/internal/verify"
)

// Default setup and hold times, following [23] as the paper does, and
// the largest clock-period relaxation ε a solve accepts: Φ = (1+ε)·Φmin
// must stay finite, and the paper relaxes by 0.10.
const (
	DefaultTs  = 0.0
	DefaultTh  = 2.0
	MaxEpsilon = 100.0
)

// elwParams is the ELW timing at clock period phi under the default setup
// and hold times.
func elwParams(phi float64) elw.Params {
	return elw.Params{Phi: phi, Ts: DefaultTs, Th: DefaultTh}
}

// Algorithm selects the retiming objective.
type Algorithm uint8

const (
	// MinObsWin is the paper's contribution: register observability
	// minimization under error-latching window constraints (Algorithm 1).
	MinObsWin Algorithm = iota
	// MinObs is the Efficient MinObs baseline ([17] re-solved with the
	// incremental machinery, no ELW constraints).
	MinObs
	// MinArea minimizes the register count instead of observability
	// (classic min-area retiming under the period constraint).
	MinArea
)

func (a Algorithm) String() string {
	switch a {
	case MinObsWin:
		return "MinObsWin"
	case MinObs:
		return "MinObs"
	case MinArea:
		return "MinArea"
	}
	return fmt.Sprintf("Algorithm(%d)", uint8(a))
}

// EngineKind selects the closed-set machinery of the optimizer.
type EngineKind uint8

const (
	// EngineClosure is the exact max-gain-closure engine (default).
	EngineClosure EngineKind = iota
	// EngineForest is the paper's weighted regular forest.
	EngineForest
)

func (e EngineKind) String() string {
	switch e {
	case EngineClosure:
		return "closure"
	case EngineForest:
		return "forest"
	}
	return fmt.Sprintf("EngineKind(%d)", uint8(e))
}

// RetimeOptions configures Design.Retime.
type RetimeOptions struct {
	// Algorithm picks the objective (default MinObsWin).
	Algorithm Algorithm
	// Epsilon relaxes the minimal clock period (default 0.10, Section V).
	Epsilon float64
	// Ts and Th are setup/hold times (defaults 0 and 2).
	Ts, Th float64
	// Analysis tunes the observability/SER evaluation.
	Analysis AnalysisOptions
	// Engine selects the optimizer machinery.
	Engine EngineKind
	// AreaWeight λ adds λ·(register-count gain) to the objective — the
	// area/power-weighted extension of the paper's Section VII.
	AreaWeight float64
	// Verify co-simulates the optimizer's move against the initialized
	// circuit and fails on any output divergence.
	Verify bool
	// StallSteps arms the optimizer watchdog: the run aborts with an
	// error unwrapping to guard.ErrStalled when the objective has not
	// improved for this many consecutive steps. 0 disables the watchdog.
	StallSteps int
	// Recorder receives the run's telemetry: phase spans (obs-analysis,
	// init, gains, minimize, verify, rebuild, analysis and the optimizer's
	// inner phases), counters, gauges, and the worker-pool utilization
	// counters of the sharded analyses. nil records nothing; the no-op
	// recorder costs nothing on the hot path. A telemetry.Trace stores the
	// run as a span tree with counters on their spans; telemetry.Fold of
	// its document gives the flat RunStats.
	Recorder telemetry.Recorder
	// Workers bounds the CPU workers of the parallel analyses (signature
	// simulation and ODC observability). 0 (or negative) means one
	// worker per available CPU; 1 runs the exact sequential code paths.
	// Every result is bit-identical for every value (DESIGN.md §11).
	Workers int
	// warmStart bulk-seeds the optimizer's constraint engine with the P0
	// requirement closure of each round's committed state instead of
	// discovering the same constraints one violation batch at a time
	// (core.Options.WarmStart). It can change a MinObsWin result
	// (TestSeededVsLazyTableI), so it is not a public option: only the
	// ECO session path sets it (DESIGN.md §17), and CanonicalKey, which
	// keys batch results, never sees it.
	warmStart bool
	// rminOverride replaces the Section V shortest-path bound Rmin of the
	// P2' constraints when nonzero. Only tests set it, to wedge the ELW
	// budget (an absurdly large bound makes every P2' constraint
	// infeasible); the relaxed tier of RetimeRobust shrinks it. Like
	// warmStart it is never keyed.
	rminOverride float64
}

// normalized applies the documented defaults (ε = 0.10, Ts/Th = 0/2,
// analysis defaults) so the solver, the canonical option hash, and the
// service cache all see one value per configuration.
func (o RetimeOptions) normalized() RetimeOptions {
	if o.Epsilon == 0 {
		o.Epsilon = 0.10
	}
	if o.Ts == 0 {
		o.Ts = DefaultTs
	}
	if o.Th == 0 {
		o.Th = DefaultTh
	}
	o.Analysis = o.Analysis.normalized()
	return o
}

// kUnits is the integer scaling of observabilities: the number of
// simulated vectors K, as in the paper.
func (o RetimeOptions) kUnits() int { return 64 * o.Analysis.SignatureWords }

// validate rejects non-finite float parameters, a negative Epsilon, Ts
// or Th, an Epsilon above MaxEpsilon and bad analysis options with typed
// errors unwrapping to guard.ErrParse, and folds negative zeros to +0,
// so the service's content-addressed result cache never sees a key that
// cannot equal itself (NaN) or two spellings of one value (±0), and no
// out-of-range parameter fails every tier of RetimeRobust instead of
// failing at the boundary. op names the entry point for the error text.
func (o *RetimeOptions) validate(op string) error {
	for _, f := range []struct {
		name   string
		v      *float64
		signed bool
	}{
		{"Epsilon", &o.Epsilon, false},
		{"Ts", &o.Ts, false},
		{"Th", &o.Th, false},
		{"AreaWeight", &o.AreaWeight, true},
	} {
		if math.IsNaN(*f.v) || math.IsInf(*f.v, 0) {
			return guard.Optionf(op, f.name, "must be finite, got %v", *f.v)
		}
		if *f.v == 0 {
			*f.v = 0 // fold -0 to +0: hashes format the sign
		}
		if *f.v < 0 && !f.signed {
			return guard.Optionf(op, f.name, "must not be negative, got %v", *f.v)
		}
	}
	if o.Epsilon > MaxEpsilon {
		return guard.Optionf(op, "Epsilon", "must not exceed %v, got %v", MaxEpsilon, o.Epsilon)
	}
	return o.Analysis.validate(op)
}

// canonFloat renders a float for canonical keys: shortest round-trip
// form, with -0 folded into +0.
func canonFloat(v float64) string {
	if v == 0 {
		v = 0
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// CanonicalKey returns a deterministic textual encoding of every option
// that can influence the retiming result, with defaults applied — two
// option values with equal keys request the same computation. Fields
// documented result-invariant are excluded: Workers (bit-identical for
// every count, DESIGN.md §11), Recorder, and Verify (a check that can
// only turn a result into an error, never change it). The unexported
// warmStart and rminOverride are not result-invariant (DESIGN.md §17)
// and are left out for another reason: only the session path and tests
// set them, on private copies that are never keyed. The service's
// content-addressed cache hashes this string next to the normalized
// netlist, and its job journal stores the hash, so the key text must
// not drift: "rmin=0", "kunits=" (always 64 × words), "single=false"
// and "literal=false" are fixed text printing the values those former
// options always had.
func (o RetimeOptions) CanonicalKey() string {
	n := o.normalized()
	return fmt.Sprintf("alg=%s engine=%s eps=%s ts=%s th=%s area=%s rmin=0 kunits=%d single=false literal=false stall=%d %s",
		n.Algorithm, n.Engine, canonFloat(n.Epsilon), canonFloat(n.Ts), canonFloat(n.Th),
		canonFloat(n.AreaWeight), n.kUnits(), n.StallSteps, n.Analysis.CanonicalKey())
}

// RetimeResult reports a full retiming run.
type RetimeResult struct {
	// Algorithm echoes the objective.
	Algorithm Algorithm
	// Phi is the relaxed clock period used as the P1' constraint; PhiMin
	// the unrelaxed minimum found; Rmin the P2' shortest-path bound.
	Phi, PhiMin, Rmin float64
	// SetupHoldOK records whether the Section V setup+hold initialization
	// succeeded (false = fallback to plain min-period, Rmin degenerate).
	SetupHoldOK bool
	// Before and After are SER analyses of the original and retimed
	// circuits at Phi.
	Before, After Analysis
	// Rounds (#J) and Steps are optimizer iteration counts.
	Rounds, Steps int
	// Runtime is the optimizer wall time (excluding analysis).
	Runtime time.Duration
	// Retimed is the materialized retimed circuit.
	Retimed *Design
}

// DeltaSER returns the relative SER change in percent (negative =
// improvement), the paper's ΔSER columns.
func (r *RetimeResult) DeltaSER() float64 {
	if r.Before.SER == 0 {
		return 0
	}
	return 100 * (r.After.SER - r.Before.SER) / r.Before.SER
}

// DeltaFF returns the relative flip-flop count change in percent.
func (r *RetimeResult) DeltaFF() float64 {
	if r.Before.SharedFFs == 0 {
		return 0
	}
	return 100 * float64(r.After.SharedFFs-r.Before.SharedFFs) / float64(r.Before.SharedFFs)
}

// Retime runs the full pipeline of the paper: Section V initialization
// (setup+hold min-period retiming, ε relaxation, Rmin selection), then the
// selected optimizer, then SER evaluation of the result.
func (d *Design) Retime(opt RetimeOptions) (*RetimeResult, error) {
	return d.RetimeCtx(context.Background(), opt)
}

// RetimeCtx is Retime under cooperative cancellation and panic isolation:
// the analysis passes, the initialization searches and the optimizer loop
// check ctx and abort with an error unwrapping to guard.ErrTimeout once
// it is done, and any internal panic is recovered into an error
// unwrapping to guard.ErrInternal instead of crashing the caller. The
// receiver's circuit is never modified, complete or not: the retimed
// netlist is materialized as a fresh Design.
func (d *Design) RetimeCtx(ctx context.Context, opt RetimeOptions) (*RetimeResult, error) {
	return guard.Do(ctx, "serretime.Retime", func(ctx context.Context) (*RetimeResult, error) {
		return d.retime(ctx, opt)
	})
}

func (d *Design) retime(ctx context.Context, opt RetimeOptions) (*RetimeResult, error) {
	if err := opt.validate("serretime.Retime"); err != nil {
		return nil, err
	}
	opt = opt.normalized()
	rec := telemetry.OrNop(opt.Recorder)

	rec.SpanStart(telemetry.PhaseObs)
	err := d.ensureObs(ctx, opt.Analysis, opt.Workers, opt.Recorder)
	rec.SpanEnd(telemetry.PhaseObs, err)
	if err != nil {
		return nil, err
	}

	init, err := retime.Initialize(ctx, d.g, retime.Options{
		Ts: opt.Ts, Th: opt.Th, Epsilon: opt.Epsilon, Recorder: opt.Recorder,
	})
	if err != nil {
		return nil, err
	}
	base, err := d.g.Rebase(init.R)
	if err != nil {
		return nil, err
	}

	rec.SpanStart(telemetry.PhaseGains)
	k := opt.kUnits()
	gateObs, edgeObs := d.gateObs, d.edgeObs
	if opt.Algorithm == MinArea {
		// Min-area: every register costs 1 regardless of position.
		gateObs = ones(len(d.gateObs))
		edgeObs = ones(len(d.edgeObs))
	}
	gains, obsInt := core.Gains(base, gateObs, edgeObs, k)
	if opt.AreaWeight != 0 && opt.Algorithm != MinArea {
		areaGains, _ := core.Gains(base, ones(len(gateObs)), ones(len(edgeObs)), k)
		lambda := opt.AreaWeight
		for v := range gains {
			gains[v] += int64(lambda * float64(areaGains[v]))
		}
	}
	rec.SpanEnd(telemetry.PhaseGains, nil)

	copt := core.Options{
		Phi: init.Phi, Ts: opt.Ts, Th: opt.Th, Rmin: init.Rmin,
		ELWConstraints: opt.Algorithm == MinObsWin,
		StallSteps:     opt.StallSteps,
		Recorder:       opt.Recorder,
		WarmStart:      opt.warmStart,
	}
	if opt.rminOverride != 0 {
		copt.Rmin = opt.rminOverride
	}
	if opt.Engine == EngineForest {
		copt.Engine = core.EngineForest
	}
	start := time.Now()
	rec.SpanStart(telemetry.PhaseMinimize)
	cres, err := core.Minimize(ctx, base, gains, obsInt, copt)
	rec.SpanEnd(telemetry.PhaseMinimize, err)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	if opt.Verify {
		rec.SpanStart(telemetry.PhaseVerify)
		err := d.verifyMove(init.R, cres.R)
		rec.SpanEnd(telemetry.PhaseVerify, err)
		if err != nil {
			return nil, err
		}
	}

	// Total retiming relative to the original circuit.
	rec.SpanStart(telemetry.PhaseRebuild)
	total := init.R.Clone()
	for v := range total {
		total[v] += cres.R[v]
	}
	rb, err := graph.Rebuild(d.c, d.g, total)
	if err != nil {
		rec.SpanEnd(telemetry.PhaseRebuild, err)
		return nil, err
	}
	retimed, err := newDesign(rb.C)
	rec.SpanEnd(telemetry.PhaseRebuild, err)
	if err != nil {
		return nil, err
	}

	rec.SpanStart(telemetry.PhaseAnalysis)
	p := elw.Params{Phi: init.Phi, Ts: opt.Ts, Th: opt.Th}
	before := d.analyzeAt(d.g, graph.NewRetiming(d.g), p, opt.Analysis)
	after := d.analyzeAt(d.g, total, p, opt.Analysis)
	rec.SpanEnd(telemetry.PhaseAnalysis, nil)
	return &RetimeResult{
		Algorithm: opt.Algorithm,
		Phi:       init.Phi, PhiMin: init.PhiMin, Rmin: init.Rmin,
		SetupHoldOK: init.SetupHoldOK,
		Before:      *before, After: *after,
		Rounds: cres.Rounds, Steps: cres.Steps,
		Runtime: elapsed,
		Retimed: retimed,
	}, nil
}

// verifyMove checks sequential equivalence of the optimizer's (forward)
// move against the initialized circuit by exact state transport and
// co-simulation.
func (d *Design) verifyMove(initR graph.Retiming, moveR graph.Retiming) error {
	rb, err := graph.Rebuild(d.c, d.g, initR)
	if err != nil {
		return err
	}
	g1 := graph.FromCircuit(rb.C)
	// Transfer the move onto the rebuilt circuit's graph by gate name.
	r1 := graph.NewRetiming(g1)
	for v := 1; v < d.g.NumVertices(); v++ {
		if moveR[v] == 0 {
			continue
		}
		n1, ok := rb.C.Lookup(d.g.Name(graph.VertexID(v)))
		if !ok {
			return fmt.Errorf("serretime: verify: gate %q lost in rebuild", d.g.Name(graph.VertexID(v)))
		}
		v1, ok := g1.VertexOf(n1)
		if !ok {
			return fmt.Errorf("serretime: verify: gate %q not in rebuilt graph", d.g.Name(graph.VertexID(v)))
		}
		r1[v1] = moveR[v]
	}
	return verify.ForwardEquivalent(rb.C, g1, r1, verify.DefaultOptions())
}

func ones(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// String renders the design's netlist in .bench syntax.
func (d *Design) String() string {
	var buf bytes.Buffer
	if err := benchfmt.Write(&buf, d.c); err != nil {
		return fmt.Sprintf("<error: %v>", err)
	}
	return buf.String()
}
