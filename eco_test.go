package serretime_test

// External test package: internal/eco imports serretime, so this file
// cannot live in package serretime without a cycle.

import (
	"bytes"
	"context"
	"testing"

	"serretime"
	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
	"serretime/internal/eco"
	"serretime/internal/telemetry"
)

func robustOpts() serretime.RobustOptions {
	return serretime.RobustOptions{
		RetimeOptions: serretime.RetimeOptions{
			Algorithm: serretime.MinObsWin,
			Analysis:  serretime.AnalysisOptions{Frames: 3, SignatureWords: 1},
		},
	}
}

func coldBytes(t *testing.T, bench []byte, opt serretime.RobustOptions) []byte {
	t.Helper()
	d, err := serretime.ParseBench(bytes.NewReader(bench), "eco")
	if err != nil {
		t.Fatalf("parse mutated netlist: %v", err)
	}
	res, err := d.RetimeRobust(context.Background(), opt)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	var buf bytes.Buffer
	if err := res.Retimed.WriteBench(&buf); err != nil {
		t.Fatalf("encode cold result: %v", err)
	}
	return buf.Bytes()
}

// ecoBase synthesizes a base circuit and round-trips it through .bench
// into a Design and a circuit for the delta generator. Both sides start
// from the same parsed bytes, which keeps their node IDs aligned as the
// same deltas apply on both sides.
func ecoBase(t *testing.T, spec serretime.CircuitSpec) (*serretime.Design, *circuit.Circuit, []byte) {
	t.Helper()
	d0, err := serretime.Synthesize(spec)
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	var base bytes.Buffer
	if err := d0.WriteBench(&base); err != nil {
		t.Fatalf("encode base: %v", err)
	}
	d, err := serretime.ParseBench(bytes.NewReader(base.Bytes()), "eco")
	if err != nil {
		t.Fatalf("reparse base: %v", err)
	}
	c, err := benchfmt.Parse(bytes.NewReader(base.Bytes()), "eco")
	if err != nil {
		t.Fatalf("reparse base circuit: %v", err)
	}
	return d, c, base.Bytes()
}

// TestRetimeDeltaMatchesCold is the delta-path identity contract on a
// netlist where seeding reaches the lazy fixpoint: every RetimeDelta
// answer must be byte-identical to a from-scratch RetimeRobust of the
// same mutated netlist (DESIGN.md §17).
func TestRetimeDeltaMatchesCold(t *testing.T) {
	d, c, base := ecoBase(t, serretime.CircuitSpec{
		Gates: 220, Conns: 520, FFs: 30, Depth: 7, FanoutSkew: 0.25,
	})
	opt := robustOpts()
	ctx := context.Background()

	w, err := serretime.NewWarmState(ctx, d, opt)
	if err != nil {
		t.Fatalf("NewWarmState: %v", err)
	}

	// The warm-started initial solve must already match a plain cold solve.
	var warm0 bytes.Buffer
	if err := w.Result().Retimed.WriteBench(&warm0); err != nil {
		t.Fatalf("encode warm base result: %v", err)
	}
	if cold := coldBytes(t, base, opt); !bytes.Equal(warm0.Bytes(), cold) {
		t.Fatalf("initial warm-started solve differs from cold solve")
	}

	g := eco.NewGen(c, 1)
	for i := 0; i < 8; i++ {
		ops, err := g.Next()
		if err != nil {
			t.Fatalf("delta %d: generate: %v", i, err)
		}
		res, err := w.RetimeDelta(ctx, ops, opt)
		if err != nil {
			t.Fatalf("delta %d (%+v): %v", i, ops, err)
		}
		var got bytes.Buffer
		if err := res.Retimed.WriteBench(&got); err != nil {
			t.Fatalf("delta %d: encode: %v", i, err)
		}
		bench, err := g.Bench()
		if err != nil {
			t.Fatalf("delta %d: encode mirror: %v", i, err)
		}
		if want := coldBytes(t, bench, opt); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("delta %d: warm result differs from cold solve of the mutated netlist", i)
		}
	}
}

// TestRetimeDeltaOptionChanges: a delta without ops re-solves the held
// netlist under new options, including a changed analysis and the
// forest engine, and answers exactly what a session opened on the same
// netlist under those options answers. A failed delta does not advance
// the state.
func TestRetimeDeltaOptionChanges(t *testing.T) {
	spec := serretime.CircuitSpec{Gates: 60, Conns: 140, FFs: 10, Depth: 5}
	synth := func() *serretime.Design {
		d, err := serretime.Synthesize(spec)
		if err != nil {
			t.Fatalf("synthesize: %v", err)
		}
		return d
	}
	opt := robustOpts()
	ctx := context.Background()
	w, err := serretime.NewWarmState(ctx, synth(), opt)
	if err != nil {
		t.Fatalf("NewWarmState: %v", err)
	}

	aopt := opt
	aopt.Analysis.Frames = 4
	eopt := aopt
	eopt.Engine = serretime.EngineForest
	for _, tc := range []struct {
		name string
		opt  serretime.RobustOptions
	}{{"analysis-change", aopt}, {"forest-engine", eopt}, {"back-to-closure", aopt}} {
		res, err := w.RetimeDelta(ctx, nil, tc.opt)
		if err != nil {
			t.Fatalf("%s delta: %v", tc.name, err)
		}
		open, err := serretime.NewWarmState(ctx, synth(), tc.opt)
		if err != nil {
			t.Fatalf("%s open: %v", tc.name, err)
		}
		if got, want := res.Retimed.String(), open.Result().Retimed.String(); got != want {
			t.Fatalf("%s delta differs from a session opened under the same options", tc.name)
		}
		if w.Options().CanonicalKey() != tc.opt.CanonicalKey() {
			t.Fatalf("%s delta did not advance the options", tc.name)
		}
	}

	d, res, committed := w.Design(), w.Result(), w.Options()
	if _, err := w.RetimeDelta(ctx, []serretime.DeltaOp{{Op: "rm_node", Name: "no_such_net"}}, opt); err == nil {
		t.Fatalf("bad delta did not fail")
	}
	if w.Design() != d || w.Result() != res || w.Options().CanonicalKey() != committed.CanonicalKey() {
		t.Fatalf("failed delta advanced the state")
	}
	if _, err := w.RetimeDelta(ctx, nil, committed); err != nil {
		t.Fatalf("post-failure delta: %v", err)
	}
}

// TestRetimeDeltaKeepsObsCache pins the one saving a session keeps
// besides the parse: a delta without ops under unchanged analysis
// options re-solves the held Design, whose observability analysis is
// cached, so it runs neither the signature simulation nor the ODC pass.
// A structural delta solves a new Design, and a Frames change re-keys
// the cache; both must run the analysis again.
func TestRetimeDeltaKeepsObsCache(t *testing.T) {
	d, c, _ := ecoBase(t, serretime.CircuitSpec{Gates: 120, Conns: 280, FFs: 16, Depth: 6})
	opt := robustOpts()
	ctx := context.Background()
	w, err := serretime.NewWarmState(ctx, d, opt)
	if err != nil {
		t.Fatalf("NewWarmState: %v", err)
	}
	// analysisShards runs one delta under a fresh Trace and counts the
	// shard spans of the observability analysis it recorded.
	analysisShards := func(name string, ops []serretime.DeltaOp, o serretime.RobustOptions) int {
		t.Helper()
		tr := telemetry.NewTrace(telemetry.TraceID{})
		o.Recorder = tr
		if _, err := w.RetimeDelta(ctx, ops, o); err != nil {
			t.Fatalf("%s delta: %v", name, err)
		}
		tr.Finish()
		n := 0
		tr.Doc("", "", "", "", false).Root.Walk(func(_ int, sp *telemetry.Span) {
			if sp.Name == "par:sim.run" || sp.Name == "par:obs.compute" {
				n++
			}
		})
		return n
	}
	if n := analysisShards("option-only", nil, opt); n != 0 {
		t.Errorf("option-only delta recorded %d analysis shard spans, want 0 (cache hit)", n)
	}
	ops, err := eco.NewGen(c, 3).Next()
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if n := analysisShards("structural", ops, opt); n == 0 {
		t.Error("structural delta recorded no analysis shard spans")
	}
	if n := analysisShards("option-only after structural", nil, opt); n != 0 {
		t.Errorf("option-only delta after a structural one recorded %d analysis shard spans, want 0", n)
	}
	fopt := opt
	fopt.Analysis.Frames = 4
	if n := analysisShards("frames-change", nil, fopt); n == 0 {
		t.Error("option-only delta that changes Frames recorded no analysis shard spans")
	}
}
