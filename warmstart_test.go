package serretime

// Tests of seeded constraint discovery (core.Options.WarmStart, the ECO
// session path; DESIGN.md §17): bulk-seeding the optimizer's constraint
// engine with the P0 requirement closure usually reaches the same
// committed fixpoint as the lazy violation-discovery cascade, but not
// always. TestWarmStartMatchesCold pins circuits where the retimed
// netlist, objective and SER analyses are bit-identical and only the
// step count changes; TestSeededVsLazyTableI pins the Table I census,
// including the one input where MinObsWin settles elsewhere.

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"serretime/internal/gen"
)

// warmStartCases pairs circuits with option sets covering both
// algorithms, wide and deep generated circuits, and the fast analysis
// engine.
func warmStartCases(t *testing.T) []struct {
	name string
	d    func() *Design
	opt  RetimeOptions
} {
	t.Helper()
	fromFile := func(path string) func() *Design {
		return func() *Design {
			d, err := Load(path)
			if err != nil {
				t.Fatalf("load %s: %v", path, err)
			}
			return d
		}
	}
	fromSpec := func(s CircuitSpec) func() *Design {
		return func() *Design {
			d, err := Synthesize(s)
			if err != nil {
				t.Fatalf("generate %s: %v", s.Name, err)
			}
			return d
		}
	}
	small := AnalysisOptions{Frames: 3, SignatureWords: 1}
	return []struct {
		name string
		d    func() *Design
		opt  RetimeOptions
	}{
		{"s27-minobswin", fromFile(filepath.Join("testdata", "s27.bench")),
			RetimeOptions{Algorithm: MinObsWin, Analysis: small}},
		{"pipeline4-minobs", fromFile(filepath.Join("testdata", "pipeline4.bench")),
			RetimeOptions{Algorithm: MinObs, Analysis: small}},
		{"gen-wide-minobswin", fromSpec(CircuitSpec{Name: "warm-wide", Gates: 420, Conns: 980, FFs: 48, Depth: 9, FanoutSkew: 0.25}),
			RetimeOptions{Algorithm: MinObsWin, Analysis: small}},
		{"gen-deep-minobswin", fromSpec(CircuitSpec{Name: "warm-deep", Gates: 300, Conns: 640, FFs: 30, Depth: 24}),
			RetimeOptions{Algorithm: MinObsWin, Analysis: small}},
		{"gen-deep-fast", fromSpec(CircuitSpec{Name: "warm-deep-fast", Gates: 300, Conns: 640, FFs: 30, Depth: 24}),
			RetimeOptions{Algorithm: MinObs, Analysis: AnalysisOptions{Accuracy: AccuracyFast, Frames: 3, SignatureWords: 1}}},
		{"par2500-minobswin", fromFile(filepath.Join("testdata", "par2500.bench")),
			RetimeOptions{Algorithm: MinObsWin, Analysis: small}},
	}
}

// retimedBytes renders the result the service serves for a job: the
// retimed circuit in canonical .bench form.
func retimedBytes(t *testing.T, res *RetimeResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Retimed.WriteBench(&buf); err != nil {
		t.Fatalf("encode retimed: %v", err)
	}
	return buf.Bytes()
}

func TestWarmStartMatchesCold(t *testing.T) {
	for _, tc := range warmStartCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			cold, err := tc.d().Retime(tc.opt)
			if err != nil {
				t.Fatalf("cold retime: %v", err)
			}
			warm := tc.opt
			warm.warmStart = true
			got, err := tc.d().Retime(warm)
			if err != nil {
				t.Fatalf("warm retime: %v", err)
			}
			if cold.Rounds != got.Rounds {
				t.Errorf("rounds: cold %d warm %d", cold.Rounds, got.Rounds)
			}
			if cold.After.SER != got.After.SER || cold.After.SharedFFs != got.After.SharedFFs {
				t.Errorf("analysis: cold SER=%v FFs=%d, warm SER=%v FFs=%d",
					cold.After.SER, cold.After.SharedFFs, got.After.SER, got.After.SharedFFs)
			}
			cb, wb := retimedBytes(t, cold), retimedBytes(t, got)
			if !bytes.Equal(cb, wb) {
				t.Fatalf("retimed netlist differs (cold %d bytes, warm %d bytes)", len(cb), len(wb))
			}
			if testing.Verbose() {
				fmt.Printf("%s: steps cold=%d warm=%d\n", tc.name, cold.Steps, got.Steps)
			}
		})
	}
}

// TestSeededVsLazyTableI is the census behind the seeded-discovery caveat
// of DESIGN.md §17. It solves every Table I substitute at the serve
// workload's scale (at most 500 gates) through RetimeRobust, the batch
// path, and through NewWarmState, which seeds constraint discovery, under
// both objectives. Every pair is byte-identical except s15850.1 under
// MinObsWin, where the seeded solve settles on a different legal
// retiming. A change in either direction fails the test, and the docs
// that cite the census must follow it.
func TestSeededVsLazyTableI(t *testing.T) {
	const gateCap = 500
	differs := map[string]bool{"s15850.1/MinObsWin": true}
	ctx := context.Background()
	pairs, same := 0, 0
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
			key := name + "/" + algo.String()
			opt := RobustOptions{RetimeOptions: RetimeOptions{Algorithm: algo, Workers: 1}}
			lazy, err := d.RetimeRobust(ctx, opt)
			if err != nil {
				t.Fatalf("%s lazy: %v", key, err)
			}
			w, err := NewWarmState(ctx, d, opt)
			if err != nil {
				t.Fatalf("%s seeded: %v", key, err)
			}
			seeded := w.Result()
			pairs++
			eq := bytes.Equal(retimedBytes(t, lazy.RetimeResult), retimedBytes(t, seeded.RetimeResult))
			if eq {
				same++
			}
			msg := fmt.Sprintf("%s: lazy SER=%.6e FFs=%d, seeded SER=%.6e FFs=%d",
				key, lazy.After.SER, lazy.After.SharedFFs, seeded.After.SER, seeded.After.SharedFFs)
			if eq == differs[key] {
				t.Errorf("%s; byte-identical=%v, census says %v", msg, eq, !differs[key])
			} else if !eq {
				t.Log(msg)
			}
		}
	}
	if pairs != 42 || same != 41 {
		t.Errorf("%d of %d pairs byte-identical, census says 41 of 42", same, pairs)
	}
}
