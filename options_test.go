package serretime

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"serretime/internal/graph"
	"serretime/internal/guard"
)

// TestRetimeRejectsNonFiniteOptions pins the option boundary: a NaN
// cannot equal itself as a cache key, ±Inf poisons the Section V
// initialization, an Epsilon above MaxEpsilon can overflow the clock
// period (1e308 makes every SER NaN), a negative Epsilon, Ts or Th fails
// every optimizer tier, so RetimeRobust would silently answer from the
// identity tier, a negative Frames or SignatureWords fails every tier
// in the simulator, and every Engine but EngineClosure (the forest's
// old value 1 included) names an engine no solve runs. Both entry points must refuse these at the
// boundary with a typed error unwrapping to guard.ErrParse, before any
// solving or caching happens: RetimeRobust's error is its own, not a
// tier's.
func TestRetimeRejectsNonFiniteOptions(t *testing.T) {
	d := smallDesign(t)
	bad := []struct {
		name string
		mut  func(*RetimeOptions)
	}{
		{"epsilon/nan", func(o *RetimeOptions) { o.Epsilon = math.NaN() }},
		{"epsilon/+inf", func(o *RetimeOptions) { o.Epsilon = math.Inf(1) }},
		{"epsilon/negative", func(o *RetimeOptions) { o.Epsilon = -0.5 }},
		{"epsilon/overflow", func(o *RetimeOptions) { o.Epsilon = 1e308 }},
		{"epsilon/above-max", func(o *RetimeOptions) { o.Epsilon = 150 }},
		{"ts/nan", func(o *RetimeOptions) { o.Ts = math.NaN() }},
		{"ts/negative", func(o *RetimeOptions) { o.Ts = -0.5 }},
		{"th/-inf", func(o *RetimeOptions) { o.Th = math.Inf(-1) }},
		{"th/negative", func(o *RetimeOptions) { o.Th = -1 }},
		{"area/nan", func(o *RetimeOptions) { o.AreaWeight = math.NaN() }},
		{"frames/negative", func(o *RetimeOptions) { o.Analysis.Frames = -1 }},
		{"words/negative", func(o *RetimeOptions) { o.Analysis.SignatureWords = -1 }},
		{"engine/forest", func(o *RetimeOptions) { o.Engine = EngineKind(1) }},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			opt := RetimeOptions{Algorithm: MinObsWin, Analysis: fastAnalysis}
			tc.mut(&opt)
			if _, err := d.Retime(opt); !errors.Is(err, guard.ErrParse) {
				t.Errorf("Retime: want guard.ErrParse, got %v", err)
			}
			var oe *guard.OptionError
			_, err := d.RetimeRobust(context.Background(), RobustOptions{RetimeOptions: opt})
			if !errors.Is(err, guard.ErrParse) || !errors.As(err, &oe) || oe.Op != "serretime.RetimeRobust" {
				t.Errorf("RetimeRobust: want its own *guard.OptionError (ErrParse), got %v", err)
			}
		})
	}
}

// TestAnalyzeRejectsBadPhi: Analyze and CriticalElements check the clock
// period they are given, because +Inf would make every SER NaN, NaN would
// fail inside the ELW analysis with an untyped error, and a negative
// period would silently mean the critical path. Each fails with a
// *guard.OptionError (ErrParse); 0, of either sign, means the critical
// path.
func TestAnalyzeRejectsBadPhi(t *testing.T) {
	d, err := Load("testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, phi := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -math.SmallestNonzeroFloat64} {
		var oe *guard.OptionError
		if _, err := d.Analyze(phi, fastAnalysis); !errors.As(err, &oe) || !errors.Is(err, guard.ErrParse) {
			t.Errorf("Analyze(%v): want *guard.OptionError (ErrParse), got %v", phi, err)
		}
		if _, err := d.CriticalElements(phi, 3, fastAnalysis); !errors.As(err, &oe) || !errors.Is(err, guard.ErrParse) {
			t.Errorf("CriticalElements(%v): want *guard.OptionError (ErrParse), got %v", phi, err)
		}
	}
	_, crit := d.g.ArrivalTimes(graph.NewRetiming(d.g))
	for _, phi := range []float64{0, math.Copysign(0, -1)} {
		an, err := d.Analyze(phi, fastAnalysis)
		if err != nil {
			t.Fatal(err)
		}
		if an.Phi != crit || math.IsNaN(an.SER) || an.SER <= 0 {
			t.Fatalf("Analyze(%v) = phi %v SER %v, want phi %v (the critical path)", phi, an.Phi, an.SER, crit)
		}
		if _, err := d.CriticalElements(phi, 3, fastAnalysis); err != nil {
			t.Fatalf("CriticalElements(%v): %v", phi, err)
		}
	}
}

// TestAnalyzeRejectsNegativeSizes: Analyze and CriticalElements refuse a
// negative Frames or SignatureWords with a *guard.OptionError (ErrParse)
// instead of handing it to the simulator; 0 still means the default.
func TestAnalyzeRejectsNegativeSizes(t *testing.T) {
	d, err := Load("testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []AnalysisOptions{{Frames: -1}, {SignatureWords: -1}} {
		var oe *guard.OptionError
		if _, err := d.Analyze(0, opt); !errors.As(err, &oe) || !errors.Is(err, guard.ErrParse) {
			t.Errorf("Analyze(%+v): want *guard.OptionError (ErrParse), got %v", opt, err)
		}
		if _, err := d.CriticalElements(0, 3, opt); !errors.As(err, &oe) || !errors.Is(err, guard.ErrParse) {
			t.Errorf("CriticalElements(%+v): want *guard.OptionError (ErrParse), got %v", opt, err)
		}
	}
	if _, err := d.Analyze(0, AnalysisOptions{Frames: 0, SignatureWords: 1}); err != nil {
		t.Errorf("Analyze with default frames: %v", err)
	}
}

// TestNegativeZeroFolded checks the other half of the float-key hazard:
// -0.0 and +0.0 compare equal but format differently, so they must fold
// to one canonical key.
func TestNegativeZeroFolded(t *testing.T) {
	zero := RetimeOptions{Algorithm: MinObsWin, Analysis: fastAnalysis}
	neg := zero
	neg.AreaWeight = math.Copysign(0, -1)
	if zero.CanonicalKey() != neg.CanonicalKey() {
		t.Errorf("-0 and +0 produce different canonical keys:\n  %s\n  %s",
			zero.CanonicalKey(), neg.CanonicalKey())
	}
	if strings.Contains(neg.CanonicalKey(), "-0") {
		t.Errorf("canonical key leaks a negative zero: %s", neg.CanonicalKey())
	}
	d := smallDesign(t)
	if _, err := d.RetimeRobust(context.Background(), RobustOptions{RetimeOptions: neg}); err != nil {
		t.Errorf("-0 option rejected: %v", err)
	}
}

// TestCanonicalKeyNormalization pins the canonical-key contract used by
// the service cache: zero values and spelled-out defaults are one key;
// result-relevant fields split it; result-invariant fields don't.
func TestCanonicalKeyNormalization(t *testing.T) {
	var zero RetimeOptions
	spelled := RetimeOptions{Epsilon: 0.10, Ts: DefaultTs, Th: DefaultTh}
	if zero.CanonicalKey() != spelled.CanonicalKey() {
		t.Errorf("defaults fragment the key:\n  %s\n  %s", zero.CanonicalKey(), spelled.CanonicalKey())
	}
	invariant := zero
	invariant.Workers = 16
	invariant.Verify = true
	if zero.CanonicalKey() != invariant.CanonicalKey() {
		t.Error("result-invariant fields (Workers, Verify) fragment the key")
	}
	changed := zero
	changed.Epsilon = 0.2
	if zero.CanonicalKey() == changed.CanonicalKey() {
		t.Error("epsilon change does not split the key")
	}

	var rzero RobustOptions
	rspelled := RobustOptions{RetimeOptions: spelled}
	if rzero.CanonicalKey() != rspelled.CanonicalKey() {
		t.Errorf("robust defaults fragment the key:\n  %s\n  %s",
			rzero.CanonicalKey(), rspelled.CanonicalKey())
	}
	rchanged := rzero
	rchanged.Timeout = time.Minute
	if rzero.CanonicalKey() == rchanged.CanonicalKey() {
		t.Error("timeout change does not split the robust key")
	}
}

// TestCanonicalKeyGolden pins the full key text. The service derives job
// IDs from it and journals those IDs, so a job journaled by an older
// version recovers only while the text stays byte-identical. The fields
// engine, rmin, kunits, single, literal, retries and relax name options
// that no longer exist and print the values they always had.
func TestCanonicalKeyGolden(t *testing.T) {
	set := RobustOptions{
		RetimeOptions: RetimeOptions{
			Algorithm: MinObs, Epsilon: 0.2, Ts: 0.5, Th: 4, AreaWeight: 0.5, StallSteps: 7,
			Verify: true, Workers: 3,
			Analysis: AnalysisOptions{Accuracy: AccuracyFast, Frames: 3, SignatureWords: 2, Seed: 42, MaxIntervals: 8},
		},
		Timeout: time.Minute,
	}
	for _, tc := range []struct {
		name string
		opt  RobustOptions
		want string
	}{
		{"zero", RobustOptions{},
			"alg=MinObsWin engine=closure eps=0.1 ts=0 th=2 area=0 rmin=0 kunits=256 single=false literal=false stall=0 acc=exact frames=15 words=4 seed=1 maxint=0 timeout=0s retries=0 relax=2"},
		{"set", set,
			"alg=MinObs engine=closure eps=0.2 ts=0.5 th=4 area=0.5 rmin=0 kunits=128 single=false literal=false stall=7 acc=fast frames=3 words=2 seed=42 maxint=8 timeout=1m0s retries=0 relax=2"},
	} {
		if got := tc.opt.CanonicalKey(); got != tc.want {
			t.Errorf("%s key:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestFormatSniffing covers the case-sensitivity bug in Load: extension
// sniffing must be case-insensitive (".BENCH" files from DOS-era
// benchmark archives are real), .bench must be recognized explicitly,
// and an unknown extension must fail with a typed error unwrapping to
// guard.ErrParse instead of being parsed as something arbitrary.
func TestFormatSniffing(t *testing.T) {
	cases := []struct {
		path string
		want Format
		ok   bool
	}{
		{"a.bench", FormatBench, true},
		{"a.BENCH", FormatBench, true},
		{"a.Bench", FormatBench, true},
		{"dir.v/a.blif", FormatBLIF, true},
		{"a.BLIF", FormatBLIF, true},
		{"a.v", FormatVerilog, true},
		{"a.V", FormatVerilog, true},
		{"a.verilog", 0, false},
		{"a.txt", 0, false},
		{"bench", 0, false},
		{"", 0, false},
	}
	for _, tc := range cases {
		f, err := FormatOf(tc.path)
		if tc.ok {
			if err != nil || f != tc.want {
				t.Errorf("FormatOf(%q) = %v, %v; want %v", tc.path, f, err, tc.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("FormatOf(%q) accepted an unknown extension (%v)", tc.path, f)
			continue
		}
		var ue *UnknownFormatError
		if !errors.Is(err, guard.ErrParse) || !errors.As(err, &ue) {
			t.Errorf("FormatOf(%q): want *UnknownFormatError (ErrParse), got %v", tc.path, err)
		}
	}
}

// TestLoadCaseInsensitive writes one valid netlist under upper- and
// mixed-case extensions and loads each through the sniffing path.
func TestLoadCaseInsensitive(t *testing.T) {
	dir := t.TempDir()
	bench := "INPUT(a)\nOUTPUT(y)\nf = DFF(a)\ny = NOT(f)\n"
	for _, name := range []string{"c.BENCH", "c.Bench", "c.bench"} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(bench), 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Load(p)
		if err != nil {
			t.Errorf("Load(%s): %v", name, err)
			continue
		}
		if d.Name() != "c" {
			t.Errorf("Load(%s) named the design %q", name, d.Name())
		}
	}
	p := filepath.Join(dir, "c.netlist")
	if err := os.WriteFile(p, []byte(bench), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(p)
	var ue *UnknownFormatError
	if !errors.Is(err, guard.ErrParse) || !errors.As(err, &ue) {
		t.Errorf("Load of unknown extension: want *UnknownFormatError (ErrParse), got %v", err)
	}
	if ue != nil && ue.Path != p {
		t.Errorf("UnknownFormatError.Path = %q, want %q", ue.Path, p)
	}
}

// TestParseByName checks the reader-based entry point used by the
// service: the name selects the format (case-insensitively) and the
// design is named after the base without its extension.
func TestParseByName(t *testing.T) {
	bench := "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"
	d, err := Parse(strings.NewReader(bench), "Circuit.BENCH")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "Circuit" {
		t.Errorf("Parse named the design %q", d.Name())
	}
	if _, err := Parse(strings.NewReader(bench), "circuit.json"); !errors.Is(err, guard.ErrParse) {
		t.Errorf("Parse of unknown extension: want guard.ErrParse, got %v", err)
	}
}
