package serretime

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"serretime/internal/guard"
)

// TestRetimeRejectsNonFiniteOptions pins the option boundary: a NaN
// cannot equal itself as a cache key, ±Inf poisons the Section V
// initialization, and a negative Epsilon fails every optimizer tier, so
// RetimeRobust would silently answer from the identity tier. Both entry
// points must refuse these at the boundary with a typed error unwrapping
// to guard.ErrParse, before any solving or caching happens.
func TestRetimeRejectsNonFiniteOptions(t *testing.T) {
	d := smallDesign(t)
	bad := []struct {
		name string
		mut  func(*RetimeOptions)
	}{
		{"epsilon/nan", func(o *RetimeOptions) { o.Epsilon = math.NaN() }},
		{"epsilon/+inf", func(o *RetimeOptions) { o.Epsilon = math.Inf(1) }},
		{"epsilon/negative", func(o *RetimeOptions) { o.Epsilon = -0.5 }},
		{"ts/nan", func(o *RetimeOptions) { o.Ts = math.NaN() }},
		{"th/-inf", func(o *RetimeOptions) { o.Th = math.Inf(-1) }},
		{"area/nan", func(o *RetimeOptions) { o.AreaWeight = math.NaN() }},
		{"rmin/nan", func(o *RetimeOptions) { o.RminOverride = math.NaN() }},
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
			if !errors.Is(err, guard.ErrParse) || !errors.As(err, &oe) {
				t.Errorf("RetimeRobust: want *guard.OptionError (ErrParse), got %v", err)
			}
		})
	}
	t.Run("relaxfactor/nan", func(t *testing.T) {
		_, err := d.RetimeRobust(context.Background(), RobustOptions{
			RetimeOptions: RetimeOptions{Algorithm: MinObsWin, Analysis: fastAnalysis},
			RelaxFactor:   math.NaN(),
		})
		if !errors.Is(err, guard.ErrParse) {
			t.Errorf("RelaxFactor NaN: want guard.ErrParse, got %v", err)
		}
	})
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
	rspelled := RobustOptions{RelaxFactor: 2}
	if rzero.CanonicalKey() != rspelled.CanonicalKey() {
		t.Errorf("robust defaults fragment the key:\n  %s\n  %s",
			rzero.CanonicalKey(), rspelled.CanonicalKey())
	}
	rchanged := rzero
	rchanged.Retries = 3
	if rzero.CanonicalKey() == rchanged.CanonicalKey() {
		t.Error("retry change does not split the robust key")
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
