package serretime_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"serretime"
	"serretime/internal/guard"
)

// fuzzNames gives Parse a file name of each format; the fuzzer's format
// byte picks one, modulo their count.
var fuzzNames = []string{"fuzz.bench", "fuzz.blif", "fuzz.v"}

// FuzzParseAnalyze feeds fuzzer bytes to Parse as a netlist of the format
// its first argument picks. Every error must unwrap to guard.ErrParse, and
// every design Parse returns must pass analyzeProblem: whatever parses has
// a retiming graph and a positive clock period.
func FuzzParseAnalyze(f *testing.F) {
	for _, path := range []string{"testdata/s27.bench", "testdata/pipeline4.bench"} {
		d, err := serretime.Load(path)
		if err != nil {
			f.Fatal(err)
		}
		for format, write := range []func(io.Writer) error{d.WriteBench, d.WriteBLIF, d.WriteVerilog} {
			var buf bytes.Buffer
			if err := write(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(byte(format), buf.Bytes())
		}
	}
	// Netlists with no gate other than a constant, so no clock period:
	// empty, a wire, a lone flip-flop in each format, and a constant
	// feeding a flip-flop.
	for _, seed := range []struct {
		format byte
		text   string
	}{
		{0, ""},
		{1, ""},
		{0, "INPUT(a)\nOUTPUT(a)\n"},
		{0, "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n"},
		{1, ".model m\n.inputs a\n.outputs q\n.latch a q re clk 0\n.end\n"},
		{2, "module m(a, q);\ninput a;\noutput q;\ndff r0(q, a);\nendmodule\n"},
		{0, "OUTPUT(q)\nc = CONST1()\nq = DFF(c)\n"},
	} {
		f.Add(seed.format, []byte(seed.text))
	}
	f.Fuzz(func(t *testing.T, format byte, netlist []byte) {
		d, err := serretime.Parse(bytes.NewReader(netlist), fuzzNames[int(format)%len(fuzzNames)])
		if err != nil {
			if !errors.Is(err, guard.ErrParse) {
				t.Fatalf("error %v does not unwrap to guard.ErrParse", err)
			}
			return
		}
		if err := analyzeProblem(d); err != nil {
			t.Fatal(err)
		}
	})
}

// analyzeProblem reports why d fails the analysis every design must pass:
// Analyze at the critical path, with a positive clock period and a
// finite, non-negative SER.
func analyzeProblem(d *serretime.Design) error {
	an, err := d.Analyze(0, serretime.AnalysisOptions{Frames: 2, SignatureWords: 1})
	if err != nil {
		return fmt.Errorf("Analyze: %w", err)
	}
	if !(an.Phi > 0) || math.IsInf(an.Phi, 0) {
		return fmt.Errorf("Analyze: clock period %v", an.Phi)
	}
	if math.IsNaN(an.SER) || math.IsInf(an.SER, 0) || an.SER < 0 {
		return fmt.Errorf("Analyze: SER %v", an.SER)
	}
	return nil
}
