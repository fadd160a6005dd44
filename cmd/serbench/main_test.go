package main

import (
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"serretime"
	"serretime/internal/telemetry"
)

// sweepArgs shrinks every circuit to the 16-gate floor and uses a
// minimal analysis so the full 21-circuit sweep stays fast.
var sweepArgs = []string{"-scale", "100000", "-frames", "2", "-words", "1", "-timeout", "60s"}

// TestFullSweep runs all 21 Table I circuits end to end and requires a
// clean exit: every row ok, none degraded, none failed.
func TestFullSweep(t *testing.T) {
	var out, errOut strings.Builder
	code := run(sweepArgs, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, want 0\nstderr:\n%s\nstdout:\n%s", code, errOut.String(), out.String())
	}
	for _, name := range tableINames(t) {
		if !strings.Contains(out.String(), name) {
			t.Errorf("row for %s missing from output", name)
		}
	}
	if strings.Contains(out.String(), "ERROR") {
		t.Fatalf("unexpected ERROR row:\n%s", out.String())
	}
}

// TestFaultInjectedSweep arms a failpoint for one circuit: its row must
// report failed, every other circuit must still complete, and the exit
// code must be non-zero.
func TestFaultInjectedSweep(t *testing.T) {
	const victim = "s35932"
	args := append([]string{"-faultinject", victim}, sweepArgs...)
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code %d, want 1\nstderr:\n%s\nstdout:\n%s", code, errOut.String(), out.String())
	}
	if !strings.Contains(errOut.String(), "FAILED: "+victim) {
		t.Errorf("stderr summary does not name the failed circuit:\n%s", errOut.String())
	}
	sawVictim := false
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, victim+" ") {
			continue
		}
		sawVictim = true
		if !strings.Contains(line, "failed") || !strings.Contains(line, "ERROR") {
			t.Errorf("victim row not reported as failed: %q", line)
		}
		if !strings.Contains(line, "injected fault") {
			t.Errorf("victim row does not carry the injected-fault cause: %q", line)
		}
	}
	if !sawVictim {
		t.Fatalf("no row for fault-injected circuit %s:\n%s", victim, out.String())
	}
	// Every other circuit still produced a full-strength row.
	for _, name := range tableINames(t) {
		if name == victim {
			continue
		}
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, name+" ") && strings.Contains(line, " ok ") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("circuit %s did not complete ok alongside the injected fault", name)
		}
	}
}

// TestTraceRoundTrip drives the acceptance path of the telemetry layer:
// a -trace sweep of a real netlist must write the circuit's trace
// document, whose fold shows the pipeline phases and the optimizer's
// counters, whose top-level phase durations cover at least 90% of the
// run's wall-clock, and whose report renders.
func TestTraceRoundTrip(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	args := []string{"-in", "../../testdata/s27.bench", "-frames", "2", "-words", "1",
		"-trace", trace, "-metrics"}
	var out, errOut strings.Builder
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, want 0\nstderr:\n%s\nstdout:\n%s", code, errOut.String(), out.String())
	}
	if !strings.Contains(out.String(), "phases") {
		t.Errorf("-metrics did not add the phase-breakdown column:\n%s", out.String())
	}

	docs, skipped, err := telemetry.LoadTraceDocs(trace)
	if err != nil {
		t.Fatalf("trace file not readable: %v", err)
	}
	if len(docs) != 1 || skipped != 0 {
		t.Fatalf("trace holds %d documents and %d undecodable lines, want 1 and 0", len(docs), skipped)
	}
	if docs[0].Name != "s27" {
		t.Fatalf("trace document named %q, want s27", docs[0].Name)
	}
	s := telemetry.Fold(docs[0])
	if !s.Observed(telemetry.PhaseSynthesize) || !s.Observed(telemetry.PhaseMinimize) {
		t.Errorf("expected phases missing: synthesize=%v minimize=%v",
			s.Observed(telemetry.PhaseSynthesize), s.Observed(telemetry.PhaseMinimize))
	}
	if s.Counter(telemetry.CounterSteps) == 0 {
		t.Error("steps counter is zero")
	}
	level, frac := s.Coverage()
	if level != 0 || frac < 0.9 {
		t.Errorf("level-%d coverage %.1f%%, want level 0 >= 90%%", level, 100*frac)
	}
	var report strings.Builder
	if err := s.WriteReport(&report, docs[0].Name); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	if !strings.Contains(report.String(), "== run s27 ==") {
		t.Errorf("report malformed:\n%s", report.String())
	}
}

// failingWriter fails every write and close.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }
func (failingWriter) Close() error              { return errors.New("close failed") }

// closeFailer accepts writes and fails only on close.
type closeFailer struct{ strings.Builder }

func (*closeFailer) Close() error { return errors.New("close failed") }

// TestWriteTraceLinesReportsErrors checks that neither a failed write
// nor a failed close is dropped.
func TestWriteTraceLinesReportsErrors(t *testing.T) {
	docs := [][]byte{[]byte(`{"a":1}` + "\n"), []byte(`{"b":2}`)}
	if err := writeTraceLines(failingWriter{}, docs); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("write error = %v, want disk full", err)
	}
	cf := &closeFailer{}
	if err := writeTraceLines(cf, docs); err == nil || !strings.Contains(err.Error(), "close failed") {
		t.Errorf("close error = %v, want close failed", err)
	}
	if got := cf.String(); got != "{\"a\":1}\n{\"b\":2}\n" {
		t.Errorf("written lines = %q", got)
	}
}

// TestBadFlags checks that configuration errors exit 2 without running.
func TestBadFlags(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-engine", "quantum"}, &out, &errOut); code != 2 {
		t.Fatalf("bad engine: exit %d, want 2", code)
	}
	if code := run([]string{"-scale", "zero", "-circuits", "s27", "-frames", "2", "-words", "1"}, &out, &errOut); code != 1 {
		t.Fatalf("bad scale: exit %d, want 1 (failed row)", code)
	}
}

func tableINames(t *testing.T) []string {
	t.Helper()
	names := serretime.TableICircuits()
	if len(names) != 21 {
		t.Fatalf("Table I has %d circuits, want 21", len(names))
	}
	return names
}

// TestTableIGolden runs the cap-500 Table I sweep and compares every
// printed figure with testdata/table1_autocap500.txt, field by field,
// apart from the two run-time columns; the sweep is deterministic, so
// any drift in a printed figure fails. Regenerate the file, after a
// change that is meant to move a figure, with
//
//	go run ./cmd/serbench -autocap 500 -parallel 1 -workers 1 > cmd/serbench/testdata/table1_autocap500.txt
func TestTableIGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "table1_autocap500.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-autocap", "500", "-parallel", "1", "-workers", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d\nstderr:\n%s", code, errOut.String())
	}
	runTime := regexp.MustCompile(`^[0-9]+\.[0-9]+s$`)
	fields := func(table string) [][]string {
		var lines [][]string
		for _, line := range strings.Split(strings.TrimRight(table, "\n"), "\n") {
			f := strings.Fields(line)
			for i := range f {
				if runTime.MatchString(f[i]) {
					f[i] = "<time>"
				}
			}
			lines = append(lines, f)
		}
		return lines
	}
	got, exp := fields(out.String()), fields(string(want))
	for i := 0; i < max(len(got), len(exp)); i++ {
		var g, e []string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if !slices.Equal(g, e) {
			t.Fatalf("line %d differs from the golden table:\ngot:  %s\nwant: %s", i+1, strings.Join(g, " "), strings.Join(e, " "))
		}
	}
}
