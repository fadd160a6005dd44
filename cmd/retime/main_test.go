package main

import (
	"path/filepath"
	"strings"
	"testing"

	"serretime"
)

// quickArgs keeps the analysis minimal; the checks are about where the
// output goes, not about its quality.
var quickArgs = []string{"-in", "../../testdata/s27.bench", "-frames", "2", "-words", "1"}

// TestStdoutIsTheNetlist: without -out, standard output carries only the
// retimed netlist, in .bench syntax, and the summary goes to standard
// error, so `retime -in x.bench > y.bench` writes a loadable file.
func TestStdoutIsTheNetlist(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(quickArgs, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d\nstderr:\n%s", code, errOut.String())
	}
	if _, err := serretime.Parse(strings.NewReader(out.String()), "out.bench"); err != nil {
		t.Fatalf("stdout does not parse as .bench: %v\nstdout:\n%s", err, out.String())
	}
	if !strings.Contains(errOut.String(), "SER ") {
		t.Errorf("summary missing from stderr:\n%s", errOut.String())
	}

	d, err := serretime.Load("../../testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Retime(serretime.RetimeOptions{
		Epsilon:  0.10,
		Analysis: serretime.AnalysisOptions{Frames: 2, SignatureWords: 1, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Retimed.String(); out.String() != want {
		t.Fatalf("stdout is not the retimed netlist:\ngot:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestOutExtensionAnyCase: the -out writer follows the extension
// case-insensitively, as -in does, so an .BLIF file holds BLIF.
func TestOutExtensionAnyCase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "retimed.BLIF")
	var out, errOut strings.Builder
	if code := run(append([]string{"-out", path}, quickArgs...), &out, &errOut); code != 0 {
		t.Fatalf("exit code %d\nstderr:\n%s", code, errOut.String())
	}
	if _, err := serretime.Load(path); err != nil {
		t.Fatalf("-out %s does not load: %v", filepath.Base(path), err)
	}
}
