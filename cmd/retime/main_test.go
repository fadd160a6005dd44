package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"serretime"
	"serretime/internal/faultfs"
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

// TestOutReplacesExistingFile: -out over an existing file replaces it
// with a loadable netlist, and a run whose write fails (the Verilog
// writer rejects a constant gate) leaves the file as it was. Neither
// leaves a temp file of the atomic write beside it.
func TestOutReplacesExistingFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "retimed.v")
	in := filepath.Join(dir, "const.bench")
	constNetlist := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\none = VDD()\nf = DFF(a)\ng = AND(f, b)\nh = OR(g, one)\ny = NOT(h)\n"
	for name, content := range map[string]string{path: "stale\n", in: constNetlist} {
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	checkNoTemp := func() {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if faultfs.IsTemp(e.Name()) {
				t.Errorf("temp file %s left beside the output", e.Name())
			}
		}
	}

	var out, errOut strings.Builder
	if code := run(append([]string{"-out", path}, quickArgs...), &out, &errOut); code != 0 {
		t.Fatalf("exit code %d\nstderr:\n%s", code, errOut.String())
	}
	if _, err := serretime.Load(path); err != nil {
		t.Fatalf("-out over an existing file does not load: %v", err)
	}
	checkNoTemp()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if code := run([]string{"-in", in, "-out", path, "-frames", "2", "-words", "1"}, &out, &errOut); code != 1 {
		t.Fatalf("unwritable netlist: exit code %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("a failed write changed the existing file (%v):\n%s", err, after)
	}
	checkNoTemp()
}

// TestFlagErrors: an unknown -algo spelling fails before the netlist is
// read (exit 1, naming the option), and -engine, a flag that no longer
// exists (every solve runs the closure engine), is a usage error
// (exit 2).
func TestFlagErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-in", "no/such.bench", "-algo", "quantum"}, &out, &errOut); code != 1 || !strings.Contains(errOut.String(), "algorithm") {
		t.Errorf("bad -algo: exit %d, want 1 naming the algorithm\nstderr:\n%s", code, errOut.String())
	}
	errOut.Reset()
	if code := run(append([]string{"-engine", "closure"}, quickArgs...), &out, &errOut); code != 2 {
		t.Errorf("removed -engine flag: exit %d, want 2\nstderr:\n%s", code, errOut.String())
	}
}
