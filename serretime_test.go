package serretime

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"serretime/internal/elw"
	"serretime/internal/gen"
	"serretime/internal/graph"
	"serretime/internal/ser"
)

func TestLoadBenchAndStats(t *testing.T) {
	d, err := Load("testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Gates != 10 || st.FFs != 3 || st.PIs != 4 || st.POs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Vertices != 10 || st.Edges != 19 {
		t.Fatalf("graph sizes = %d/%d", st.Vertices, st.Edges)
	}
	if d.Name() != "s27" {
		t.Fatalf("name = %q", d.Name())
	}
}

func TestParseBenchRoundTrip(t *testing.T) {
	d, err := Load("testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteBench(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ParseBench(&buf, "s27")
	if err != nil {
		t.Fatal(err)
	}
	s1 := d.Stats()
	s2 := d2.Stats()
	if s1 != s2 {
		t.Fatalf("round trip stats: %+v vs %+v", s1, s2)
	}
	if !strings.Contains(d.String(), "INPUT(G0)") {
		t.Fatal("String() not bench syntax")
	}
}

func TestAnalyze(t *testing.T) {
	d, err := Load("testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	an, err := d.Analyze(0, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if an.SER <= 0 || an.GateSER <= 0 || an.RegisterSER < 0 {
		t.Fatalf("analysis = %+v", an)
	}
	if an.SharedFFs != 3 {
		t.Fatalf("FFs = %d", an.SharedFFs)
	}
	if an.Phi <= 0 {
		t.Fatal("no default phi")
	}
	// Larger phi widens relative timing masking: SER falls.
	an2, err := d.Analyze(10*an.Phi, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if an2.SER >= an.SER {
		t.Fatalf("SER did not fall with slower clock: %g vs %g", an2.SER, an.SER)
	}
}

func TestSynthesize(t *testing.T) {
	d, err := Synthesize(CircuitSpec{Name: "t1", Gates: 200, Conns: 450, FFs: 40})
	if err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Gates != 200 {
		t.Fatalf("gates = %d", st.Gates)
	}
	if _, err := Synthesize(CircuitSpec{Name: "bad", Gates: 1, Conns: 1, FFs: 0}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestTableIList(t *testing.T) {
	names := TableICircuits()
	if len(names) != 21 {
		t.Fatalf("%d circuits", len(names))
	}
	if _, err := NewTableIDesign("nope", 1); err == nil {
		t.Fatal("unknown circuit accepted")
	}
	d, err := NewTableIDesign("b14_1_opt", 8)
	if err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Gates != 4049/8 {
		t.Fatalf("scaled gates = %d", st.Gates)
	}
}

func TestRetimeMinObsWinOnS27(t *testing.T) {
	d, err := Load("testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Retime(RetimeOptions{Algorithm: MinObsWin, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phi <= 0 || res.Phi < res.PhiMin {
		t.Fatalf("phi %g / phimin %g", res.Phi, res.PhiMin)
	}
	if res.After.SER <= 0 {
		t.Fatalf("after = %+v", res.After)
	}
	if res.Retimed == nil {
		t.Fatal("no retimed design")
	}
	// The retimed netlist has the same combinational gates.
	st := res.Retimed.Stats()
	if st.Gates != 10 {
		t.Fatalf("retimed gates = %d", st.Gates)
	}
}

// TestConcurrentRetime runs four solves at once, as the service's worker
// pool does, and checks each against a sequential solve of the same
// netlist. Under -race it also catches package-level state written on the
// solver path.
func TestConcurrentRetime(t *testing.T) {
	paths := []string{"testdata/s27.bench", "testdata/pipeline4.bench"}
	solve := func(path string) ([]byte, error) {
		d, err := Load(path)
		if err != nil {
			return nil, err
		}
		res, err := d.Retime(RetimeOptions{Analysis: AnalysisOptions{Frames: 3, SignatureWords: 1}})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = res.Retimed.WriteBench(&buf)
		return buf.Bytes(), err
	}
	want := make(map[string][]byte)
	for _, p := range paths {
		b, err := solve(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		want[p] = b
	}
	const n = 4
	got := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = solve(paths[i%len(paths)])
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		p := paths[i%len(paths)]
		if errs[i] != nil {
			t.Fatalf("solve %d (%s): %v", i, p, errs[i])
		}
		if !bytes.Equal(got[i], want[p]) {
			t.Errorf("solve %d (%s): concurrent result differs from the sequential one", i, p)
		}
	}
}

func TestRetimeAlgorithmsOnSynthetic(t *testing.T) {
	d, err := Synthesize(CircuitSpec{Name: "algos", Gates: 400, Conns: 900, FFs: 120, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	base, err := d.Retime(RetimeOptions{Algorithm: MinObs})
	if err != nil {
		t.Fatal(err)
	}
	win, err := d.Retime(RetimeOptions{Algorithm: MinObsWin})
	if err != nil {
		t.Fatal(err)
	}
	area, err := d.Retime(RetimeOptions{Algorithm: MinArea})
	if err != nil {
		t.Fatal(err)
	}
	// MinObs minimizes register observability at least as well as
	// MinObsWin (which carries extra constraints).
	if base.After.RegisterObs > win.After.RegisterObs+1e-9 {
		t.Fatalf("MinObs obs %g > MinObsWin %g", base.After.RegisterObs, win.After.RegisterObs)
	}
	// MinArea minimizes per-edge registers at least as well as either.
	if area.After.Registers > base.After.Registers || area.After.Registers > win.After.Registers {
		t.Fatalf("MinArea regs %d vs MinObs %d / Win %d",
			area.After.Registers, base.After.Registers, win.After.Registers)
	}
	for _, r := range []*RetimeResult{base, win, area} {
		if r.DeltaSER() > 60 {
			t.Fatalf("%v worsened SER by %.1f%%", r.Algorithm, r.DeltaSER())
		}
	}
}

func TestRetimeVerifiedMoveOnSynthetic(t *testing.T) {
	d, err := Synthesize(CircuitSpec{Name: "verif", Gates: 150, Conns: 340, FFs: 45, Depth: 12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Retime(RetimeOptions{Algorithm: MinObsWin, Verify: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Retime(RetimeOptions{Algorithm: MinObs, Verify: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRetimeEnginesAgree(t *testing.T) {
	d, err := Synthesize(CircuitSpec{Name: "eng", Gates: 250, Conns: 560, FFs: 70, Depth: 15})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := d.Retime(RetimeOptions{Algorithm: MinObsWin})
	if err != nil {
		t.Fatal(err)
	}
	fo, err := d.Retime(RetimeOptions{Algorithm: MinObsWin, Engine: EngineForest})
	if err != nil {
		t.Fatal(err)
	}
	if cl.After.RegisterObs > fo.After.RegisterObs+1e-9 {
		t.Fatalf("closure engine (%g) worse than forest (%g)",
			cl.After.RegisterObs, fo.After.RegisterObs)
	}
}

func TestRetimeAreaWeight(t *testing.T) {
	d, err := Synthesize(CircuitSpec{Name: "aw", Gates: 300, Conns: 680, FFs: 90, Depth: 15})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := d.Retime(RetimeOptions{Algorithm: MinObsWin})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := d.Retime(RetimeOptions{Algorithm: MinObsWin, AreaWeight: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	// The weighted objective trades observability for registers: it must
	// not use more registers than the plain run... it may tie.
	if weighted.After.Registers > plain.After.Registers {
		t.Fatalf("area weight increased registers: %d > %d",
			weighted.After.Registers, plain.After.Registers)
	}
}

func TestBLIFRoundTripAPI(t *testing.T) {
	d, err := Load("testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteBLIF(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ParseBLIF(&buf, "s27")
	if err != nil {
		t.Fatal(err)
	}
	s1 := d.Stats()
	s2 := d2.Stats()
	if s1 != s2 {
		t.Fatalf("BLIF round trip stats: %+v vs %+v", s1, s2)
	}
}

func TestCriticalElements(t *testing.T) {
	d, err := Load("testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	crit, err := d.CriticalElements(0, 5, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(crit) != 5 {
		t.Fatalf("got %d contributors", len(crit))
	}
	var share float64
	for i, c := range crit {
		if c.SER <= 0 || c.Share <= 0 || c.Share > 1 {
			t.Fatalf("contributor %d: %+v", i, c)
		}
		if i > 0 && c.SER > crit[i-1].SER {
			t.Fatal("not sorted by SER")
		}
		if c.Kind != "gate" && c.Kind != "register" {
			t.Fatalf("bad kind %q", c.Kind)
		}
		share += c.Share
	}
	if share > 1+1e-9 {
		t.Fatalf("shares sum to %g", share)
	}
	// Unlimited listing covers every positive contributor.
	all, err := d.CriticalElements(0, 0, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < len(crit) {
		t.Fatal("unlimited listing shorter than top-5")
	}
	// The listing and Analyze evaluate the same terms of eq. (4).
	var sum float64
	for _, c := range all {
		sum += c.SER
	}
	an, err := d.Analyze(0, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-an.SER) > 1e-12*an.SER {
		t.Fatalf("contributors sum to %g, Analyze reports %g", sum, an.SER)
	}
}

// TestRetimeReportsSERAtSolveTiming: Before and After evaluate eq. (4)
// at the setup and hold times the solve used, not at the defaults.
func TestRetimeReportsSERAtSolveTiming(t *testing.T) {
	d, err := Load("testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Retime(RetimeOptions{Th: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := ser.Inputs{
		GateObs: d.gateObs, EdgeObs: d.edgeObs, GateRate: d.rates, RegRate: ser.RegisterRate,
		Params: elw.Params{Phi: res.Phi, Ts: DefaultTs, Th: 4},
	}
	want := ser.Compute(d.g, graph.NewRetiming(d.g), in)
	if res.Before.SER != want.Total {
		t.Fatalf("Before.SER = %g, eq. (4) at Th=4 gives %g", res.Before.SER, want.Total)
	}
}

func TestVerilogRoundTripAPI(t *testing.T) {
	d, err := Load("testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteVerilog(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ParseVerilog(&buf, "s27")
	if err != nil {
		t.Fatal(err)
	}
	s1 := d.Stats()
	s2 := d2.Stats()
	if s1 != s2 {
		t.Fatalf("Verilog round trip stats: %+v vs %+v", s1, s2)
	}
}

// TestExtractedGraphsCheck: graph.FromCircuit does not check the graph it
// builds, because circuit construction rules out every way to fail Check
// (no combinational cycle means no register-free cycle). This holds it to
// that on every testdata netlist and on the 21 Table I substitutes at the
// default serbench size (-autocap 12000).
func TestExtractedGraphsCheck(t *testing.T) {
	files, err := filepath.Glob("testdata/*.bench")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata netlists (%v)", err)
	}
	for _, f := range files {
		d, err := Load(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.g.Check(); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
	const gateCap = 12000
	for _, name := range TableICircuits() {
		spec, err := gen.FindTableI(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewTableIDesign(name, (spec.Gates+gateCap-1)/gateCap)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.g.Check(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
