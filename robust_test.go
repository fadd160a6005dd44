package serretime

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"serretime/internal/core"
	"serretime/internal/guard"
	"serretime/internal/retime"
	"serretime/internal/telemetry"
)

// fastAnalysis keeps the robustness tests quick: the contracts under
// test do not depend on analysis fidelity.
var fastAnalysis = AnalysisOptions{Frames: 2, SignatureWords: 1}

func smallDesign(t *testing.T) *Design {
	t.Helper()
	d, err := NewTableIDesign("s35932", 1000000)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func midDesign(t *testing.T) *Design {
	t.Helper()
	d, err := Synthesize(CircuitSpec{Name: "robust-mid", Gates: 220, Conns: 500, FFs: 40})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// countdownCtx cancels itself on its n-th Done() call, which is the
// n-th guard.Checkpoint visit: a deterministic way to cancel exactly
// mid-optimization, independent of wall-clock speed.
type countdownCtx struct {
	context.Context
	mu   sync.Mutex
	n    int
	done chan struct{}
}

func newCountdownCtx(parent context.Context, n int) *countdownCtx {
	return &countdownCtx{Context: parent, n: n, done: make(chan struct{})}
}

func (c *countdownCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n--
	if c.n <= 0 {
		select {
		case <-c.done:
		default:
			close(c.done)
		}
	}
	return c.done
}

func (c *countdownCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestCorruptNetlistsReturnParseError drives malformed input through
// every parsing entry point: each must return an error unwrapping to
// guard.ErrParse (with position info as a *guard.ParseError) and must
// never panic.
func TestCorruptNetlistsReturnParseError(t *testing.T) {
	cases := []struct {
		name  string
		parse func(string) (*Design, error)
		input string
	}{
		{"bench/garbage", func(s string) (*Design, error) { return ParseBench(strings.NewReader(s), "x") }, "INPUT(a)\nwhat is this\n"},
		{"bench/badgate", func(s string) (*Design, error) { return ParseBench(strings.NewReader(s), "x") }, "x = FROB(a, b)\n"},
		{"bench/undriven", func(s string) (*Design, error) { return ParseBench(strings.NewReader(s), "x") }, "OUTPUT(y)\nx = AND(a, b)\n"},
		{"bench/dupe", func(s string) (*Design, error) { return ParseBench(strings.NewReader(s), "x") }, "INPUT(a)\nx = NOT(a)\nx = NOT(a)\n"},
		{"blif/latch", func(s string) (*Design, error) { return ParseBLIF(strings.NewReader(s), "x") }, ".model m\n.latch\n.end\n"},
		{"blif/cover", func(s string) (*Design, error) { return ParseBLIF(strings.NewReader(s), "x") }, ".model m\n.inputs a b\n.names a b y\n10 1\n01 0\n.end\n"},
		{"blif/stray", func(s string) (*Design, error) { return ParseBLIF(strings.NewReader(s), "x") }, ".model m\n11 1\n.end\n"},
		{"verilog/nomodule", func(s string) (*Design, error) { return ParseVerilog(strings.NewReader(s), "x") }, "not n1(y, a);\n"},
		{"verilog/assign", func(s string) (*Design, error) { return ParseVerilog(strings.NewReader(s), "x") }, "module m(y);\nassign y = 1;\nendmodule\n"},
		{"verilog/arity", func(s string) (*Design, error) { return ParseVerilog(strings.NewReader(s), "x") }, "module m(y);\noutput y;\nand g1(y);\nendmodule\n"},
		// A loop of flip-flops with no gate has no retiming graph: one
		// flip-flop reading itself, and two reading each other.
		{"bench/register-loop", func(s string) (*Design, error) { return ParseBench(strings.NewReader(s), "x") }, "INPUT(a)\nOUTPUT(g)\nq = DFF(q)\ng = AND(a, q)\n"},
		{"bench/register-pair", func(s string) (*Design, error) { return ParseBench(strings.NewReader(s), "x") }, "INPUT(a)\nOUTPUT(g)\np = DFF(q)\nq = DFF(p)\ng = AND(a, p)\n"},
		{"blif/register-loop", func(s string) (*Design, error) { return ParseBLIF(strings.NewReader(s), "x") }, ".model m\n.inputs a\n.outputs g\n.latch q q re clk 0\n.names a q g\n11 1\n.end\n"},
		{"blif/register-pair", func(s string) (*Design, error) { return ParseBLIF(strings.NewReader(s), "x") }, ".model m\n.inputs a\n.outputs g\n.latch q p re clk 0\n.latch p q re clk 0\n.names a p g\n11 1\n.end\n"},
		{"verilog/register-loop", func(s string) (*Design, error) { return ParseVerilog(strings.NewReader(s), "x") }, "module m(a, g);\ninput a;\noutput g;\ndff r0(q, q);\nand g0(g, a, q);\nendmodule\n"},
		{"verilog/register-pair", func(s string) (*Design, error) { return ParseVerilog(strings.NewReader(s), "x") }, "module m(a, g);\ninput a;\noutput g;\ndff r0(p, q);\ndff r1(q, p);\nand g0(g, a, p);\nendmodule\n"},
		// A netlist with no gate other than a constant has a critical
		// path of 0, so no clock period: empty, a wire, a lone flip-flop,
		// and a constant feeding a flip-flop.
		{"bench/empty", func(s string) (*Design, error) { return ParseBench(strings.NewReader(s), "x") }, ""},
		{"blif/empty", func(s string) (*Design, error) { return ParseBLIF(strings.NewReader(s), "x") }, ""},
		{"bench/wire", func(s string) (*Design, error) { return ParseBench(strings.NewReader(s), "x") }, "INPUT(a)\nOUTPUT(a)\n"},
		{"bench/lone-flip-flop", func(s string) (*Design, error) { return ParseBench(strings.NewReader(s), "x") }, "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n"},
		{"blif/lone-flip-flop", func(s string) (*Design, error) { return ParseBLIF(strings.NewReader(s), "x") }, ".model m\n.inputs a\n.outputs q\n.latch a q re clk 0\n.end\n"},
		{"verilog/lone-flip-flop", func(s string) (*Design, error) { return ParseVerilog(strings.NewReader(s), "x") }, "module m(a, q);\ninput a;\noutput q;\ndff r0(q, a);\nendmodule\n"},
		{"bench/constant-register", func(s string) (*Design, error) { return ParseBench(strings.NewReader(s), "x") }, "OUTPUT(q)\nc = CONST1()\nq = DFF(c)\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := tc.parse(tc.input)
			if err == nil {
				t.Fatalf("corrupt input parsed without error (design %v)", d)
			}
			if !errors.Is(err, guard.ErrParse) {
				t.Fatalf("error does not unwrap to guard.ErrParse: %v", err)
			}
			var pe *guard.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error is not a *guard.ParseError: %T %v", err, err)
			}
		})
	}
}

// TestCorruptNetlistFiles covers the file-based entry point: a corrupt
// file of each format is a parse error.
func TestCorruptNetlistFiles(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"bad.bench": "x = FROB(a)\n",
		"bad.blif":  ".model m\n.latch\n.end\n",
		"bad.v":     "module m(y);\nassign y = 1;\nendmodule\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"bad.bench", "bad.blif", "bad.v"} {
		if _, err := Load(filepath.Join(dir, name)); !errors.Is(err, guard.ErrParse) {
			t.Errorf("Load(%s): want guard.ErrParse, got %v", name, err)
		}
	}
}

// TestLoadMissingFile checks that Load of a missing file of each format
// reports fs.ErrNotExist.
func TestLoadMissingFile(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ format, file string }{
		{"bench", "missing.bench"},
		{"blif", "missing.blif"},
		{"verilog", "missing.v"},
	} {
		t.Run(tc.format, func(t *testing.T) {
			if _, err := Load(filepath.Join(dir, tc.file)); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("Load(%s): want fs.ErrNotExist, got %v", tc.file, err)
			}
		})
	}
}

// TestWedgedELWBudget wedges the P2' shortest-path bound to an absurd
// value so every ELW constraint is infeasible. Every entry point must
// come back with either a clean (unimproved) result or a taxonomy
// error — never a panic — and RetimeRobust must still produce an
// answer by degrading.
func TestWedgedELWBudget(t *testing.T) {
	d := smallDesign(t)
	opt := RetimeOptions{
		Algorithm:    MinObsWin,
		Analysis:     fastAnalysis,
		rminOverride: 1e12,
		StallSteps:   50,
	}
	res, err := d.Retime(opt)
	if err != nil {
		for _, sentinel := range []error{guard.ErrParse, guard.ErrTimeout, guard.ErrStalled, guard.ErrInternal} {
			if errors.Is(err, sentinel) {
				err = nil
				break
			}
		}
		if err != nil {
			t.Fatalf("wedged budget returned an untyped error: %v", err)
		}
	} else if res == nil {
		t.Fatal("nil result with nil error")
	}

	rres, rerr := d.RetimeRobust(context.Background(), RobustOptions{
		RetimeOptions: opt,
	})
	if rerr != nil {
		t.Fatalf("RetimeRobust under wedged budget: %v", rerr)
	}
	if rres.RetimeResult == nil {
		t.Fatal("RetimeRobust returned no result")
	}
	t.Logf("wedged budget answered at tier %s (degraded=%v, %d attempts)",
		rres.Tier, rres.Degraded, len(rres.Attempts))
}

// TestCancelMidRetime cancels the context partway through a retiming
// run: the call must fail with guard.ErrTimeout (cause preserved) and
// the receiver's circuit must be byte-identical to before the run.
func TestCancelMidRetime(t *testing.T) {
	d := midDesign(t)
	before := d.String()
	cctx := newCountdownCtx(context.Background(), 6)
	res, err := d.RetimeCtx(cctx, RetimeOptions{Algorithm: MinObsWin, Analysis: fastAnalysis})
	if err == nil {
		t.Fatalf("cancelled run succeeded (result %+v)", res)
	}
	if !errors.Is(err, guard.ErrTimeout) {
		t.Fatalf("cancelled run error does not unwrap to guard.ErrTimeout: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation cause lost: %v", err)
	}
	if got := d.String(); got != before {
		t.Error("input design modified by a cancelled run")
	}
}

// TestCancelDuringAnalysis cancels at the first checkpoint past the
// entry guard: that checkpoint must be the signature simulation's, so the
// observability analysis runs under the caller's context and its span
// ends with the timeout.
func TestCancelDuringAnalysis(t *testing.T) {
	d := midDesign(t)
	tr := telemetry.NewTrace(telemetry.TraceID{})
	cctx := newCountdownCtx(context.Background(), 2)
	_, err := d.RetimeCtx(cctx, RetimeOptions{Algorithm: MinObsWin, Analysis: fastAnalysis, Recorder: tr})
	var te *guard.TimeoutError
	if !errors.As(err, &te) || te.Op != "sim.run" {
		t.Fatalf("want a *guard.TimeoutError from sim.run, got %v", err)
	}
	sp := tr.Snapshot().Find(telemetry.PhaseObs.String())
	if sp == nil || sp.Errs != 1 || sp.Err != err.Error() {
		t.Fatalf("obs-analysis span must end with %q, got %+v", err, sp)
	}
}

// TestCancelMidMinimizePartialResult cancels the optimizer loop itself
// halfway and checks the contract of core.Minimize: a non-nil
// partial result carrying the last *committed* (hence legal) retiming,
// which must pass sequential-equivalence verification.
func TestCancelMidMinimizePartialResult(t *testing.T) {
	d := midDesign(t)
	if err := d.ensureObs(context.Background(), fastAnalysis, 0, nil); err != nil {
		t.Fatal(err)
	}
	init, err := retime.Initialize(context.Background(), d.g, retime.Options{Ts: DefaultTs, Th: DefaultTh, Epsilon: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	base, err := d.g.Rebase(init.R)
	if err != nil {
		t.Fatal(err)
	}
	gains, obsInt := core.Gains(base, d.gateObs, d.edgeObs, 64)
	copt := core.Options{Phi: init.Phi, Ts: DefaultTs, Th: DefaultTh, Rmin: init.Rmin, ELWConstraints: true}

	full, err := core.Minimize(context.Background(), base, gains, obsInt, copt)
	if err != nil {
		t.Fatal(err)
	}
	n := full.Steps/2 + 1
	cctx := newCountdownCtx(context.Background(), n)
	part, err := core.Minimize(cctx, base, gains, obsInt, copt)
	if !errors.Is(err, guard.ErrTimeout) {
		t.Fatalf("want guard.ErrTimeout after %d checkpoints (full run: %d steps), got %v", n, full.Steps, err)
	}
	if part == nil {
		t.Fatal("no partial result alongside the timeout")
	}
	if part.Objective > part.Initial {
		t.Errorf("partial objective %d worse than initial %d", part.Objective, part.Initial)
	}
	if verr := d.verifyMove(init.R, part.R); verr != nil {
		t.Errorf("partial retiming failed sequential-equivalence verification: %v", verr)
	}
}

// TestRobustDegradesToMinObs injects a fault that only fires when ELW
// constraints are enabled: both MinObsWin tiers must fail with
// guard.ErrInternal and the chain must answer at TierMinObs.
func TestRobustDegradesToMinObs(t *testing.T) {
	guard.ArmFailpoint("core.Minimize.elw")
	defer guard.DisarmFailpoint("core.Minimize.elw")
	d := smallDesign(t)
	res, err := d.RetimeRobust(context.Background(), RobustOptions{
		RetimeOptions: RetimeOptions{Algorithm: MinObsWin, Analysis: fastAnalysis},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != TierMinObs || !res.Degraded {
		t.Fatalf("want degraded TierMinObs answer, got tier %s degraded=%v", res.Tier, res.Degraded)
	}
	if len(res.Attempts) != 3 {
		t.Fatalf("want 3 attempts, got %d: %+v", len(res.Attempts), res.Attempts)
	}
	for _, a := range res.Attempts[:2] {
		if !errors.Is(a.Err, guard.ErrInternal) {
			t.Errorf("tier %s error does not unwrap to guard.ErrInternal: %v", a.Tier, a.Err)
		}
	}
	if res.Attempts[2].Err != nil {
		t.Errorf("TierMinObs attempt failed: %v", res.Attempts[2].Err)
	}
}

// TestRobustIdentityFallback injects a fault into every optimizer run:
// the chain must fall all the way to the identity tier, whose analysis
// reports the unretimed circuit (Before == After).
func TestRobustIdentityFallback(t *testing.T) {
	guard.ArmFailpoint("core.Minimize")
	defer guard.DisarmFailpoint("core.Minimize")
	d := smallDesign(t)
	res, err := d.RetimeRobust(context.Background(), RobustOptions{
		RetimeOptions: RetimeOptions{Algorithm: MinObsWin, Analysis: fastAnalysis},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != TierIdentity || !res.Degraded {
		t.Fatalf("want TierIdentity answer, got tier %s degraded=%v", res.Tier, res.Degraded)
	}
	if res.Before.SER != res.After.SER {
		t.Errorf("identity tier changed the SER: %g -> %g", res.Before.SER, res.After.SER)
	}
	if res.Retimed == nil || res.Retimed.String() != d.String() {
		t.Error("identity tier did not hand back the input circuit")
	}
}

// TestRobustPerAttemptTimeout gives every attempt an already-expired
// budget: the whole chain, identity included, must time out and the
// error must unwrap to guard.ErrTimeout.
func TestRobustPerAttemptTimeout(t *testing.T) {
	d := smallDesign(t)
	_, err := d.RetimeRobust(context.Background(), RobustOptions{
		RetimeOptions: RetimeOptions{Algorithm: MinObsWin, Analysis: fastAnalysis},
		Timeout:       time.Nanosecond,
	})
	if err == nil {
		t.Fatal("chain succeeded under an expired per-attempt budget")
	}
	if !errors.Is(err, guard.ErrTimeout) {
		t.Fatalf("error does not unwrap to guard.ErrTimeout: %v", err)
	}
}

// TestRobustParentCancellation cancels the caller's own context: the
// chain must stop degrading immediately instead of burning the
// remaining tiers.
func TestRobustParentCancellation(t *testing.T) {
	guard.ArmFailpoint("core.Minimize")
	defer guard.DisarmFailpoint("core.Minimize")
	d := smallDesign(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := d.RetimeRobust(ctx, RobustOptions{
		RetimeOptions: RetimeOptions{Algorithm: MinObsWin, Analysis: fastAnalysis},
	})
	if !errors.Is(err, guard.ErrTimeout) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want guard.ErrTimeout with context.Canceled cause, got %v", err)
	}
}

// TestStallWatchdog wedges the ELW budget so the optimizer can find
// candidates but never commit one, and arms a tight watchdog: the run
// must abort with guard.ErrStalled rather than grind to the step cap.
func TestStallWatchdog(t *testing.T) {
	d := midDesign(t)
	res, err := d.Retime(RetimeOptions{
		Algorithm:    MinObsWin,
		Analysis:     fastAnalysis,
		rminOverride: 1e12,
		StallSteps:   3,
	})
	if err == nil {
		// The wedged run converged before finding any candidate: that
		// is a legal outcome, but then it must report zero steps.
		if res.Steps > 3 {
			t.Fatalf("run took %d steps without commits yet no stall fired", res.Steps)
		}
		t.Skipf("optimizer found no candidate under the wedged budget (steps=%d)", res.Steps)
	}
	if !errors.Is(err, guard.ErrStalled) {
		t.Fatalf("error does not unwrap to guard.ErrStalled: %v", err)
	}
}

// TestRobustTapNameCollision solves a netlist with a primary input named
// a$r1, the name Rebuild derives for the register tap on gate a. The tap
// must take a fresh name instead of failing every tier with a duplicate
// net and degrading to the identity retiming.
func TestRobustTapNameCollision(t *testing.T) {
	const src = "INPUT(x)\nINPUT(a$r1)\nOUTPUT(q)\nOUTPUT(o)\n" +
		"a = AND(x, a$r1)\nq = DFF(a)\no = NOT(q)\n"
	d, err := ParseBench(strings.NewReader(src), "collide")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RetimeRobust(context.Background(), RobustOptions{
		RetimeOptions: RetimeOptions{Algorithm: MinObsWin, Analysis: fastAnalysis, Verify: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("degraded to tier %s: %+v", res.Tier, res.Attempts)
	}
	var out strings.Builder
	if err := res.Retimed.WriteBench(&out); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"INPUT(a$r1)", "a$r1$1 = DFF(a)", "a = AND(x, a$r1)"} {
		if !strings.Contains(out.String(), line+"\n") {
			t.Errorf("retimed netlist lacks %q:\n%s", line, out.String())
		}
	}
}
