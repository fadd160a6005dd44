// Package serretime is a soft-error-aware retiming toolkit for gate-level
// sequential circuits, reproducing and extending:
//
//	Yinghai Lu and Hai Zhou. "Retiming for Soft Error Minimization Under
//	Error-Latching Window Constraints." DATE 2013.
//
// The package wraps the full pipeline: netlist loading (.bench, BLIF or
// structural Verilog) or synthesis, signature-based observability
// analysis with n-time-frame expansion (logic masking),
// error-latching-window analysis (timing masking), SER evaluation per
// eq. (4) of the paper, and the retiming optimizers — the Efficient
// MinObs baseline of Krishnaswamy et al. and the paper's MinObsWin
// algorithm, plus a min-area mode and the area-weighted objective
// sketched in the paper's conclusion.
//
// Typical use:
//
//	d, _ := serretime.Load("s27.bench")
//	res, _ := d.Retime(serretime.RetimeOptions{Algorithm: serretime.MinObsWin})
//	fmt.Printf("SER %.3g -> %.3g\n", res.Before.SER, res.After.SER)
package serretime

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"serretime/internal/benchfmt"
	"serretime/internal/bliffmt"
	"serretime/internal/circuit"
	"serretime/internal/elw"
	"serretime/internal/gen"
	"serretime/internal/graph"
	"serretime/internal/guard"
	"serretime/internal/obs"
	"serretime/internal/ser"
	"serretime/internal/sim"
	"serretime/internal/telemetry"
	"serretime/internal/vlogfmt"
)

// Design bundles a circuit with its retiming graph and cached analyses.
type Design struct {
	c *circuit.Circuit
	g *graph.Graph

	// cached observability analysis, keyed by the options that built it
	obsOpt  AnalysisOptions
	gateObs []float64
	edgeObs []float64
	rates   []float64
}

// newDesign extracts the retiming graph of a circuit; circuit.FromNodes
// already checked that it has one. Graph extraction runs under guard so
// that a bug it trips surfaces as guard.ErrInternal, never as a crash.
func newDesign(c *circuit.Circuit) (*Design, error) {
	return guard.Do(context.Background(), "serretime.newDesign", func(context.Context) (*Design, error) {
		return &Design{c: c, g: graph.FromCircuit(c)}, nil
	})
}

// ParseBench reads a .bench netlist from a reader.
func ParseBench(r io.Reader, name string) (*Design, error) {
	c, err := benchfmt.Parse(r, name)
	if err != nil {
		return nil, err
	}
	return newDesign(c)
}

// WriteBench writes the design's netlist in .bench syntax.
func (d *Design) WriteBench(w io.Writer) error {
	return guard.Run(context.Background(), "serretime.WriteBench", func(context.Context) error {
		return benchfmt.Write(w, d.c)
	})
}

// ParseBLIF reads a structural BLIF netlist from a reader.
func ParseBLIF(r io.Reader, name string) (*Design, error) {
	c, err := bliffmt.Parse(r, name)
	if err != nil {
		return nil, err
	}
	return newDesign(c)
}

// WriteBLIF writes the design's netlist in BLIF syntax.
func (d *Design) WriteBLIF(w io.Writer) error {
	return guard.Run(context.Background(), "serretime.WriteBLIF", func(context.Context) error {
		return bliffmt.Write(w, d.c)
	})
}

// ParseVerilog reads a gate-level structural Verilog netlist from a reader.
func ParseVerilog(r io.Reader, name string) (*Design, error) {
	c, err := vlogfmt.Parse(r, name)
	if err != nil {
		return nil, err
	}
	return newDesign(c)
}

// WriteVerilog writes the design as gate-level structural Verilog (net
// names are sanitized to legal identifiers).
func (d *Design) WriteVerilog(w io.Writer) error {
	return guard.Run(context.Background(), "serretime.WriteVerilog", func(context.Context) error {
		return vlogfmt.Write(w, d.c)
	})
}

// Format identifies a netlist syntax.
type Format uint8

const (
	// FormatBench is the ISCAS89 .bench syntax.
	FormatBench Format = iota
	// FormatBLIF is structural BLIF.
	FormatBLIF
	// FormatVerilog is gate-level structural Verilog.
	FormatVerilog
)

func (f Format) String() string {
	switch f {
	case FormatBench:
		return "bench"
	case FormatBLIF:
		return "blif"
	case FormatVerilog:
		return "verilog"
	}
	return fmt.Sprintf("Format(%d)", uint8(f))
}

// UnknownFormatError reports a netlist path whose extension names no
// supported format. It unwraps to guard.ErrParse: an unrecognized
// extension is malformed input, not a reason to feed Verilog to the
// bench parser and report its confusion instead.
type UnknownFormatError struct {
	Path string
}

func (e *UnknownFormatError) Error() string {
	return fmt.Sprintf("serretime: unknown netlist format %q (want .bench, .blif or .v)", e.Path)
}

func (e *UnknownFormatError) Unwrap() error { return guard.ErrParse }

// FormatOf sniffs the netlist format from a path's extension,
// case-insensitively (DESIGN.BLIF and top.V are their lowercase
// siblings). Unrecognized extensions return a *UnknownFormatError; the
// caller decides whether to fall back, the sniffer never guesses.
func FormatOf(path string) (Format, error) {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".bench":
		return FormatBench, nil
	case ".blif":
		return FormatBLIF, nil
	case ".v":
		return FormatVerilog, nil
	}
	return 0, &UnknownFormatError{Path: path}
}

// Load reads a netlist, picking the format from the file extension via
// FormatOf (.bench, .blif, .v, any case). It routes through Parse so
// the design's name is derived uniformly: the base name with its
// extension stripped, whatever the extension's case.
func Load(path string) (*Design, error) {
	if _, err := FormatOf(path); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f, path)
}

// Parse reads a netlist from r, picking the format from name's extension
// via FormatOf; the design is named after name's base without the
// extension. This is the reader-side Load — the service's content
// sniffing goes through it.
func Parse(r io.Reader, name string) (*Design, error) {
	f, err := FormatOf(name)
	if err != nil {
		return nil, err
	}
	base := strings.TrimSuffix(filepath.Base(name), filepath.Ext(name))
	switch f {
	case FormatBLIF:
		return ParseBLIF(r, base)
	case FormatVerilog:
		return ParseVerilog(r, base)
	}
	return ParseBench(r, base)
}

// CircuitSpec prescribes a synthetic benchmark circuit (see the paper's
// Table I for the regimes it evaluates).
type CircuitSpec struct {
	// Name identifies and seeds the circuit.
	Name string
	// Gates, Conns, FFs are the gate, connection and flip-flop counts.
	Gates, Conns, FFs int
	// Depth is the target logic depth (0 = derived from Gates).
	Depth int
	// FanoutSkew trades dead-logic coverage for fanout/length diversity
	// (see internal/gen); default 0.05.
	FanoutSkew float64
	// Seed overrides the name-derived seed when nonzero.
	Seed int64
}

// Synthesize generates a seeded synthetic circuit with the prescribed
// statistics.
func Synthesize(spec CircuitSpec) (*Design, error) {
	return guard.Do(context.Background(), "serretime.Synthesize", func(context.Context) (*Design, error) {
		c, err := gen.Generate(gen.Spec{
			Name: spec.Name, Gates: spec.Gates, Conns: spec.Conns,
			FFs: spec.FFs, Depth: spec.Depth, Seed: spec.Seed,
			FanoutSkew: spec.FanoutSkew,
		})
		if err != nil {
			return nil, err
		}
		return newDesign(c)
	})
}

// TableICircuits lists the benchmark names of the paper's Table I.
func TableICircuits() []string {
	names := make([]string, len(gen.TableI))
	for i, s := range gen.TableI {
		names[i] = s.Name
	}
	return names
}

// NewTableIDesign synthesizes the substitute for a Table I benchmark.
// scale > 1 shrinks all counts by that factor (the structure and
// clock-period regime are preserved), which keeps the largest circuits
// tractable on small machines.
func NewTableIDesign(name string, scale int) (*Design, error) {
	s, err := gen.FindTableI(name)
	if err != nil {
		return nil, err
	}
	c, err := gen.Generate(s.Scale(scale).Spec)
	if err != nil {
		return nil, err
	}
	return newDesign(c)
}

// Name returns the design name.
func (d *Design) Name() string { return d.c.Name }

// Stats summarizes the design.
type Stats struct {
	PIs, POs, Gates, FFs int
	// Vertices and Edges are the retiming-graph sizes (|V| counts
	// combinational gates; |E| counts pin connections plus output nets).
	Vertices, Edges int
	// Depth is the maximum combinational gate depth.
	Depth int
}

// Stats computes the design's summary statistics.
func (d *Design) Stats() Stats {
	cs := d.c.Stats()
	return Stats{
		PIs: cs.PIs, POs: cs.POs, Gates: cs.Gates, FFs: cs.DFFs,
		Vertices: d.g.NumGates(), Edges: d.g.NumEdges(), Depth: cs.Depth,
	}
}

// Accuracy selects the observability engine (DESIGN.md §16).
type Accuracy uint8

const (
	// AccuracyExact (default) measures observabilities with the
	// signature-based ODC analysis over an n-frame simulated trace — the
	// ground-truth engine, bounded in practice by the simulation cost.
	AccuracyExact Accuracy = iota
	// AccuracyFast estimates observabilities with the analytical
	// propagation-probability engine: no simulation, orders of magnitude
	// cheaper, exact per-gate transfer under an independence assumption
	// that reconvergent fanout violates. Cross-validated against exact on
	// the testdata circuits (rank correlation >= 0.9).
	AccuracyFast
)

func (a Accuracy) String() string {
	switch a {
	case AccuracyExact:
		return "exact"
	case AccuracyFast:
		return "fast"
	}
	return fmt.Sprintf("Accuracy(%d)", uint8(a))
}

// ParseAccuracy maps the wire/CLI spelling of an accuracy ("exact",
// "fast", or empty for the default) to the enum. Unknown spellings fail
// with a typed error unwrapping to guard.ErrParse; op names the entry
// point for the error text.
func ParseAccuracy(op, s string) (Accuracy, error) {
	switch s {
	case "", "exact":
		return AccuracyExact, nil
	case "fast":
		return AccuracyFast, nil
	}
	return 0, guard.Optionf(op, "accuracy", "unknown accuracy %q (want exact or fast)", s)
}

// AnalysisOptions tunes the observability/SER analysis.
type AnalysisOptions struct {
	// Accuracy selects the observability engine: AccuracyExact (default)
	// simulates, AccuracyFast estimates analytically. The two engines
	// return different numbers for the same circuit, so Accuracy is part
	// of every cache key (ensureObs, CanonicalKey) — fast and exact
	// results never alias.
	Accuracy Accuracy
	// Frames is the time-frame expansion depth n (0 = DefaultFrames).
	Frames int
	// SignatureWords is the random-vector width in 64-bit words
	// (0 = DefaultSignatureWords).
	SignatureWords int
	// Seed drives the random simulation vectors (default 1).
	Seed int64
	// MaxIntervals caps per-gate ELW interval counts; 0 keeps windows
	// exact.
	MaxIntervals int
}

// Default analysis sizes: n = 15 time frames, as in the paper, and 4
// signature words (256 random vectors).
const (
	DefaultFrames         = 15
	DefaultSignatureWords = 4
)

func (o AnalysisOptions) normalized() AnalysisOptions {
	if o.Frames == 0 {
		o.Frames = DefaultFrames
	}
	if o.SignatureWords == 0 {
		o.SignatureWords = DefaultSignatureWords
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// validate rejects a negative Frames or SignatureWords and an unknown
// Accuracy with typed errors unwrapping to guard.ErrParse, before they
// reach the simulator; op names the entry point for the error text.
func (o AnalysisOptions) validate(op string) error {
	if o.Frames < 0 {
		return guard.Optionf(op, "Frames", "must not be negative, got %d", o.Frames)
	}
	if o.SignatureWords < 0 {
		return guard.Optionf(op, "SignatureWords", "must not be negative, got %d", o.SignatureWords)
	}
	if o.Accuracy > AccuracyFast {
		return guard.Optionf(op, "Accuracy", "unknown accuracy %d", o.Accuracy)
	}
	return nil
}

// CanonicalKey returns a deterministic textual encoding of the analysis
// options, with defaults applied — two values with equal keys request the
// same analysis.
func (o AnalysisOptions) CanonicalKey() string {
	n := o.normalized()
	return fmt.Sprintf("acc=%s frames=%d words=%d seed=%d maxint=%d",
		n.Accuracy, n.Frames, n.SignatureWords, n.Seed, n.MaxIntervals)
}

// ensureObs computes (or reuses) the observability analysis of the
// original circuit; gate observabilities are invariant under retiming
// (Section III-B), so one analysis serves every retimed variant. The
// analysis passes check ctx between shards. workers bounds their CPU
// workers (0 means one per CPU); the analysis is bit-identical for every
// worker count (DESIGN.md §11), so a cached result stays valid when only
// the parallelism changes. rec receives the worker-pool telemetry (nil
// records nothing).
func (d *Design) ensureObs(ctx context.Context, opt AnalysisOptions, workers int, rec telemetry.Recorder) error {
	opt = opt.normalized()
	if d.gateObs != nil && d.obsOpt == opt {
		return nil
	}
	acc := obs.AccuracyExact
	if opt.Accuracy == AccuracyFast {
		acc = obs.AccuracyFast
	}
	// ComputeDesign dispatches on the accuracy: exact simulates a
	// transient trace (released inside, its signature plane goes back to
	// the pool for the next job) and runs the ODC pass; fast runs the
	// analytical propagation-probability estimate with no simulation.
	res, err := obs.ComputeDesign(ctx, d.c, sim.Config{
		Words: opt.SignatureWords, Frames: opt.Frames, Seed: opt.Seed,
		Workers: workers, Recorder: rec,
	}, obs.Options{Accuracy: acc, Workers: workers, Recorder: rec})
	if err != nil {
		return err
	}
	d.obsOpt = opt
	d.gateObs = ser.VertexObs(d.g, res)
	d.edgeObs = ser.EdgeObs(d.c, d.g, d.gateObs, res)
	d.rates = ser.VertexRates(d.c, d.g)
	return nil
}

// Analysis is a SER evaluation of the design under a clock period.
type Analysis struct {
	// SER is the total soft error rate per eq. (4); GateSER and
	// RegisterSER are its two terms.
	SER, GateSER, RegisterSER float64
	// Registers counts per-edge registers; SharedFFs counts physical
	// flip-flops under max sharing.
	Registers, SharedFFs int64
	// RegisterObs is the summed register observability (eq. 5), the
	// MinObs objective.
	RegisterObs float64
	// Phi is the clock period used.
	Phi float64
}

// Analyze evaluates the SER of the unretimed design at clock period phi
// (0 = the design's combinational critical path, unrelaxed). A NaN,
// infinite or negative phi, or options that RetimeOptions.validate would
// reject, fail with an error unwrapping to guard.ErrParse.
func (d *Design) Analyze(phi float64, opt AnalysisOptions) (*Analysis, error) {
	if err := checkAnalysis("serretime.Analyze", phi, opt); err != nil {
		return nil, err
	}
	return guard.Do(context.Background(), "serretime.Analyze", func(ctx context.Context) (*Analysis, error) {
		if err := d.ensureObs(ctx, opt, 0, nil); err != nil {
			return nil, err
		}
		return d.analyzeAt(d.g, graph.NewRetiming(d.g), elwParams(phi), opt), nil
	})
}

// checkAnalysis rejects a clock period that is NaN, infinite or
// negative, as RetimeOptions.validate rejects such timing options, and
// the analysis options it would reject; op names the entry point for the
// error text.
func checkAnalysis(op string, phi float64, opt AnalysisOptions) error {
	if math.IsNaN(phi) || math.IsInf(phi, 0) || phi < 0 {
		return guard.Optionf(op, "phi", "must be finite and not negative, got %v", phi)
	}
	return opt.validate(op)
}

// analyzeAt evaluates eq. (4) for g under r with the ELW timing p.
func (d *Design) analyzeAt(g *graph.Graph, r graph.Retiming, p elw.Params, opt AnalysisOptions) *Analysis {
	in := d.serInputs(g, r, p, opt)
	an := ser.Compute(g, r, in)
	return &Analysis{
		SER: an.Total, GateSER: an.Gates, RegisterSER: an.Registers,
		Registers: an.NumRegisters, SharedFFs: an.SharedRegisters,
		RegisterObs: an.RegisterObs, Phi: in.Params.Phi,
	}
}

// serInputs gathers the cached analysis into the inputs of eq. (4) with
// the ELW timing p; a non-positive p.Phi is replaced by the combinational
// critical path of g under r, which is positive (package graph).
func (d *Design) serInputs(g *graph.Graph, r graph.Retiming, p elw.Params, opt AnalysisOptions) ser.Inputs {
	if p.Phi <= 0 {
		_, p.Phi = g.ArrivalTimes(r)
	}
	return ser.Inputs{
		GateObs: d.gateObs, EdgeObs: d.edgeObs, GateRate: d.rates,
		RegRate: ser.RegisterRate, Params: p, MaxIntervals: opt.MaxIntervals,
	}
}
