// Command serbench regenerates Table I of Lu & Zhou, DATE 2013: for every
// benchmark it runs the Efficient MinObs baseline and the MinObsWin
// algorithm from the Section V initialization and reports circuit
// statistics, SER changes, register changes, iteration counts and run
// times, next to the paper's published numbers.
//
// The ISCAS89/ITC99 netlists the paper used are not redistributable;
// seeded synthetic substitutes reproduce each circuit's published |V|,
// |E|, #FF and clock-period regime (see DESIGN.md §4). Absolute SER values
// therefore differ; the comparison targets the shape: who wins, by what
// factor, and where the two algorithms coincide. Real netlists can be
// swept instead of the Table I set with -in file.bench,file2.blif,...
//
// Every circuit runs under panic isolation and the graceful-degradation
// chain of serretime.RetimeRobust: a crash, stall, or timeout in one
// circuit is reported as a failed (or degraded) row while the rest of
// the sweep completes. The exit status is 0 only when every row is a
// full-strength result; 2 when some rows degraded; 1 when any failed.
//
// Observability: with -trace or -metrics every circuit records into its
// own telemetry.Trace. -trace writes each circuit's trace document —
// spans with their counters — as one JSON line (read back with
// seranalyze -trace); -metrics adds a per-row phase-breakdown column
// folded from the same document — with -workers > 1 including the
// sharded analyses' pool utilization util=U% w=K — and
// -cpuprofile/-memprofile write standard runtime/pprof profiles of the
// sweep.
//
// Usage:
//
//	serbench [-scale auto|N] [-circuits name,name,...] [-in files] [-parallel N]
//	         [-workers N] [-frames N] [-words N] [-accuracy exact|fast] [-verify]
//	         [-timeout D] [-stallsteps N] [-faultinject names]
//	         [-trace out.jsonl] [-metrics]
//	         [-cpuprofile f] [-memprofile f]
//
// ECO mode (-eco netlist.bench) replaces the sweep with a session delta
// stream: generated single-gate perturbations are applied to a
// serretime.WarmState and re-solved with seeded constraint discovery,
// and every result is byte-compared against a cold full solve of the
// same mutated netlist (the oracle). Alone it benchmarks in-process
// and prints benchjson-compatible lines (`make bench-eco` →
// BENCH_eco.json); with -serve it drives a running serretimed's
// /v1/sessions API instead (eco.go).
//
// Two further client modes replace the in-process sweep: -serve bursts the
// payload set at a running serretimed and verifies its caching and
// determinism promises (serve.go) — it mints a trace ID per submission,
// propagates it via the Traceparent header, prints client-side
// submit→result latency percentiles, and with -trace downloads every
// job's persisted span tree to the same one-document-per-line file
// format (exit 1 if any accepted job's trace is missing; aggregate with
// seranalyze -trace) — and
// -crashbin runs a kill-recover
// chaos harness — boot a child daemon on a data directory, burst,
// SIGKILL it mid-burst, reboot on the same directory, and demand every
// confirmed pre-crash result is served as a byte-identical cache hit
// (crash.go).
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"serretime"
	"serretime/internal/gen"
	"serretime/internal/guard"
	"serretime/internal/telemetry"
)

type row struct {
	name             string
	scale            int
	stats            serretime.Stats
	phi              float64
	shOK             bool
	serOrig          float64
	ref, win         *serretime.RetimeResult
	refTier, winTier serretime.Tier
	degraded         bool
	refTime, winTime time.Duration
	err              error
	paper            gen.TableISpec
	phases           string // -metrics: level-1 phase breakdown of the row's run
	trace            []byte // -trace: the row's encoded trace document
}

// status renders the row's outcome for the table's status column.
func (r *row) status() string {
	switch {
	case r.err != nil:
		return "failed"
	case r.degraded:
		return "degraded:" + r.winTier.String()
	}
	return "ok"
}

type config struct {
	scaleFlag   string
	circuits    string
	inFiles     string
	parallel    int
	workers     int
	frames      int
	words       int
	accuracy    string
	acc         serretime.Accuracy
	verify      bool
	autoCap     int
	timeout     time.Duration
	stallSteps  int
	faultInject string
	tracePath   string
	metrics     bool
	cpuProfile  string
	memProfile  string

	// -serve client mode (see serve.go)
	serveURL     string
	burst        int
	pollInterval time.Duration
	serveWait    time.Duration

	// -crashbin chaos-harness mode (see crash.go)
	crashBin     string
	crashDir     string
	crashMetrics string

	// -eco session mode (see eco.go)
	ecoPath   string
	ecoDeltas int
	ecoSeed   int64
	ecoMin    float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// job is one sweep entry: a Table I circuit by name, or (with -in) a
// netlist file to load.
type job struct {
	name string
	path string // empty for Table I synthetic circuits
}

// run is the testable entry point: it parses args, sweeps the circuits,
// prints the table to stdout, and returns the process exit code
// (0 = all rows full strength, 2 = some degraded, 1 = some failed).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("serbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.scaleFlag, "scale", "auto", "shrink factor: auto, or an integer >= 1 applied to every circuit")
	fs.StringVar(&cfg.circuits, "circuits", "", "comma-separated circuit names (default: all 21 of Table I)")
	fs.StringVar(&cfg.inFiles, "in", "", "comma-separated netlist files (.bench/.blif/.v) swept instead of the Table I set")
	fs.IntVar(&cfg.parallel, "parallel", runtime.GOMAXPROCS(0), "circuits processed concurrently")
	fs.IntVar(&cfg.workers, "workers", 1, "CPU workers sharding each circuit's analysis phases (0 = one per CPU, 1 = sequential); results are identical for every value")
	fs.IntVar(&cfg.frames, "frames", 15, "time-frame expansion depth n")
	fs.IntVar(&cfg.words, "words", 4, "signature width in 64-bit words")
	fs.StringVar(&cfg.accuracy, "accuracy", "exact", "observability engine: exact (signature simulation) or fast (analytical propagation probabilities); fast raises the -autocap default to 120000 unless -autocap is given")
	fs.BoolVar(&cfg.verify, "verify", false, "co-simulate every optimizer move for sequential equivalence")
	fs.IntVar(&cfg.autoCap, "autocap", 12000, "with -scale auto, target gate count per circuit; 12000 assumes the flat CSR engine (README \"Benchmark scaling\"), lower it on memory-constrained hosts")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "per-attempt wall-clock budget per circuit (0 = unbounded)")
	fs.IntVar(&cfg.stallSteps, "stallsteps", 0, "abort an optimizer run after this many steps without improvement (0 = off)")
	fs.StringVar(&cfg.faultInject, "faultinject", "", "comma-separated circuit names whose runs are fault-injected (testing)")
	fs.StringVar(&cfg.tracePath, "trace", "", "write every circuit's trace document (spans with their counters), one JSON line each; with -serve, every job's trace document from the server (read either with seranalyze -trace)")
	fs.BoolVar(&cfg.metrics, "metrics", false, "collect per-circuit phase metrics and add a phase-breakdown column")
	fs.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the sweep")
	fs.StringVar(&cfg.memProfile, "memprofile", "", "write a heap profile at the end of the sweep")
	fs.StringVar(&cfg.serveURL, "serve", "", "load-generator client mode: hammer a running serretimed at this base URL instead of solving in-process")
	fs.IntVar(&cfg.burst, "burst", 64, "with -serve, concurrent submissions in the burst")
	fs.DurationVar(&cfg.pollInterval, "poll", 200*time.Millisecond, "with -serve, job status poll interval")
	fs.DurationVar(&cfg.serveWait, "servewait", 10*time.Minute, "with -serve, overall client deadline for the burst")
	fs.StringVar(&cfg.crashBin, "crashbin", "", "chaos-harness mode: kill-recover test this serretimed binary instead of sweeping in-process")
	fs.StringVar(&cfg.crashDir, "crashdir", "", "with -crashbin, the child daemon's -data-dir (default: a temp dir, removed afterwards)")
	fs.StringVar(&cfg.crashMetrics, "crashmetrics", "", "with -crashbin, snapshot the post-recovery /metrics page to this file")
	fs.StringVar(&cfg.ecoPath, "eco", "", "ECO mode: stream generated deltas through a session on this base netlist, oracle-checking every seeded delta result against a cold full solve; alone it benchmarks in-process (pipe to cmd/benchjson), with -serve it drives a running serretimed's session API")
	fs.IntVar(&cfg.ecoDeltas, "deltas", 16, "with -eco, perturbations to apply")
	fs.Int64Var(&cfg.ecoSeed, "ecoseed", 1, "with -eco, delta-generator seed")
	fs.Float64Var(&cfg.ecoMin, "ecomin", 0, "with -eco, fail (exit 2) when the delta/cold speedup is below this factor (0 = report only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	acc, err := serretime.ParseAccuracy("serbench", cfg.accuracy)
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 2
	}
	cfg.acc = acc
	if acc == serretime.AccuracyFast {
		// The analytical engine is linear in circuit size, so auto-scale
		// can afford an order of magnitude more gates per circuit.
		explicit := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "autocap" {
				explicit = true
			}
		})
		if !explicit {
			cfg.autoCap = 120000
		}
	}
	if cfg.crashBin != "" {
		return runCrash(cfg, stdout, stderr)
	}
	if cfg.ecoPath != "" {
		return runECO(cfg, stdout, stderr)
	}
	if cfg.serveURL != "" {
		return runServe(cfg, stdout, stderr)
	}

	var jobs []job
	if cfg.inFiles != "" {
		for _, p := range strings.Split(cfg.inFiles, ",") {
			base := filepath.Base(p)
			jobs = append(jobs, job{name: strings.TrimSuffix(base, filepath.Ext(base)), path: p})
		}
	} else {
		names := serretime.TableICircuits()
		if cfg.circuits != "" {
			names = strings.Split(cfg.circuits, ",")
		}
		for _, n := range names {
			jobs = append(jobs, job{name: n})
		}
	}
	if cfg.faultInject != "" {
		for _, n := range strings.Split(cfg.faultInject, ",") {
			guard.ArmFailpoint("serbench.circuit:" + n)
			defer guard.DisarmFailpoint("serbench.circuit:" + n)
		}
	}

	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "serbench: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "serbench: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	var traceFile *os.File
	if cfg.tracePath != "" {
		if traceFile, err = os.Create(cfg.tracePath); err != nil {
			fmt.Fprintf(stderr, "serbench: %v\n", err)
			return 2
		}
	}

	rows := make([]*row, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(cfg.parallel, 1))
	for i, j := range jobs {
		// Acquire before spawning: with -parallel N only N goroutines exist
		// at a time, instead of one (mostly blocked) goroutine per job.
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			defer func() { <-sem }()
			rows[i] = runOne(j, cfg)
		}(i, j)
	}
	wg.Wait()
	printTable(stdout, rows, cfg.metrics)
	traceFailed := false
	if traceFile != nil {
		docs := make([][]byte, 0, len(rows))
		for _, r := range rows {
			if r != nil && r.trace != nil {
				docs = append(docs, r.trace)
			}
		}
		if err := writeTraceLines(traceFile, docs); err != nil {
			fmt.Fprintf(stderr, "serbench: trace: %v\n", err)
			traceFailed = true
		}
	}

	if cfg.memProfile != "" {
		f, err := os.Create(cfg.memProfile)
		if err != nil {
			fmt.Fprintf(stderr, "serbench: %v\n", err)
		} else {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "serbench: %v\n", err)
			}
			f.Close()
		}
	}

	var failed, degraded []string
	for _, r := range rows {
		switch {
		case r == nil:
		case r.err != nil:
			failed = append(failed, r.name)
		case r.degraded:
			degraded = append(degraded, r.name)
		}
	}
	switch {
	case len(failed) > 0:
		fmt.Fprintf(stderr, "serbench: %d circuit(s) FAILED: %s", len(failed), strings.Join(failed, ", "))
		if len(degraded) > 0 {
			fmt.Fprintf(stderr, "; %d degraded: %s", len(degraded), strings.Join(degraded, ", "))
		}
		fmt.Fprintln(stderr)
		return 1
	case len(degraded) > 0:
		fmt.Fprintf(stderr, "serbench: %d circuit(s) degraded: %s\n", len(degraded), strings.Join(degraded, ", "))
		return 2
	case traceFailed:
		return 1
	}
	return 0
}

// writeTraceLines writes one trace document per line — the file format
// seranalyze -trace reads — and closes w. It returns the first write or
// close error.
func writeTraceLines(w io.WriteCloser, docs [][]byte) error {
	bw := bufio.NewWriter(w)
	for _, d := range docs {
		// A bufio.Writer keeps its first error; Flush returns it.
		bw.Write(bytes.TrimRight(d, "\n"))
		bw.WriteByte('\n')
	}
	err := bw.Flush()
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}

func runOne(j job, cfg config) *row {
	r := &row{name: j.name}
	ctx := context.Background()

	// Test hook: a fault armed for this circuit panics here; guard.Run
	// turns it into a failed row instead of a crashed sweep.
	if err := guard.Run(ctx, "serbench."+j.name, func(context.Context) error {
		guard.Failpoint("serbench.circuit:" + j.name)
		return nil
	}); err != nil {
		r.err = err
		return r
	}

	// One trace per circuit, started where its work starts, feeds both
	// the -trace document and the -metrics column.
	rec := telemetry.Nop
	if cfg.metrics || cfg.tracePath != "" {
		tr := telemetry.NewTrace(telemetry.TraceID{})
		rec = tr
		defer func() { r.recordTrace(tr, cfg) }()
	}

	rec.SpanStart(telemetry.PhaseSynthesize)
	d, err := synthesize(j, cfg, r)
	rec.SpanEnd(telemetry.PhaseSynthesize, err)
	if err != nil {
		r.err = err
		return r
	}
	ropt := serretime.RobustOptions{
		RetimeOptions: serretime.RetimeOptions{
			Algorithm:  serretime.MinObs,
			Analysis:   serretime.AnalysisOptions{Accuracy: cfg.acc, Frames: cfg.frames, SignatureWords: cfg.words},
			Verify:     cfg.verify,
			StallSteps: cfg.stallSteps,
			Recorder:   rec,
			Workers:    cfg.workers,
		},
		Timeout: cfg.timeout,
	}
	start := time.Now()
	refRes, err := d.RetimeRobust(ctx, ropt)
	r.refTime = time.Since(start)
	if err != nil {
		r.err = err
		return r
	}
	r.ref, r.refTier = refRes.RetimeResult, refRes.Tier
	r.degraded = r.degraded || refRes.Degraded

	ropt.Algorithm = serretime.MinObsWin
	start = time.Now()
	winRes, err := d.RetimeRobust(ctx, ropt)
	r.winTime = time.Since(start)
	if err != nil {
		r.err = err
		return r
	}
	r.win, r.winTier = winRes.RetimeResult, winRes.Tier
	r.degraded = r.degraded || winRes.Degraded

	r.phi = r.win.Phi
	r.shOK = r.win.SetupHoldOK
	r.serOrig = r.win.Before.SER
	return r
}

// recordTrace finishes the circuit's trace and keeps what the flags ask
// for: the encoded document (-trace) and the phase column (-metrics).
func (r *row) recordTrace(tr *telemetry.Trace, cfg config) {
	tr.Finish()
	status, tier := "done", r.winTier.String()
	if r.err != nil {
		status, tier = "failed", ""
	}
	doc := tr.Doc("", r.name, status, tier, r.degraded)
	if cfg.tracePath != "" {
		r.trace = doc.Encode()
	}
	if !cfg.metrics {
		return
	}
	s := telemetry.Fold(doc)
	r.phases = s.PhaseBreakdown(3)
	// Worker-pool utilization of the sharded analyses: busy time summed
	// over workers against wall time scaled by the pool width. Absent
	// when every pool ran inline (-workers 1).
	if wall, w := s.Counter(telemetry.CounterParWallNanos), s.Gauge(telemetry.GaugeParWorkers); wall > 0 && w > 0 {
		util := 100 * float64(s.Counter(telemetry.CounterParBusyNanos)) / (float64(wall) * float64(w))
		r.phases += fmt.Sprintf(" util=%.0f%% w=%d", util, w)
	}
}

// synthesize produces the row's design: a scaled Table I synthetic, or a
// netlist loaded from disk (-in). It fills r.scale, r.paper and r.stats.
func synthesize(j job, cfg config, r *row) (*serretime.Design, error) {
	var d *serretime.Design
	r.scale = 1
	if j.path != "" {
		var err error
		if d, err = serretime.Load(j.path); err != nil {
			return nil, err
		}
	} else {
		spec, err := gen.FindTableI(j.name)
		if err != nil {
			return nil, err
		}
		r.paper = spec
		switch cfg.scaleFlag {
		case "auto":
			r.scale = (spec.Gates + cfg.autoCap - 1) / cfg.autoCap
		default:
			n, err := strconv.Atoi(cfg.scaleFlag)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad -scale %q", cfg.scaleFlag)
			}
			r.scale = n
		}
		if d, err = serretime.NewTableIDesign(j.name, r.scale); err != nil {
			return nil, err
		}
	}
	r.stats = d.Stats()
	return d, nil
}

// tableRow is one line of a column-aligned table: either a full set of
// cells, or a short prefix followed by free-form text (error rows).
type tableRow struct {
	cells []string
	tail  string // printed verbatim after the cells when non-empty
}

// writeAligned prints rows with each column as wide as its widest cell.
// left marks left-aligned columns (default right); the last column is
// never padded.
func writeAligned(w io.Writer, rows []tableRow, left map[int]bool) {
	var width []int
	for _, r := range rows {
		for i, c := range r.cells {
			if i >= len(width) {
				width = append(width, 0)
			}
			width[i] = max(width[i], len(c))
		}
	}
	for _, r := range rows {
		var b strings.Builder
		for i, c := range r.cells {
			if i > 0 {
				b.WriteByte(' ')
			}
			last := i == len(r.cells)-1 && r.tail == ""
			switch {
			case last && left[i]:
				b.WriteString(c)
			case left[i]:
				b.WriteString(c + strings.Repeat(" ", width[i]-len(c)))
			default:
				b.WriteString(strings.Repeat(" ", width[i]-len(c)) + c)
			}
		}
		if r.tail != "" {
			b.WriteByte(' ')
			b.WriteString(r.tail)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

func printTable(w io.Writer, rows []*row, metrics bool) {
	fmt.Fprintln(w, "Reproduction of Table I (Lu & Zhou, DATE 2013) on synthetic substitutes")
	fmt.Fprintln(w, "paper columns in [brackets]; ratio = SER_ref / SER_new")
	fmt.Fprintln(w)

	header := []string{"circuit", "status", "scale", "|V|", "|E|", "#FF", "phi", "sh", "SER", "|",
		"dSERref", "[paper]", "t_ref", "|", "dSERnew", "[paper]", "t_new", "#J", "|", "ratio", "[paper]"}
	if metrics {
		header = append(header, "|", "phases")
	}
	left := map[int]bool{0: true, 1: true}
	if metrics {
		left[len(header)-1] = true
	}
	out := []tableRow{{cells: header}}
	var sumRef, sumWin, sumRatio float64
	var n int
	for _, r := range rows {
		if r == nil {
			continue
		}
		if r.err != nil {
			out = append(out, tableRow{
				cells: []string{r.name, r.status()},
				tail:  fmt.Sprintf("ERROR: %v", r.err),
			})
			continue
		}
		ratio := 100.0
		if r.win.After.SER > 0 {
			ratio = 100 * r.ref.After.SER / r.win.After.SER
		}
		sh := "no"
		if r.shOK {
			sh = "yes"
		}
		cells := []string{
			r.name, r.status(),
			strconv.Itoa(r.scale),
			strconv.Itoa(r.stats.Vertices),
			strconv.Itoa(r.stats.Edges),
			strconv.FormatInt(int64(r.win.Before.SharedFFs), 10),
			fmt.Sprintf("%.1f", r.phi),
			sh,
			fmt.Sprintf("%.2e", r.serOrig),
			"|",
			fmt.Sprintf("%.2f%%", r.ref.DeltaSER()),
			fmt.Sprintf("%.2f%%", r.paper.PaperDSERRef),
			fmt.Sprintf("%.2fs", r.refTime.Seconds()),
			"|",
			fmt.Sprintf("%.2f%%", r.win.DeltaSER()),
			fmt.Sprintf("%.2f%%", r.paper.PaperDSERNew),
			fmt.Sprintf("%.2fs", r.winTime.Seconds()),
			strconv.Itoa(r.win.Rounds),
			"|",
			fmt.Sprintf("%.1f%%", ratio),
			fmt.Sprintf("%.0f%%", r.paper.PaperRatio),
		}
		if metrics {
			cells = append(cells, "|", r.phases)
		}
		out = append(out, tableRow{cells: cells})
		sumRef += r.ref.DeltaSER()
		sumWin += r.win.DeltaSER()
		sumRatio += ratio
		n++
	}
	writeAligned(w, out, left)
	if n > 0 {
		fmt.Fprintf(w, "%s %s\n", "AVG.", strings.Repeat("-", 40))
		fmt.Fprintf(w, "mean dSER: MinObs %.2f%% [paper -26.70%%]   MinObsWin %.2f%% [paper -32.70%%]   mean ratio %.1f%% [paper 115%%]\n",
			sumRef/float64(n), sumWin/float64(n), sumRatio/float64(n))
	}
	// Register deltas, compactly.
	fmt.Fprintln(w)
	ffRows := []tableRow{{cells: []string{"circuit", "dFFref", "[paper]", "|", "dFFnew", "[paper]"}}}
	for _, r := range rows {
		if r == nil || r.err != nil {
			continue
		}
		ffRows = append(ffRows, tableRow{cells: []string{
			r.name,
			fmt.Sprintf("%.2f%%", r.ref.DeltaFF()),
			fmt.Sprintf("%.2f%%", r.paper.PaperDFFRef),
			"|",
			fmt.Sprintf("%.2f%%", r.win.DeltaFF()),
			fmt.Sprintf("%.2f%%", r.paper.PaperDFFNew),
		}})
	}
	writeAligned(w, ffRows, map[int]bool{0: true})
}
