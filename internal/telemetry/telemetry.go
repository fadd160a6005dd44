// Package telemetry is the observability substrate of the toolkit: typed
// trace events (phase spans, counters, gauges) emitted by the solver core,
// the classic-retiming initialization, the ELW analysis, the forest
// machinery, and the RetimeRobust degradation chain.
//
// The package has no dependencies outside the standard library and is
// built around a single small interface, Recorder, with two
// implementations:
//
//	Nop    the default: every method is an empty body. The hot path of
//	       the optimizer runs against it with zero allocations and
//	       unmeasurable overhead, so instrumentation is always compiled
//	       in and always on.
//	Trace  the one recorder that stores anything: a span tree whose
//	       spans carry the counters and gauges recorded inside them,
//	       persisted as a TraceDoc (one JSON document, one line in a
//	       trace file).
//
// Flat summaries — per-phase totals, counter totals, gauge maxima,
// Coverage and PhaseBreakdown — are a Fold of a finished TraceDoc;
// AggregateTraces folds a whole corpus of documents.
//
// Phases, counters and gauges are small integer enums — not strings — so
// that recording on the optimizer's inner loop never allocates.
package telemetry

import (
	"fmt"
	"time"
)

// Phase identifies a timed span. Phases form a static three-level
// hierarchy (see Level): degradation tiers at the top, pipeline stages
// below them, and the optimizer's inner-loop activities at the bottom.
// Durations of same-level spans are disjoint by construction, so each
// level's totals tile the run's wall-clock.
type Phase uint8

const (
	// PhaseSynthesize is circuit synthesis / netlist loading (level 0).
	PhaseSynthesize Phase = iota
	// PhaseTierMinObsWin .. PhaseTierIdentity are the RetimeRobust
	// degradation rungs (level 0); the span error carries the guard error
	// that made the chain step down.
	PhaseTierMinObsWin
	PhaseTierMinObsWinRelaxed
	PhaseTierMinObs
	PhaseTierIdentity
	// PhaseObs is the signature/ODC observability analysis (level 1).
	PhaseObs
	// PhaseInit is the Section V initialization: setup+hold min-period
	// retiming and Rmin selection (level 1).
	PhaseInit
	// PhaseGains is the b(v) gain computation (level 1).
	PhaseGains
	// PhaseMinimize is the whole Algorithm 1 iteration loop (level 1).
	PhaseMinimize
	// PhaseRebuild is circuit materialization of the result (level 1).
	PhaseRebuild
	// PhaseAnalysis is the before/after SER evaluation (level 1).
	PhaseAnalysis
	// PhaseVerify is the sequential-equivalence co-simulation (level 1).
	PhaseVerify
	// PhasePositiveSet is an exact closed-set (V_P(F)) computation
	// (level 2, inside PhaseMinimize).
	PhasePositiveSet
	// PhaseFindViolations is one tentative move's P0/P1'/P2' check
	// (level 2, inside PhaseMinimize).
	PhaseFindViolations
	// PhaseELWRecompute is one L/R timing-label computation (level 3,
	// inside PhaseFindViolations or PhaseInitProbe; the Rmin sweep sits
	// directly inside PhaseInit).
	PhaseELWRecompute
	// PhaseRepair is the constraint integration of one iteration's
	// violations (level 2, inside PhaseMinimize).
	PhaseRepair
	// PhaseInitProbe is one clock-period probe of the Section V
	// min-period searches (level 2, inside PhaseInit).
	PhaseInitProbe

	// NumPhases bounds the enum; not a phase.
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseSynthesize:           "synthesize",
	PhaseTierMinObsWin:        "tier:minobswin",
	PhaseTierMinObsWinRelaxed: "tier:minobswin-relaxed",
	PhaseTierMinObs:           "tier:minobs",
	PhaseTierIdentity:         "tier:identity",
	PhaseObs:                  "obs-analysis",
	PhaseInit:                 "init",
	PhaseGains:                "gains",
	PhaseMinimize:             "minimize",
	PhaseRebuild:              "rebuild",
	PhaseAnalysis:             "analysis",
	PhaseVerify:               "verify",
	PhasePositiveSet:          "positive-set",
	PhaseFindViolations:       "find-violations",
	PhaseELWRecompute:         "elw-recompute",
	PhaseRepair:               "repair",
	PhaseInitProbe:            "init-probe",
}

var phaseLevels = [NumPhases]int{
	PhaseSynthesize:           0,
	PhaseTierMinObsWin:        0,
	PhaseTierMinObsWinRelaxed: 0,
	PhaseTierMinObs:           0,
	PhaseTierIdentity:         0,
	PhaseObs:                  1,
	PhaseInit:                 1,
	PhaseGains:                1,
	PhaseMinimize:             1,
	PhaseRebuild:              1,
	PhaseAnalysis:             1,
	PhaseVerify:               1,
	PhasePositiveSet:          2,
	PhaseFindViolations:       2,
	PhaseELWRecompute:         3,
	PhaseRepair:               2,
	PhaseInitProbe:            2,
}

// String returns the phase's trace name (constant; never allocates).
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// Level returns the phase's depth in the span hierarchy: 0 = top (tiers,
// synthesis), 1 = pipeline stages, 2+ = inner-loop activities. Spans of
// one level never overlap, so per-level totals are comparable to
// wall-clock.
func (p Phase) Level() int {
	if p < NumPhases {
		return phaseLevels[p]
	}
	return 0
}

// ParsePhase resolves a trace name back to its Phase.
func ParsePhase(name string) (Phase, bool) {
	for p := Phase(0); p < NumPhases; p++ {
		if phaseNames[p] == name {
			return p, true
		}
	}
	return 0, false
}

// Counter identifies a monotonically-increasing event count.
type Counter uint8

const (
	// CounterSteps counts tentative moves attempted (optimizer
	// iterations).
	CounterSteps Counter = iota
	// CounterCommits counts moves accepted (committed improvement
	// rounds, the paper's #J).
	CounterCommits
	// CounterViolationsP0/P1/P2 count repaired violations by kind.
	CounterViolationsP0
	CounterViolationsP1
	CounterViolationsP2
	// CounterWatchdogResets counts stall-watchdog streak resets: commits
	// that rescued at least one non-improving step.
	CounterWatchdogResets
	// CounterLabelPatches is incremented by nothing: the solver state
	// has one label path and counts every sweep as CounterLabelFulls. It
	// stays because the benchmark's per-layer core.label_patch_ratio,
	// patches / (patches + fulls), reads it, so that ratio reads 0.
	CounterLabelPatches
	// CounterLabelFulls counts full L/R label sweeps performed by the
	// solver state: one per transaction that reads labels, plus any
	// closed-state read with no cached labels. Each sweep is also an
	// elw-recompute span; the counter stays for the same benchmark ratio
	// as CounterLabelPatches.
	CounterLabelFulls
	// CounterParRuns counts parallel sections executed by internal/par
	// pools (Run calls that actually forked; inline sequential runs are
	// not counted).
	CounterParRuns
	// CounterParShards counts the shards (contiguous index spans)
	// executed across all parallel sections.
	CounterParShards
	// CounterParBusyNanos accumulates per-shard busy nanoseconds summed
	// over all workers; worker utilization of the parallel sections is
	// busy / (wall · workers).
	CounterParBusyNanos
	// CounterParWallNanos accumulates the wall-clock nanoseconds spent
	// inside parallel sections (fork to join).
	CounterParWallNanos

	// NumCounters bounds the enum; not a counter.
	NumCounters
)

var counterNames = [NumCounters]string{
	CounterSteps:          "steps",
	CounterCommits:        "commits",
	CounterViolationsP0:   "violations-p0",
	CounterViolationsP1:   "violations-p1",
	CounterViolationsP2:   "violations-p2",
	CounterWatchdogResets: "watchdog-resets",
	CounterLabelPatches:   "label-patches",
	CounterLabelFulls:     "label-fulls",
	CounterParRuns:        "par-runs",
	CounterParShards:      "par-shards",
	CounterParBusyNanos:   "par-busy-ns",
	CounterParWallNanos:   "par-wall-ns",
}

// String returns the counter's trace name (constant; never allocates).
func (c Counter) String() string {
	if c < NumCounters {
		return counterNames[c]
	}
	return fmt.Sprintf("Counter(%d)", uint8(c))
}

// ParseCounter resolves a trace name back to its Counter.
func ParseCounter(name string) (Counter, bool) {
	for c := Counter(0); c < NumCounters; c++ {
		if counterNames[c] == name {
			return c, true
		}
	}
	return 0, false
}

// Gauge identifies a sampled value of which the maximum is kept.
type Gauge uint8

const (
	// GaugePeakRetimingSpan is the largest committed per-vertex move
	// |r(v)| seen during a run.
	GaugePeakRetimingSpan Gauge = iota
	// GaugeParWorkers is the widest internal/par pool that executed a
	// parallel section.
	GaugeParWorkers

	// NumGauges bounds the enum; not a gauge.
	NumGauges
)

var gaugeNames = [NumGauges]string{
	GaugePeakRetimingSpan: "peak-retiming-span",
	GaugeParWorkers:       "par-workers",
}

// String returns the gauge's trace name (constant; never allocates).
func (g Gauge) String() string {
	if g < NumGauges {
		return gaugeNames[g]
	}
	return fmt.Sprintf("Gauge(%d)", uint8(g))
}

// ParseGauge resolves a trace name back to its Gauge.
func ParseGauge(name string) (Gauge, bool) {
	for g := Gauge(0); g < NumGauges; g++ {
		if gaugeNames[g] == name {
			return g, true
		}
	}
	return 0, false
}

// Recorder receives telemetry events. Implementations must be safe for
// concurrent use; the solver calls Count and SpanStart/SpanEnd from its
// inner loop, so implementations should avoid per-call allocation (Nop
// allocates nothing, and neither does a Trace counting into a span that
// already holds counters).
//
// Spans of the same phase are matched LIFO per recorder; the instrumented
// code never nests a phase inside itself.
type Recorder interface {
	// SpanStart marks the beginning of a phase instance.
	SpanStart(p Phase)
	// SpanEnd marks the end of the innermost open instance of p. A
	// non-nil err annotates the span as failed (e.g. the guard error
	// that ended a degradation tier).
	SpanEnd(p Phase, err error)
	// Count adds n to counter c.
	Count(c Counter, n int64)
	// Gauge samples v for gauge g (the maximum is retained).
	Gauge(g Gauge, v int64)
}

// ShardRecorder is an optional Recorder extension for per-shard worker
// attribution: internal/par feeds one event per executed shard (op is
// the pool's operation name, worker the 0-based executing worker).
// Recorders that build span trees (Trace) implement it; the pool
// discovers it with a one-time type assertion, so recorders that don't
// care pay nothing.
type ShardRecorder interface {
	ShardSpan(op string, worker int, d time.Duration, err error)
}

// nopRecorder is the always-on default: empty bodies, zero allocations.
type nopRecorder struct{}

func (nopRecorder) SpanStart(Phase)      {}
func (nopRecorder) SpanEnd(Phase, error) {}
func (nopRecorder) Count(Counter, int64) {}
func (nopRecorder) Gauge(Gauge, int64)   {}

// Nop is the no-op Recorder used whenever no recorder is configured.
var Nop Recorder = nopRecorder{}

// OrNop returns r, or Nop when r is nil, so instrumented code never
// branches on a nil recorder.
func OrNop(r Recorder) Recorder {
	if r == nil {
		return Nop
	}
	return r
}

// multi fans events out to several recorders.
type multi []Recorder

func (m multi) SpanStart(p Phase) {
	for _, r := range m {
		r.SpanStart(p)
	}
}

func (m multi) SpanEnd(p Phase, err error) {
	for _, r := range m {
		r.SpanEnd(p, err)
	}
}

func (m multi) Count(c Counter, n int64) {
	for _, r := range m {
		r.Count(c, n)
	}
}

func (m multi) Gauge(g Gauge, v int64) {
	for _, r := range m {
		r.Gauge(g, v)
	}
}

// ShardSpan forwards shard events to the members that understand them,
// so a Tee of a caller's recorder and a Trace still delivers worker
// attribution to the Trace.
func (m multi) ShardSpan(op string, worker int, d time.Duration, err error) {
	for _, r := range m {
		if sr, ok := r.(ShardRecorder); ok {
			sr.ShardSpan(op, worker, d, err)
		}
	}
}

// Tee fans events out to every non-nil recorder. With zero or one live
// recorder it collapses to Nop or the recorder itself.
func Tee(rs ...Recorder) Recorder {
	var live multi
	for _, r := range rs {
		if r != nil && r != Nop {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return Nop
	case 1:
		return live[0]
	}
	return live
}
