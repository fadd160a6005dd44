package main

import (
	"fmt"
	"math"

	"serretime/internal/telemetry"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of a --trace 0 run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of a --trace 1 run. Values are per
// operation unless the name says otherwise; a layer a workload does not
// exercise (the session layer on solve, say) reads 0.
var perLayer = []metricDef{
	{"netlist.parse_ms", "ms"},
	{"obs.ms", "ms"},
	{"init.ms", "ms"},
	{"core.minimize_ms", "ms"},
	{"core.positive_set_ms", "ms"},
	{"core.find_violations_ms", "ms"},
	{"core.repair_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"core.child_coverage", "ratio"},
	{"core.steps", "count"},
	{"core.label_patch_ratio", "ratio"},
	{"rebuild.ms", "ms"},
	{"analysis.ms", "ms"},
	{"robust.degraded_frac", "ratio"},
	{"service.submit_ms", "ms"},
	{"service.wait_ms", "ms"},
	{"service.result_ms", "ms"},
	{"service.polls_per_job", "count"},
	{"service.queue_wait_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"store.journal_ms", "ms"},
	{"store.journal_calls", "count"},
	{"store.payload_kb", "KiB"},
	{"telemetry.trace_spans", "count"},
	{"telemetry.trace_kb", "KiB"},
	{"session.solve_ms", "ms"},
	{"session.http_ms", "ms"},
	{"session.open_ms", "ms"},
	{"session.warm_frac", "ratio"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_ms", "ms"},
}

// phaseKeys maps the program's phase names to per-layer metric names.
var phaseKeys = map[string]string{
	telemetry.PhaseObs.String():            "obs.ms",
	telemetry.PhaseInit.String():           "init.ms",
	telemetry.PhaseMinimize.String():       "core.minimize_ms",
	telemetry.PhasePositiveSet.String():    "core.positive_set_ms",
	telemetry.PhaseFindViolations.String(): "core.find_violations_ms",
	telemetry.PhaseRepair.String():         "core.repair_ms",
	telemetry.PhaseRebuild.String():        "rebuild.ms",
	telemetry.PhaseAnalysis.String():       "analysis.ms",
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// meanExtra averages one per-operation reading over the operations that
// carry it.
func meanExtra(ops []opRecord, key string) float64 {
	var xs []float64
	for _, op := range ops {
		if v, ok := op.Extra[key]; ok {
			xs = append(xs, v)
		}
	}
	return mean(xs)
}

// solverLayers derives the optimizer-level metrics shared by every
// workload. Phase times come from the recorder when it pairs spans;
// otherwise the caller fills them from job traces.
func solverLayers(rec *recorder, traced []opRecord) map[string]float64 {
	m := map[string]float64{}
	n := float64(len(traced))
	if n == 0 {
		return m
	}
	if rec.pairSpans {
		totals := rec.phaseTotals()
		for p, d := range totals {
			if key, ok := phaseKeys[telemetry.Phase(p).String()]; ok {
				m[key] = ms(d) / n
			}
		}
		deriveUnattributed(m)
	}
	m["core.steps"] = stepsPerInput(traced)
	patches := float64(rec.counter(telemetry.CounterLabelPatches))
	fulls := float64(rec.counter(telemetry.CounterLabelFulls))
	if patches+fulls > 0 {
		m["core.label_patch_ratio"] = patches / (patches + fulls)
	}
	degraded := 0
	for _, op := range traced {
		if op.Degraded {
			degraded++
		}
	}
	m["robust.degraded_frac"] = float64(degraded) / n
	return m
}

// stepsPerInput averages optimizer steps over the distinct operations of
// one input cycle (each circuit, or each delta index plus the reopen),
// counting each once, so the figure is an exact count that does not
// depend on where the run stopped. It needs per-operation step counts,
// which concurrent solves (serve) cannot provide.
func stepsPerInput(traced []opRecord) float64 {
	seen := map[string]float64{}
	for _, op := range traced {
		v, ok := op.Extra["steps"]
		if !ok {
			continue
		}
		key := fmt.Sprintf("%s/%d", op.Kind, op.Input)
		if _, dup := seen[key]; !dup {
			seen[key] = v
		}
	}
	var xs []float64
	for _, v := range seen {
		xs = append(xs, v)
	}
	return mean(xs)
}

// deriveUnattributed fills the share of minimize its three child phases
// cover and the time they leave unattributed.
func deriveUnattributed(m map[string]float64) {
	minimize := m["core.minimize_ms"]
	children := m["core.positive_set_ms"] + m["core.find_violations_ms"] + m["core.repair_ms"]
	m["core.unattributed_ms"] = math.Max(0, minimize-children)
	if minimize > 0 {
		m["core.child_coverage"] = children / minimize
	}
}
