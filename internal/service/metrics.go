package service

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"serretime"
	"serretime/internal/telemetry"
)

// handleMetrics renders the service state in the Prometheus text
// exposition format: queue and cache gauges, job dispositions, per-tier
// and per-error-class outcome counts, the solve-latency histogram, and
// the shared telemetry.Collector's phase durations, counters and gauges
// (so the solver's own observability — label sweeps, worker pool
// utilization, violation counts — is scrapeable without a trace file).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder

	s.mu.Lock()
	accepted, rejected, coalesced, hits := s.accepted, s.rejected, s.coalesced, s.cacheHits
	completed, failed := s.completed, s.failed
	byTier := s.byTier
	byClass := make(map[string]int64, len(s.byClass))
	for k, v := range s.byClass {
		byClass[k] = v
	}
	entries := len(s.jobs)
	s.mu.Unlock()

	gauge := func(name string, v any, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name string, v any, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}

	depth, capa := s.QueueDepth()
	gauge("serretimed_uptime_seconds", int64(time.Since(s.start).Seconds()), "seconds since the service started")
	gauge("serretimed_queue_depth", depth, "jobs accepted but not yet picked up by a worker")
	gauge("serretimed_queue_capacity", capa, "bound of the job queue (submissions beyond it get 429)")
	gauge("serretimed_workers", s.cfg.Workers, "concurrent solve workers")

	counter("serretimed_jobs_accepted_total", accepted, "fresh jobs enqueued")
	counter("serretimed_jobs_rejected_total", rejected, "submissions refused with 429 (queue full)")
	counter("serretimed_jobs_coalesced_total", coalesced, "submissions attached to an identical in-flight job")
	counter("serretimed_jobs_completed_total", completed, "jobs finished with a result")
	counter("serretimed_jobs_failed_total", failed, "jobs finished with an error")

	fmt.Fprintf(&b, "# HELP serretimed_jobs_by_tier_total completed jobs by degradation tier\n# TYPE serretimed_jobs_by_tier_total counter\n")
	for t := serretime.TierMinObsWin; t <= serretime.TierIdentity; t++ {
		fmt.Fprintf(&b, "serretimed_jobs_by_tier_total{tier=%q} %d\n", t.String(), byTier[t])
	}
	if len(byClass) > 0 {
		fmt.Fprintf(&b, "# HELP serretimed_jobs_failed_by_class_total failed jobs by guard error class\n# TYPE serretimed_jobs_failed_by_class_total counter\n")
		classes := make([]string, 0, len(byClass))
		for c := range byClass {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			fmt.Fprintf(&b, "serretimed_jobs_failed_by_class_total{class=%q} %d\n", c, byClass[c])
		}
	}

	// Persistence state: mode as one-hot labeled gauge (Prometheus
	// convention for enums), plus recovery and degradation counters.
	mode, storeErrs, restored := s.StoreStatus()
	fmt.Fprintf(&b, "# HELP serretimed_store_mode persistence mode (one-hot: memory, disk, memory-degraded)\n# TYPE serretimed_store_mode gauge\n")
	for _, m := range []StoreMode{StoreMemory, StoreDisk, StoreDegraded} {
		v := 0
		if m == mode {
			v = 1
		}
		fmt.Fprintf(&b, "serretimed_store_mode{mode=%q} %d\n", m.String(), v)
	}
	counter("serretimed_store_errors_total", storeErrs, "failed store writes (first one degrades the service to memory-only)")
	fmt.Fprintf(&b, "# HELP serretimed_store_recovered_jobs_total jobs restored by the boot-time WAL replay\n# TYPE serretimed_store_recovered_jobs_total counter\n")
	fmt.Fprintf(&b, "serretimed_store_recovered_jobs_total{kind=\"finished\"} %d\n", restored.Finished)
	fmt.Fprintf(&b, "serretimed_store_recovered_jobs_total{kind=\"requeued\"} %d\n", restored.Requeued)
	fmt.Fprintf(&b, "serretimed_store_recovered_jobs_total{kind=\"dropped\"} %d\n", restored.Dropped)
	counter("serretimed_store_quarantined_total", restored.Quarantined, "payloads whose checksum did not match the journal (moved aside, never served)")
	counter("serretimed_store_wal_corrupt_records_total", restored.CorruptRecords, "WAL records before the tail that failed CRC or decode")

	// Warm ECO sessions.
	sessOpen, sessOpened, sessWarm, sessFallback, sessEvicted := s.sessionStats()
	gauge("serretimed_sessions_open", sessOpen, "warm ECO sessions currently resident")
	counter("serretimed_sessions_opened_total", sessOpened, "ECO sessions opened")
	if len(sessEvicted) > 0 {
		fmt.Fprintf(&b, "# HELP serretimed_sessions_evicted_total sessions removed, by reason (lru, ttl, closed)\n# TYPE serretimed_sessions_evicted_total counter\n")
		reasons := make([]string, 0, len(sessEvicted))
		for r := range sessEvicted {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			fmt.Fprintf(&b, "serretimed_sessions_evicted_total{reason=%q} %d\n", r, sessEvicted[r])
		}
	}
	fmt.Fprintf(&b, "# HELP serretimed_session_deltas_total session deltas by solve path\n# TYPE serretimed_session_deltas_total counter\n")
	fmt.Fprintf(&b, "serretimed_session_deltas_total{path=\"warm\"} %d\n", sessWarm)
	fmt.Fprintf(&b, "serretimed_session_deltas_total{path=\"fallback\"} %d\n", sessFallback)

	counter("serretimed_cache_hits_total", hits, "submissions served from a finished identical job")
	counter("serretimed_cache_misses_total", accepted+rejected, "submissions that found no identical live job")
	gauge("serretimed_cache_entries", entries, "retained jobs (the content-addressed cache size)")
	ratio := 0.0
	if total := hits + coalesced + accepted + rejected; total > 0 {
		ratio = float64(hits+coalesced) / float64(total)
	}
	gauge("serretimed_cache_hit_ratio", fmt.Sprintf("%.6f", ratio), "fraction of submissions that avoided a fresh solve")

	// Solve latency histogram (successful solves only), cumulative
	// Prometheus buckets with OpenMetrics exemplars: each bucket carries
	// the trace ID of the latest job that landed in it, so an operator
	// can jump from a p99 bucket to `GET /v1/jobs/{id}/trace`.
	snap, exemplars := s.lat.Snapshot()
	fmt.Fprintf(&b, "# HELP serretimed_solve_seconds wall time of successful solves\n# TYPE serretimed_solve_seconds histogram\n")
	writeHistogram(&b, "serretimed_solve_seconds", "", snap, exemplars)

	// Per-phase latency histograms across finished jobs: queue-wait and
	// solve (depth 1), degradation tiers (depth 2), pipeline stages
	// (depth 3), each bucket with its exemplar trace ID.
	s.mu.Lock()
	phases := make([]string, 0, len(s.phaseLat))
	for name := range s.phaseLat {
		phases = append(phases, name)
	}
	sort.Strings(phases)
	phaseHists := make([]*telemetry.ExemplarHistogram, len(phases))
	for i, name := range phases {
		phaseHists[i] = s.phaseLat[name]
	}
	s.mu.Unlock()
	if len(phases) > 0 {
		fmt.Fprintf(&b, "# HELP serretimed_phase_seconds per-job span durations by phase (queue-wait, solve, tiers, pipeline stages)\n# TYPE serretimed_phase_seconds histogram\n")
		for i, name := range phases {
			psnap, pex := phaseHists[i].Snapshot()
			writeHistogram(&b, "serretimed_phase_seconds", fmt.Sprintf("phase=%q", name), psnap, pex)
		}
	}

	// Solver-internal telemetry from the shared collector.
	stats := s.col.Stats()
	fmt.Fprintf(&b, "# HELP serretimed_solver_phase_seconds_total summed span durations per solver phase\n# TYPE serretimed_solver_phase_seconds_total counter\n")
	for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
		if ps := stats.Phases[p]; ps.Count > 0 {
			fmt.Fprintf(&b, "serretimed_solver_phase_seconds_total{phase=%q} %.6f\n", p.String(), ps.Total.Seconds())
		}
	}
	fmt.Fprintf(&b, "# HELP serretimed_solver_phase_spans_total completed spans per solver phase\n# TYPE serretimed_solver_phase_spans_total counter\n")
	for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
		if ps := stats.Phases[p]; ps.Count > 0 {
			fmt.Fprintf(&b, "serretimed_solver_phase_spans_total{phase=%q} %d\n", p.String(), ps.Count)
		}
	}
	fmt.Fprintf(&b, "# HELP serretimed_solver_events_total solver counters (see internal/telemetry)\n# TYPE serretimed_solver_events_total counter\n")
	for c := telemetry.Counter(0); c < telemetry.NumCounters; c++ {
		if v := stats.Counters[c]; v != 0 {
			fmt.Fprintf(&b, "serretimed_solver_events_total{counter=%q} %d\n", c.String(), v)
		}
	}
	for g := telemetry.Gauge(0); g < telemetry.NumGauges; g++ {
		if v := stats.Gauges[g]; v != 0 {
			fmt.Fprintf(&b, "serretimed_solver_gauge_max{gauge=%q} %d\n", g.String(), v)
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// writeHistogram renders one histogram family member: cumulative
// buckets (extra labels like `phase="solve"` merged into each line),
// each bucket annotated with its exemplar in OpenMetrics syntax
// (`# {trace_id="..."} value timestamp`) when a traced observation hit
// it.
func writeHistogram(b *strings.Builder, name, labels string, snap telemetry.HistogramSnapshot, exemplars []telemetry.Exemplar) {
	bucketLabels := func(le string) string {
		if labels == "" {
			return fmt.Sprintf("{le=%q}", le)
		}
		return fmt.Sprintf("{%s,le=%q}", labels, le)
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	writeBucket := func(le string, cum int64, i int) {
		fmt.Fprintf(b, "%s_bucket%s %d", name, bucketLabels(le), cum)
		if i < len(exemplars) && exemplars[i].TraceID != "" {
			ex := exemplars[i]
			fmt.Fprintf(b, " # {trace_id=%q} %.6f %.3f",
				ex.TraceID, ex.Value.Seconds(), float64(ex.When.UnixMilli())/1000)
		}
		b.WriteByte('\n')
	}
	var cum int64
	for i, bound := range snap.Bounds {
		cum += snap.Counts[i]
		writeBucket(formatSeconds(bound), cum, i)
	}
	cum += snap.Counts[len(snap.Counts)-1]
	writeBucket("+Inf", cum, len(snap.Counts)-1)
	fmt.Fprintf(b, "%s_sum%s %.6f\n", name, suffix, snap.Sum.Seconds())
	fmt.Fprintf(b, "%s_count%s %d\n", name, suffix, snap.Count)
}

// formatSeconds renders a bucket bound as seconds with no trailing
// zeros (Prometheus le label convention).
func formatSeconds(d time.Duration) string {
	s := fmt.Sprintf("%g", d.Seconds())
	return s
}
