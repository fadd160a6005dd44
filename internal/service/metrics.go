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
// and per-error-class outcome counts, the per-phase latency histograms
// (the solve histogram among them), and the solver section — phase
// durations, counters and gauges folded from every finished job's and
// session solve's trace (so the solver's own observability — label
// sweeps, worker pool utilization, violation counts — is scrapeable
// without reading traces). The server state is rendered under s.mu,
// where it is written; the session table is read first, under its own
// lock.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	gauge := func(name string, v any, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name string, v any, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}

	depth, capa := s.QueueDepth()
	sessOpen, sessOpened, sessDeltas, sessEvicted := s.sessionStats()
	s.mu.Lock()
	gauge("serretimed_uptime_seconds", int64(time.Since(s.start).Seconds()), "seconds since the service started")
	gauge("serretimed_queue_depth", depth, "jobs accepted but not yet picked up by a worker")
	gauge("serretimed_queue_capacity", capa, "bound of the job queue (submissions beyond it get 429)")
	gauge("serretimed_workers", s.cfg.Workers, "concurrent solve workers")

	counter("serretimed_jobs_accepted_total", s.accepted, "fresh jobs enqueued")
	counter("serretimed_jobs_rejected_total", s.rejected, "submissions refused with 429 (queue full)")
	counter("serretimed_jobs_coalesced_total", s.coalesced, "submissions attached to an identical in-flight job")
	counter("serretimed_jobs_completed_total", s.completed, "jobs finished with a result")
	counter("serretimed_jobs_failed_total", s.failed, "jobs finished with an error")

	fmt.Fprintf(&b, "# HELP serretimed_jobs_by_tier_total completed jobs by degradation tier\n# TYPE serretimed_jobs_by_tier_total counter\n")
	for t := serretime.TierMinObsWin; t <= serretime.TierIdentity; t++ {
		fmt.Fprintf(&b, "serretimed_jobs_by_tier_total{tier=%q} %d\n", t.String(), s.byTier[t])
	}
	if len(s.byClass) > 0 {
		fmt.Fprintf(&b, "# HELP serretimed_jobs_failed_by_class_total failed jobs by guard error class\n# TYPE serretimed_jobs_failed_by_class_total counter\n")
		for _, c := range sortedKeys(s.byClass) {
			fmt.Fprintf(&b, "serretimed_jobs_failed_by_class_total{class=%q} %d\n", c, s.byClass[c])
		}
	}

	// Persistence state: mode as one-hot labeled gauge (Prometheus
	// convention for enums), plus recovery and degradation counters.
	fmt.Fprintf(&b, "# HELP serretimed_store_mode persistence mode (one-hot: memory, disk, memory-degraded)\n# TYPE serretimed_store_mode gauge\n")
	for _, m := range []StoreMode{StoreMemory, StoreDisk, StoreDegraded} {
		v := 0
		if m == s.storeMode {
			v = 1
		}
		fmt.Fprintf(&b, "serretimed_store_mode{mode=%q} %d\n", m.String(), v)
	}
	restored := s.restored
	counter("serretimed_store_errors_total", s.storeErrs, "failed store writes (first one degrades the service to memory-only)")
	fmt.Fprintf(&b, "# HELP serretimed_store_recovered_jobs_total jobs restored by the boot-time WAL replay\n# TYPE serretimed_store_recovered_jobs_total counter\n")
	fmt.Fprintf(&b, "serretimed_store_recovered_jobs_total{kind=\"finished\"} %d\n", restored.Finished)
	fmt.Fprintf(&b, "serretimed_store_recovered_jobs_total{kind=\"requeued\"} %d\n", restored.Requeued)
	fmt.Fprintf(&b, "serretimed_store_recovered_jobs_total{kind=\"dropped\"} %d\n", restored.Dropped)
	counter("serretimed_store_quarantined_total", restored.Quarantined, "payloads whose checksum did not match the journal (moved aside, never served)")
	counter("serretimed_store_wal_corrupt_records_total", restored.CorruptRecords, "WAL records before the tail that failed CRC or decode")

	// Warm ECO sessions.
	gauge("serretimed_sessions_open", sessOpen, "warm ECO sessions currently resident")
	counter("serretimed_sessions_opened_total", sessOpened, "ECO sessions opened")
	if len(sessEvicted) > 0 {
		fmt.Fprintf(&b, "# HELP serretimed_sessions_evicted_total sessions removed, by reason (lru, ttl, closed)\n# TYPE serretimed_sessions_evicted_total counter\n")
		for _, r := range sortedKeys(sessEvicted) {
			fmt.Fprintf(&b, "serretimed_sessions_evicted_total{reason=%q} %d\n", r, sessEvicted[r])
		}
	}
	counter("serretimed_session_deltas_total", sessDeltas, "session deltas applied")

	hits, coalesced, misses := s.cacheHits, s.coalesced, s.accepted+s.rejected
	counter("serretimed_cache_hits_total", hits, "submissions served from a finished identical job")
	counter("serretimed_cache_misses_total", misses, "submissions that found no identical live job")
	gauge("serretimed_cache_entries", len(s.jobs), "retained jobs (the content-addressed cache size)")
	ratio := 0.0
	if total := hits + coalesced + misses; total > 0 {
		ratio = float64(hits+coalesced) / float64(total)
	}
	gauge("serretimed_cache_hit_ratio", fmt.Sprintf("%.6f", ratio), "fraction of submissions that avoided a fresh solve")

	// Per-phase latency histograms across finished jobs, failed ones
	// included: queue-wait and solve (depth 1), degradation tiers (depth
	// 2), pipeline stages (depth 3), each bucket with its exemplar trace
	// ID.
	if len(s.phaseLat) > 0 {
		fmt.Fprintf(&b, "# HELP serretimed_phase_seconds per-job span durations by phase (queue-wait, solve, tiers, pipeline stages)\n# TYPE serretimed_phase_seconds histogram\n")
		for _, name := range sortedKeys(s.phaseLat) {
			s.phaseLat[name].write(&b, "serretimed_phase_seconds", name)
		}
	}

	// Solver-internal telemetry folded from finished traces.
	stats := &s.solver
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
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// numBuckets is the bucket count of a /metrics histogram: upper bounds
// of 1 ms doubling to 262.144 s (bucketBound), then the +Inf overflow.
const numBuckets = 20

// bucketBound is the upper bound of bucket i < numBuckets-1.
func bucketBound(i int) time.Duration { return time.Millisecond << i }

// histogram is one per-phase latency histogram of /metrics: per-bucket
// (not cumulative) counts, the sum, and per bucket the latest
// observation as its exemplar, the breadcrumb from a slow bucket to the
// job's trace. It has no lock of its own: the server observes and
// renders it under s.mu.
type histogram struct {
	counts    [numBuckets]int64
	exemplars [numBuckets]exemplar
	sum       time.Duration
	count     int64
}

type exemplar struct {
	traceID string
	value   time.Duration
	when    time.Time
}

// observe records one duration (a negative one counts as zero) with the
// trace it came from.
func (h *histogram) observe(d time.Duration, traceID string) {
	d = max(d, 0)
	i := 0
	for i < numBuckets-1 && d > bucketBound(i) {
		i++
	}
	h.counts[i]++
	h.sum += d
	h.count++
	h.exemplars[i] = exemplar{traceID: traceID, value: d, when: time.Now()}
}

// write renders the histogram as one member of a family: cumulative
// buckets labelled with the phase, each annotated with its exemplar in
// OpenMetrics syntax (`# {trace_id="..."} value timestamp`).
func (h *histogram) write(b *strings.Builder, name, phase string) {
	var cum int64
	for i := range h.counts {
		le := "+Inf"
		if i < numBuckets-1 {
			le = fmt.Sprintf("%g", bucketBound(i).Seconds())
		}
		cum += h.counts[i]
		fmt.Fprintf(b, "%s_bucket{phase=%q,le=%q} %d", name, phase, le, cum)
		if ex := h.exemplars[i]; ex.traceID != "" {
			fmt.Fprintf(b, " # {trace_id=%q} %.6f %.3f",
				ex.traceID, ex.value.Seconds(), float64(ex.when.UnixMilli())/1000)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(b, "%s_sum{phase=%q} %.6f\n", name, phase, h.sum.Seconds())
	fmt.Fprintf(b, "%s_count{phase=%q} %d\n", name, phase, h.count)
}
