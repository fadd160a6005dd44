package main

import (
	"sync"
	"sync/atomic"
	"time"

	"serretime/internal/service"
	"serretime/internal/store"
	"serretime/internal/telemetry"
)

// recorder is the benchmark's own telemetry.Recorder, handed to the
// program through RetimeOptions.Recorder or service.Config.Recorder. It
// sums inclusive phase durations and counters while switched on. Phase
// spans are paired only when pairSpans is set, which the workloads do
// only where one solve runs at a time; with concurrent solves the
// recorder keeps counters alone, because start and end events of two
// solves cannot be told apart.
type recorder struct {
	on        atomic.Bool
	pairSpans bool

	mu    sync.Mutex
	open  [telemetry.NumPhases]time.Time
	total [telemetry.NumPhases]time.Duration

	counters [telemetry.NumCounters]atomic.Int64
}

func newRecorder(pairSpans bool) *recorder { return &recorder{pairSpans: pairSpans} }

func (r *recorder) SpanStart(p telemetry.Phase) {
	if !r.pairSpans || !r.on.Load() || p >= telemetry.NumPhases {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.open[p] = now
	r.mu.Unlock()
}

func (r *recorder) SpanEnd(p telemetry.Phase, _ error) {
	if !r.pairSpans || !r.on.Load() || p >= telemetry.NumPhases {
		return
	}
	now := time.Now()
	r.mu.Lock()
	if t0 := r.open[p]; !t0.IsZero() {
		r.total[p] += now.Sub(t0)
		r.open[p] = time.Time{}
	}
	r.mu.Unlock()
}

func (r *recorder) Count(c telemetry.Counter, n int64) {
	if r.on.Load() && c < telemetry.NumCounters {
		r.counters[c].Add(n)
	}
}

func (r *recorder) Gauge(telemetry.Gauge, int64) {}

// phaseTotals snapshots the summed phase durations.
func (r *recorder) phaseTotals() [telemetry.NumPhases]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

func (r *recorder) counter(c telemetry.Counter) int64 { return r.counters[c].Load() }

// timedStore wraps the service's store and times every journal call while
// switched on; payload bytes count the netlist, options, result and trace
// blobs handed to the store.
type timedStore struct {
	service.Store
	on    atomic.Bool
	calls atomic.Int64
	nanos atomic.Int64
	bytes atomic.Int64
}

func (t *timedStore) observe(start time.Time, payload int) {
	if !t.on.Load() {
		return
	}
	t.calls.Add(1)
	t.nanos.Add(int64(time.Since(start)))
	t.bytes.Add(int64(payload))
}

func (t *timedStore) JournalSubmitted(id, name string, netlist, opts []byte, optKey string) error {
	start := time.Now()
	err := t.Store.JournalSubmitted(id, name, netlist, opts, optKey)
	t.observe(start, len(netlist)+len(opts))
	return err
}

func (t *timedStore) JournalRunning(id string) error {
	start := time.Now()
	err := t.Store.JournalRunning(id)
	t.observe(start, 0)
	return err
}

func (t *timedStore) JournalDone(id string, meta store.ResultMeta, result, trace []byte) error {
	start := time.Now()
	err := t.Store.JournalDone(id, meta, result, trace)
	t.observe(start, len(result)+len(trace))
	return err
}

func (t *timedStore) JournalFailed(id, class, msg string) error {
	start := time.Now()
	err := t.Store.JournalFailed(id, class, msg)
	t.observe(start, 0)
	return err
}

func (t *timedStore) JournalEvicted(id string) error {
	start := time.Now()
	err := t.Store.JournalEvicted(id)
	t.observe(start, 0)
	return err
}
