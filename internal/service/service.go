// Package service is the batch-retiming daemon behind cmd/serretimed: a
// bounded job queue with backpressure, a content-addressed result cache,
// and an HTTP front end over the public serretime API.
//
// Jobs are content-addressed: a job's identity is the SHA-256 of the
// submitted circuit's *normalized* netlist (parsed, then re-serialized in
// canonical .bench form, so whitespace, comments, and even the source
// format don't fragment the key) concatenated with the canonical option
// key (RobustOptions.CanonicalKey, defaults applied, result-invariant
// fields excluded). The job table therefore IS the cache: resubmitting a
// finished circuit returns the finished job without re-solving, and
// resubmitting one that is still queued or running coalesces onto the
// in-flight job instead of solving it twice.
//
// Solves run through the existing robustness machinery: each worker calls
// Design.RetimeRobust under the server's base context, so the per-attempt
// timeout, the stall watchdog, panic isolation and the degradation chain
// all apply, and a SIGTERM drain cancels in-flight solves by cancelling
// that context. Every solve records into its own telemetry.Trace (teed
// with Config.Recorder, when set); a finished job's trace is persisted
// and served, and every finished trace is folded into the solver section
// of /metrics, next to the queue, cache and latency counters.
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"serretime"
	"serretime/internal/guard"
	"serretime/internal/store"
	"serretime/internal/telemetry"
)

// JobState is a job's position in its lifecycle.
type JobState uint8

const (
	// StateQueued means the job is accepted and waiting for a worker.
	StateQueued JobState = iota
	// StateRunning means a worker is solving the job.
	StateRunning
	// StateDone means the job finished and its result is downloadable.
	StateDone
	// StateFailed means every degradation tier failed (or the drain
	// cancelled the job); Err holds the typed cause.
	StateFailed
)

func (s JobState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	}
	return fmt.Sprintf("JobState(%d)", uint8(s))
}

// Job is one batch-retiming request. All mutable fields are guarded by
// the owning Server's mutex; Done is closed exactly once when the job
// reaches StateDone or StateFailed.
type Job struct {
	// ID is the content address: hex SHA-256 of the normalized netlist
	// plus the canonical option key.
	ID string
	// Name is the circuit name from the submitted netlist.
	Name string
	// Done is closed when the job finishes (either terminal state).
	Done chan struct{}

	design *serretime.Design
	opts   serretime.RobustOptions

	state     JobState
	submitted time.Time
	started   time.Time
	finished  time.Time
	tier      serretime.Tier
	degraded  bool
	deltaSER  float64
	result    []byte // retimed netlist, canonical .bench
	err       error
	hits      int64 // cache hits + in-flight coalescings onto this job

	// trace is the live span tree (every accepted job gets one); traceID
	// is its hex ID, stable for the job's lifetime. traceDoc is the
	// marshaled telemetry.TraceDoc, set when the job reaches a terminal
	// state (or restored from the store after a restart). warned marks
	// that the slow-job watchdog already logged this job.
	trace    *telemetry.Trace
	traceID  string
	traceDoc []byte
	warned   bool
}

// JobView is an immutable snapshot of a Job for JSON responses.
type JobView struct {
	ID       string  `json:"id"`
	Name     string  `json:"name"`
	Status   string  `json:"status"`
	Tier     string  `json:"tier,omitempty"`
	Degraded bool    `json:"degraded,omitempty"`
	DeltaSER float64 `json:"delta_ser"`
	// Hits counts how many submissions this job absorbed beyond the
	// first (cache hits after completion, coalescings before it).
	Hits       int64  `json:"hits"`
	Error      string `json:"error,omitempty"`
	ErrorClass string `json:"error_class,omitempty"`
	QueuedFor  string `json:"queued_for,omitempty"`
	Runtime    string `json:"runtime,omitempty"`
	// TraceID is the job's trace identifier; GET /v1/jobs/{id}/trace
	// returns the span tree it names.
	TraceID string `json:"trace_id,omitempty"`
}

// Config tunes a Server. The zero value is usable: every field has a
// production-safe default applied by New.
type Config struct {
	// QueueDepth bounds the number of accepted-but-unfinished jobs; a
	// full queue answers 429 with a Retry-After hint. Default 64.
	QueueDepth int
	// Workers is the number of concurrent solves. Default GOMAXPROCS.
	Workers int
	// SolveWorkers is the per-solve analysis worker budget threaded to
	// RetimeOptions.Workers (the internal/par pools). Default 1: the
	// queue already provides inter-job parallelism, so intra-job
	// sharding would oversubscribe under load.
	SolveWorkers int
	// Timeout is the default per-attempt solve budget (RobustOptions.
	// Timeout) when a submission doesn't set its own. Default 5m.
	Timeout time.Duration
	// MaxJobs bounds the retained finished jobs (the cache size);
	// beyond it the oldest finished jobs are evicted. Default 4096.
	MaxJobs int
	// MaxBodyBytes bounds an uploaded netlist. Default 32 MiB.
	MaxBodyBytes int64
	// RetryAfter is the backpressure hint returned with 429 (and with
	// 409 on a not-yet-finished result poll or a busy session). Default 1s.
	RetryAfter time.Duration
	// MaxSessions bounds the warm ECO session table; at capacity the
	// least-recently-used idle session is evicted to admit a new one.
	// Default 32.
	MaxSessions int
	// SessionTTL evicts sessions idle longer than this (lazily, on the
	// next table access). Default 15m; <0 disables expiry.
	SessionTTL time.Duration
	// SlowJob, when positive, arms the slow-job watchdog: any job
	// running longer than this gets its stack-of-spans snapshot logged
	// through Logf (once per job), so a wedged solve names the exact
	// phase it is stuck in. Default 0: off.
	SlowJob time.Duration
	// Recorder, when set, receives every solve's telemetry alongside the
	// solve's own trace (an embedding program's recorder, e.g. a
	// benchmark harness). nil records into the traces alone.
	Recorder telemetry.Recorder
	// Store, when set, journals every job lifecycle transition and its
	// payloads so a restarted daemon can restore its cache and re-solve
	// interrupted jobs (call Restore after New). nil runs memory-only.
	Store Store
	// Logf receives operational log lines (store degradation, recovery
	// drops). nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.SolveWorkers == 0 {
		c.SolveWorkers = 1
	}
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 32
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 15 * time.Minute
	}
	return c
}

// Server is the batch-retiming service. Create with New, serve its
// Handler, and call Drain on shutdown.
type Server struct {
	cfg   Config
	lat   *telemetry.ExemplarHistogram
	queue chan *Job
	busy  atomic.Int64 // workers currently inside a solve

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	start   time.Time

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // finished-job eviction order (oldest first)
	draining bool
	// phaseLat aggregates per-phase latencies across finished jobs (one
	// exemplared histogram per span name), rendered by /metrics. Guarded
	// by mu; created lazily so zero-value servers in tests stay usable.
	phaseLat map[string]*telemetry.ExemplarHistogram
	// solver folds the trace of every finished job and session solve:
	// the /metrics solver section. Guarded by mu.
	solver telemetry.RunStats

	// Persistence (guarded by mu). store is nilled on the first write
	// failure: the server degrades to memory-only rather than failing
	// solves.
	store     Store
	storeMode StoreMode
	storeErrs int64
	restored  RestoreSummary

	// Warm ECO sessions (DESIGN.md §17). sessMu guards the table and its
	// counters only — never held across a solve; per-session locks
	// serialize those. sessNonce prefixes every session ID so IDs from a
	// previous boot are answerable with 410 Gone.
	sessMu      sync.Mutex
	sessions    map[string]*session
	sessNonce   string
	sessSeq     int64
	sessOpened  int64
	sessDeltas  int64 // applied deltas, all sessions
	sessEvicted map[string]int64
	sessSolve   chan struct{} // solve-slot semaphore (cap Workers)

	// counters (guarded by mu; scraped by /metrics)
	accepted  int64 // jobs enqueued (cache misses)
	rejected  int64 // 429s: queue full
	coalesced int64 // submissions attached to an in-flight identical job
	cacheHits int64 // submissions served from a finished identical job
	completed int64
	failed    int64
	byTier    [4]int64 // completed jobs by serretime.Tier
	byClass   map[string]int64
}

// New builds a Server and starts its worker pool. ctx bounds the whole
// service: cancelling it is equivalent to Drain's cancellation half.
func New(ctx context.Context, cfg Config) *Server {
	cfg = cfg.withDefaults()
	bctx, cancel := context.WithCancel(ctx)
	s := &Server{
		cfg:     cfg,
		lat:     telemetry.NewExemplarHistogram(telemetry.LatencyBounds()),
		queue:   make(chan *Job, cfg.QueueDepth),
		baseCtx: bctx,
		cancel:  cancel,
		start:   time.Now(),
		jobs:    make(map[string]*Job),
		byClass: make(map[string]int64),
		store:   cfg.Store,
	}
	if cfg.Store != nil {
		s.storeMode = StoreDisk
	}
	s.initSessions()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.SlowJob > 0 {
		s.wg.Add(1)
		go s.watchdog()
	}
	return s
}

// jobKey is the content address of (netlist, options): the hex SHA-256
// of the canonical .bench serialization of the parsed design, a NUL, and
// the canonical option key. It also returns the canonical .bench bytes
// the key hashes, so Submit can journal the exact payload its identity
// commits to without serializing the design twice.
func jobKey(d *serretime.Design, opt serretime.RobustOptions) (string, []byte, error) {
	var buf bytes.Buffer
	if err := d.WriteBench(&buf); err != nil {
		return "", nil, err
	}
	h := sha256.New()
	h.Write(buf.Bytes())
	h.Write([]byte{0})
	h.Write([]byte(opt.CanonicalKey()))
	return hex.EncodeToString(h.Sum(nil)), buf.Bytes(), nil
}

// Submit registers a parsed design for solving under the given options
// (the server default is applied to a zero Timeout). It returns the
// job — possibly an existing one — and how the submission was resolved:
//
//	accepted  a fresh job was enqueued
//	coalesced an identical job is already queued or running
//	cached    an identical job already finished; its result is served
//
// A full queue returns ErrQueueFull (HTTP 429 upstream); a draining
// server returns ErrDraining (HTTP 503).
//
// traceID names the job's trace (from a Traceparent header); a zero ID
// mints one. A coalesced or cached submission keeps the existing job's
// trace — the job's identity, and therefore its trace, belongs to the
// first submission.
func (s *Server) Submit(d *serretime.Design, opt serretime.RobustOptions, traceID telemetry.TraceID) (*Job, Disposition, error) {
	// The recorder is result-invariant (excluded from CanonicalKey), so
	// the per-job trace recorder never fragments the cache key.
	tr := s.applySolveDefaults(&opt, traceID)
	key, bench, err := jobKey(d, opt)
	if err != nil {
		return nil, 0, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, 0, ErrDraining
	}
	if j, ok := s.jobs[key]; ok {
		switch j.state {
		case StateQueued, StateRunning:
			j.hits++
			s.coalesced++
			return j, Coalesced, nil
		case StateDone:
			j.hits++
			s.cacheHits++
			return j, Cached, nil
		case StateFailed:
			// A failed job is not a result: drop it and retry below.
			delete(s.jobs, key)
			s.dropFromOrder(key)
		}
	}
	tr.Begin("queue-wait")
	j := &Job{
		ID:        key,
		Name:      d.Name(),
		Done:      make(chan struct{}),
		design:    d,
		opts:      opt,
		state:     StateQueued,
		submitted: time.Now(),
		trace:     tr,
		traceID:   tr.ID().String(),
	}
	select {
	case s.queue <- j:
	default:
		s.rejected++
		return nil, 0, ErrQueueFull
	}
	s.jobs[key] = j
	s.accepted++
	s.journal(func(st Store) error {
		return st.JournalSubmitted(key, j.Name, bench, encodeOptions(j.opts), j.opts.CanonicalKey())
	})
	return j, Accepted, nil
}

// applySolveDefaults fills the server-side defaults (Timeout, Workers)
// that zero fields leave open and points the solve's Recorder at a fresh
// trace under traceID (a zero ID mints one), teed with Config.Recorder.
// Submit, Restore and the session solves all go through it, so a job and
// a session solve see the same defaults.
func (s *Server) applySolveDefaults(opt *serretime.RobustOptions, traceID telemetry.TraceID) *telemetry.Trace {
	if opt.Timeout == 0 {
		opt.Timeout = s.cfg.Timeout
	}
	if opt.Workers == 0 {
		opt.Workers = s.cfg.SolveWorkers
	}
	tr := telemetry.NewTrace(traceID)
	opt.Recorder = telemetry.Tee(s.cfg.Recorder, tr)
	return tr
}

// Disposition says how Submit resolved a submission.
type Disposition uint8

const (
	// Accepted: a fresh job was enqueued.
	Accepted Disposition = iota
	// Coalesced: attached to an identical in-flight job.
	Coalesced
	// Cached: served from an identical finished job.
	Cached
)

func (d Disposition) String() string {
	switch d {
	case Accepted:
		return "accepted"
	case Coalesced:
		return "coalesced"
	case Cached:
		return "cached"
	}
	return fmt.Sprintf("Disposition(%d)", uint8(d))
}

// Typed service errors; both unwrap to sentinels callers can errors.Is.
var (
	// ErrQueueFull is returned by Submit when the bounded queue is at
	// capacity (HTTP 429).
	ErrQueueFull = fmt.Errorf("service: queue full")
	// ErrDraining is returned by Submit once Drain has begun (HTTP 503).
	ErrDraining = fmt.Errorf("service: draining")
)

// Job returns the job with the given ID, if retained.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// View snapshots a job for JSON rendering.
func (s *Server) View(j *Job) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := JobView{
		ID:       j.ID,
		Name:     j.Name,
		Status:   j.state.String(),
		DeltaSER: j.deltaSER,
		Hits:     j.hits,
		TraceID:  j.traceID,
	}
	switch j.state {
	case StateQueued:
		v.QueuedFor = time.Since(j.submitted).Round(time.Millisecond).String()
	case StateRunning:
		v.Runtime = time.Since(j.started).Round(time.Millisecond).String()
	case StateDone:
		v.Tier = j.tier.String()
		v.Degraded = j.degraded
		v.Runtime = j.finished.Sub(j.started).Round(time.Millisecond).String()
	case StateFailed:
		v.Error = j.err.Error()
		v.ErrorClass = guard.Classify(j.err)
	}
	return v
}

// Result returns a finished job's retimed netlist (canonical .bench).
func (s *Server) Result(j *Job) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.result, nil
	case StateFailed:
		return nil, j.err
	}
	return nil, fmt.Errorf("service: job %s not finished (%s)", j.ID, j.state)
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

func (s *Server) runJob(j *Job) {
	if err := guard.Checkpoint(s.baseCtx, "service.runJob"); err != nil {
		s.finishJob(j, err)
		return
	}
	s.busy.Add(1)
	defer s.busy.Add(-1)
	s.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	s.journal(func(st Store) error { return st.JournalRunning(j.ID) })
	s.mu.Unlock()
	if j.trace != nil {
		j.trace.End("queue-wait", nil)
		j.trace.Begin("solve")
	}

	res, err := j.design.RetimeRobust(s.baseCtx, j.opts)
	if j.trace != nil {
		j.trace.End("solve", err)
	}
	if err != nil {
		s.finishJob(j, err)
		return
	}
	var buf bytes.Buffer
	if werr := res.Retimed.WriteBench(&buf); werr != nil {
		s.finishJob(j, werr)
		return
	}
	doc := s.finalizeTrace(j, StateDone.String(), res.Tier.String(), res.Degraded)
	s.lat.Observe(time.Since(j.started), traceIDOf(j))
	s.mu.Lock()
	j.state = StateDone
	j.finished = time.Now()
	j.tier = res.Tier
	j.degraded = res.Degraded
	j.deltaSER = res.DeltaSER()
	j.result = buf.Bytes()
	s.completed++
	if int(res.Tier) < len(s.byTier) {
		s.byTier[res.Tier]++
	}
	s.observePhasesLocked(doc, traceIDOf(j))
	s.journal(func(st Store) error {
		return st.JournalDone(j.ID, store.ResultMeta{
			Tier:     int(res.Tier),
			Degraded: res.Degraded,
			DeltaSER: j.deltaSER,
		}, j.result, j.traceDoc)
	})
	s.retainLocked(j.ID)
	s.mu.Unlock()
	close(j.Done)
}

func (s *Server) finishJob(j *Job, err error) {
	doc := s.finalizeTrace(j, StateFailed.String(), "", false)
	s.mu.Lock()
	j.state = StateFailed
	j.finished = time.Now()
	j.err = err
	s.failed++
	s.byClass[guard.Classify(err)]++
	s.observePhasesLocked(doc, traceIDOf(j))
	s.journal(func(st Store) error {
		return st.JournalFailed(j.ID, guard.Classify(err), err.Error())
	})
	s.retainLocked(j.ID)
	s.mu.Unlock()
	close(j.Done)
}

// finalizeTrace force-closes the job's span tree, marshals the persisted
// document into j.traceDoc, and returns it for phase-histogram
// observation. Safe on trace-less jobs (returns nil).
func (s *Server) finalizeTrace(j *Job, status, tier string, degraded bool) *telemetry.TraceDoc {
	if j.trace == nil {
		return nil
	}
	j.trace.Finish()
	doc := j.trace.Doc(j.ID, j.Name, status, tier, degraded)
	j.traceDoc = doc.Encode()
	return doc
}

func traceIDOf(j *Job) telemetry.TraceID {
	if j.trace == nil {
		return telemetry.TraceID{}
	}
	return j.trace.ID()
}

// phaseDepth bounds which spans feed the per-phase /metrics histograms:
// depth 1 is queue-wait/solve, 2 the degradation tiers, 3 the pipeline
// stages. Deeper merged inner-loop spans stay in the trace only.
const phaseDepth = 3

// observePhasesLocked feeds one finished job's span durations into the
// per-phase exemplar histograms and folds its document into the solver
// section. Callers hold s.mu.
func (s *Server) observePhasesLocked(doc *telemetry.TraceDoc, id telemetry.TraceID) {
	if doc == nil || doc.Root == nil {
		return
	}
	s.solver.Add(doc)
	if s.phaseLat == nil {
		s.phaseLat = make(map[string]*telemetry.ExemplarHistogram)
	}
	doc.Root.Walk(func(depth int, sp *telemetry.Span) {
		if depth == 0 || depth > phaseDepth {
			return
		}
		h := s.phaseLat[sp.Name]
		if h == nil {
			h = telemetry.NewExemplarHistogram(telemetry.LatencyBounds())
			s.phaseLat[sp.Name] = h
		}
		h.Observe(time.Duration(sp.DurNS), id)
	})
}

// watchdog periodically scans for running jobs older than Config.SlowJob
// and logs each one's open-span stack once, so a wedged solve is
// diagnosable from the daemon log alone.
func (s *Server) watchdog() {
	defer s.wg.Done()
	tick := s.cfg.SlowJob / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > 10*time.Second {
		tick = 10 * time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			var slow []*Job
			now := time.Now()
			s.mu.Lock()
			for _, j := range s.jobs {
				if j.state == StateRunning && !j.warned && now.Sub(j.started) > s.cfg.SlowJob {
					j.warned = true
					slow = append(slow, j)
				}
			}
			s.mu.Unlock()
			for _, j := range slow {
				stack := "(no trace)"
				if j.trace != nil {
					stack = j.trace.StackString()
				}
				s.logf("serretimed: slow job %.12s (%s, trace %s): running %v > %v; spans: %s",
					j.ID, j.Name, j.traceID,
					now.Sub(j.started).Round(time.Millisecond), s.cfg.SlowJob, stack)
			}
		}
	}
}

// retainLocked appends a finished job to the eviction order and evicts
// the oldest finished jobs beyond MaxJobs. Callers hold s.mu.
func (s *Server) retainLocked(id string) {
	s.order = append(s.order, id)
	for len(s.order) > s.cfg.MaxJobs {
		old := s.order[0]
		s.order = s.order[1:]
		delete(s.jobs, old)
		s.journal(func(st Store) error { return st.JournalEvicted(old) })
	}
}

func (s *Server) dropFromOrder(id string) {
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

// Drain shuts the service down: new submissions are refused with
// ErrDraining, in-flight solves are cancelled through the base context
// (they fail with errors unwrapping to guard.ErrTimeout), workers exit,
// and every still-queued job is failed. ctx bounds the wait; on expiry
// the workers may still be unwinding. The caller owns any recorder it
// passed in Config.Recorder.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	// Workers are gone; fail whatever never started.
	for {
		select {
		case j := <-s.queue:
			s.finishJob(j, fmt.Errorf("service: job %s cancelled by drain: %w", j.ID, ErrDraining))
		default:
			s.mu.Lock()
			st := s.store
			s.store = nil
			s.mu.Unlock()
			if st != nil {
				return st.Close()
			}
			return nil
		}
	}
}

// TraceJSON returns a job's span tree as a marshaled telemetry.TraceDoc:
// the persisted document for a finished (or restored) job, or a live
// snapshot — open spans annotated with their elapsed time — for one
// still queued or running. nil means the job has no trace (restored
// from a store written before tracing existed).
func (s *Server) TraceJSON(j *Job) []byte {
	s.mu.Lock()
	doc := j.traceDoc
	tr := j.trace
	st := j.state
	tier := j.tier
	s.mu.Unlock()
	if len(doc) > 0 {
		return doc
	}
	if tr == nil {
		return nil
	}
	tierName := ""
	if st == StateDone {
		tierName = tier.String()
	}
	return tr.Doc(j.ID, j.Name, st.String(), tierName, false).Encode()
}

// InFlightJob is one row of the /debug/jobs live view.
type InFlightJob struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Status  string `json:"status"`
	TraceID string `json:"trace_id,omitempty"`
	// Age is the time since submission; QueueWait the time spent (or
	// being spent) waiting for a worker; Running the time inside the
	// solve so far (running jobs only).
	Age       string `json:"age"`
	QueueWait string `json:"queue_wait"`
	Running   string `json:"running,omitempty"`
	// Phase is the innermost open span ("minimize", "par:sim.run", ...);
	// Spans is the full open-span stack with per-span elapsed times.
	Phase string `json:"phase,omitempty"`
	Spans string `json:"spans,omitempty"`
	Hits  int64  `json:"hits"`
}

// InFlight snapshots every queued or running job, oldest first, plus the
// worker pool's instantaneous utilization — the data behind /debug/jobs.
func (s *Server) InFlight() (jobs []InFlightJob, busyWorkers, totalWorkers int) {
	now := time.Now()
	s.mu.Lock()
	live := make([]*Job, 0, 8)
	for _, j := range s.jobs {
		if j.state == StateQueued || j.state == StateRunning {
			live = append(live, j)
		}
	}
	sort.Slice(live, func(i, k int) bool { return live[i].submitted.Before(live[k].submitted) })
	rows := make([]InFlightJob, 0, len(live))
	for _, j := range live {
		row := InFlightJob{
			ID:      j.ID,
			Name:    j.Name,
			Status:  j.state.String(),
			TraceID: j.traceID,
			Age:     now.Sub(j.submitted).Round(time.Millisecond).String(),
			Hits:    j.hits,
		}
		switch j.state {
		case StateQueued:
			row.QueueWait = now.Sub(j.submitted).Round(time.Millisecond).String()
		case StateRunning:
			row.QueueWait = j.started.Sub(j.submitted).Round(time.Millisecond).String()
			row.Running = now.Sub(j.started).Round(time.Millisecond).String()
		}
		if j.trace != nil {
			if path := j.trace.CurrentPath(); len(path) > 0 {
				row.Phase = path[len(path)-1]
			}
			row.Spans = j.trace.StackString()
		}
		rows = append(rows, row)
	}
	s.mu.Unlock()
	return rows, int(s.busy.Load()), s.cfg.Workers
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// QueueDepth returns the number of queued-but-unstarted jobs and the
// queue capacity.
func (s *Server) QueueDepth() (depth, capacity int) {
	return len(s.queue), cap(s.queue)
}
