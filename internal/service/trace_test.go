package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"serretime/internal/telemetry"
)

// TestTraceEndToEndHTTP submits a job with a client Traceparent header
// and checks the acceptance contract: the server adopts the client's
// trace ID, echoes it in X-Trace-Id, and GET /v1/jobs/{id}/trace returns
// a span tree covering queue wait, at least one robust tier, and at
// least one parallel shard phase — with the default SolveWorkers=1.
func TestTraceEndToEndHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Timeout: time.Minute})
	body := benchBytes(t, tableIDesign(t, "b14_1_opt", 100))

	want := telemetry.NewTraceID()
	req, err := http.NewRequest("POST", ts.URL+"/v1/retime", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Traceparent", "00-"+want.String()+"-0000000000000001-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var msg submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != want.String() {
		t.Fatalf("X-Trace-Id = %q, want adopted %q", got, want)
	}
	if msg.TraceID != want.String() {
		t.Fatalf("body trace_id = %q, want %q", msg.TraceID, want)
	}

	v := pollDone(t, ts.URL, msg.ID)
	if v.Status != StateDone.String() {
		t.Fatalf("job finished %q: %s", v.Status, v.Error)
	}

	data, r := fetchBody(t, ts.URL+"/v1/jobs/"+msg.ID+"/trace")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: HTTP %d: %.200s", r.StatusCode, data)
	}
	doc, err := telemetry.DecodeTraceDoc(data)
	if err != nil {
		t.Fatal(err)
	}
	if doc.TraceID != want.String() || doc.JobID != msg.ID || doc.Status != "done" {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Root.Find("queue-wait") == nil || doc.Root.Find("solve") == nil {
		t.Fatalf("trace lacks queue-wait/solve spans: %s", data)
	}
	var tiers, shards int
	doc.Root.Walk(func(_ int, sp *telemetry.Span) {
		if strings.HasPrefix(sp.Name, "tier:") {
			tiers++
		}
		if strings.HasPrefix(sp.Name, "par:") {
			shards++
		}
		if sp.Open {
			t.Errorf("finished trace has open span %q", sp.Name)
		}
	})
	if tiers == 0 || shards == 0 {
		t.Fatalf("trace has %d tier and %d shard spans, want both > 0:\n%.600s", tiers, shards, data)
	}

	// Unknown job and a job without the trace suffix still behave.
	if _, r := fetchBody(t, ts.URL+"/v1/jobs/nope/trace"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace: HTTP %d", r.StatusCode)
	}
}

// TestTraceCarriesCounters checks that a finished job's persisted trace
// carries the solver counters on the spans they happened in: optimizer
// steps on minimize, label sweeps on find-violations.
func TestTraceCarriesCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Timeout: time.Minute})
	body := benchBytes(t, tableIDesign(t, "b14_1_opt", 30))
	msg, _ := postNetlist(t, ts.URL+"/v1/retime", body)
	if v := pollDone(t, ts.URL, msg.ID); v.Status != StateDone.String() {
		t.Fatalf("job finished %q: %s", v.Status, v.Error)
	}
	data, r := fetchBody(t, ts.URL+"/v1/jobs/"+msg.ID+"/trace")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: HTTP %d: %.200s", r.StatusCode, data)
	}
	doc, err := telemetry.DecodeTraceDoc(data)
	if err != nil {
		t.Fatal(err)
	}
	min := doc.Root.Find("minimize")
	if min == nil || min.Counters["steps"] <= 0 {
		t.Fatalf("minimize span carries no steps: %+v", min)
	}
	var labelFulls int64
	doc.Root.Walk(func(_ int, sp *telemetry.Span) {
		if sp.Name == "find-violations" {
			labelFulls += sp.Counters["label-fulls"]
		}
	})
	if labelFulls <= 0 {
		t.Fatalf("no label-fulls on find-violations spans:\n%.800s", data)
	}
}

// TestTraceMintedWithoutTraceparent checks ingress mints an ID when the
// client sends none.
func TestTraceMintedWithoutTraceparent(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Timeout: time.Minute})
	body := benchBytes(t, tableIDesign(t, "b14_1_opt", 20))
	resp, err := http.Post(ts.URL+"/v1/retime", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	id := resp.Header.Get("X-Trace-Id")
	if _, ok := telemetry.ParseTraceID(id); !ok {
		t.Fatalf("minted X-Trace-Id = %q, want 32 hex", id)
	}
}

// TestTraceObservability checks the read-side surfaces after a finished
// job: /metrics carries the per-phase histogram family with exemplar
// trace IDs, /debug/jobs parses with worker/queue numbers, and /healthz
// reports build identity.
func TestTraceObservability(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Timeout: time.Minute})
	body := benchBytes(t, tableIDesign(t, "b14_1_opt", 30))
	msg, _ := postNetlist(t, ts.URL+"/v1/retime", body)
	pollDone(t, ts.URL, msg.ID)

	metrics, _ := fetchBody(t, ts.URL+"/metrics")
	m := string(metrics)
	for _, want := range []string{
		`serretimed_phase_seconds_bucket{phase="solve",`,
		`serretimed_phase_seconds_bucket{phase="queue-wait",`,
		`serretimed_phase_seconds_count{phase="solve"}`,
		"# {trace_id=\"" + msg.TraceID + "\"}",
		"serretimed_solve_seconds_bucket",
		`serretimed_solver_events_total{counter="steps"}`,
		`serretimed_solver_phase_seconds_total{phase="minimize"}`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	data, r := fetchBody(t, ts.URL+"/debug/jobs")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/debug/jobs: HTTP %d", r.StatusCode)
	}
	var dbg debugJobsResponse
	if err := json.Unmarshal(data, &dbg); err != nil {
		t.Fatalf("/debug/jobs unparsable: %v\n%.300s", err, data)
	}
	if dbg.Workers != 1 || dbg.Completed != 1 || dbg.QueueCapacity == 0 {
		t.Fatalf("/debug/jobs = %+v", dbg)
	}
	if len(dbg.InFlight) != 0 {
		t.Fatalf("idle server reports in-flight jobs: %+v", dbg.InFlight)
	}

	data, _ = fetchBody(t, ts.URL+"/healthz")
	var h healthResponse
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.GoVersion == "" || h.GOMAXPROCS < 1 || h.Uptime == "" {
		t.Fatalf("/healthz build identity = %+v", h)
	}
}

// TestDebugJobsShowsRunning checks the live view's row contents and
// ordering. Real solves finish in milliseconds at test scales, so the
// test plants a queued and a running job directly (same package) and
// reads them back through the HTTP endpoint.
func TestDebugJobsShowsRunning(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Timeout: time.Minute})

	mkJob := func(id, name string, st JobState, age time.Duration) *Job {
		tr := telemetry.NewTrace(telemetry.TraceID{})
		tr.Begin("queue-wait")
		j := &Job{
			ID: id, Name: name, Done: make(chan struct{}),
			state: st, submitted: time.Now().Add(-age),
			trace: tr, traceID: tr.ID().String(),
		}
		if st == StateRunning {
			tr.End("queue-wait", nil)
			tr.Begin("solve")
			tr.SpanStart(telemetry.PhaseMinimize)
			j.started = time.Now().Add(-age / 2)
		}
		return j
	}
	older := mkJob("job-running", "r1", StateRunning, time.Minute)
	newer := mkJob("job-queued", "q1", StateQueued, time.Second)
	s.mu.Lock()
	s.jobs[older.ID] = older
	s.jobs[newer.ID] = newer
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.jobs, older.ID)
		delete(s.jobs, newer.ID)
		s.mu.Unlock()
	}()

	data, r := fetchBody(t, ts.URL+"/debug/jobs")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/debug/jobs: HTTP %d", r.StatusCode)
	}
	var dbg debugJobsResponse
	if err := json.Unmarshal(data, &dbg); err != nil {
		t.Fatalf("unparsable: %v\n%.300s", err, data)
	}
	if len(dbg.InFlight) != 2 {
		t.Fatalf("%d in-flight rows, want 2: %s", len(dbg.InFlight), data)
	}
	run, q := dbg.InFlight[0], dbg.InFlight[1]
	if run.ID != older.ID || q.ID != newer.ID {
		t.Fatalf("rows not oldest-first: %s then %s", run.ID, q.ID)
	}
	if run.Status != "running" || run.TraceID != older.traceID ||
		run.Phase != "minimize" || !strings.Contains(run.Spans, "solve(") ||
		run.Running == "" || run.QueueWait == "" {
		t.Fatalf("running row = %+v", run)
	}
	if q.Status != "queued" || q.Phase != "queue-wait" || q.QueueWait == "" {
		t.Fatalf("queued row = %+v", q)
	}
}

// TestTraceSurvivesRestart solves on a store-backed server, restarts it
// on the same directory, and demands the persisted span tree is still
// servable — with the original trace ID and its tier spans intact.
func TestTraceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	d := tableIDesign(t, "b14_1_opt", 100)
	want := telemetry.NewTraceID()

	diskA, jobs, st := openStore(t, dir)
	a := New(context.Background(), Config{Workers: 1, Timeout: time.Minute, Store: diskA})
	a.Restore(jobs, st)
	j, disp, err := a.Submit(d, fastOpts(), want)
	if err != nil || disp != Accepted {
		t.Fatalf("submit: %v, %v", disp, err)
	}
	<-j.Done
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Drain(dctx); err != nil {
		t.Fatal(err)
	}

	diskB, jobs, st := openStore(t, dir)
	b := New(context.Background(), Config{Workers: 1, Timeout: time.Minute, Store: diskB})
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = b.Drain(dctx)
	}()
	if sum := b.Restore(jobs, st); sum.Finished != 1 {
		t.Fatalf("restore summary: %+v", sum)
	}

	j2, ok := b.Job(j.ID)
	if !ok {
		t.Fatal("restored server lost the job")
	}
	raw := b.TraceJSON(j2)
	if len(raw) == 0 {
		t.Fatal("restored job has no trace document")
	}
	doc, err := telemetry.DecodeTraceDoc(raw)
	if err != nil {
		t.Fatal(err)
	}
	if doc.TraceID != want.String() {
		t.Fatalf("restored trace ID = %s, want %s", doc.TraceID, want)
	}
	if doc.Root.Find("solve") == nil {
		t.Fatalf("restored trace lost its solve span: %.300s", raw)
	}
	if v := b.View(j2); v.TraceID != want.String() {
		t.Fatalf("restored view trace ID = %q", v.TraceID)
	}
}

// TestWatchdogLogsSlowJob plants a long-running job and checks the
// watchdog logs its open-span stack exactly once.
func TestWatchdogLogsSlowJob(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	cfg := Config{
		Workers: 1,
		SlowJob: 20 * time.Millisecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	}
	s := New(context.Background(), cfg)
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(dctx)
	}()

	// Plant a running job old enough to trip the deadline, with a live
	// open-span stack — the shape a wedged solve leaves behind.
	tr := telemetry.NewTrace(telemetry.TraceID{})
	tr.Begin("solve")
	tr.SpanStart(telemetry.PhaseTierMinObsWin)
	j := &Job{
		ID:      "deadbeefdeadbeef",
		Name:    "wedged",
		Done:    make(chan struct{}),
		state:   StateRunning,
		started: time.Now().Add(-time.Minute),
		trace:   tr,
		traceID: tr.ID().String(),
	}
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.mu.Unlock()

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(lines)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watchdog never logged the slow job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	line := lines[0]
	mu.Unlock()
	for _, want := range []string{"slow job", "wedged", tr.ID().String(), "solve(", "tier:minobswin("} {
		if !strings.Contains(line, want) {
			t.Fatalf("watchdog line missing %q: %s", want, line)
		}
	}
	// One log per job: three more ticks must add nothing.
	time.Sleep(40 * time.Millisecond)
	mu.Lock()
	n := len(lines)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("watchdog logged %d times, want once: %v", n, lines)
	}
	// Unplant so Drain does not wait on the fake job.
	s.mu.Lock()
	delete(s.jobs, j.ID)
	s.mu.Unlock()
}
