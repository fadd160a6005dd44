package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"serretime"
	"serretime/internal/guard"
	"serretime/internal/telemetry"
)

// fastOpts keeps service tests quick: the queue/cache/drain contracts
// under test do not depend on analysis fidelity.
func fastOpts() serretime.RobustOptions {
	return serretime.RobustOptions{
		RetimeOptions: serretime.RetimeOptions{
			Algorithm: serretime.MinObsWin,
			Analysis:  serretime.AnalysisOptions{Frames: 2, SignatureWords: 1},
		},
	}
}

func tableIDesign(t *testing.T, name string, scale int) *serretime.Design {
	t.Helper()
	d, err := serretime.NewTableIDesign(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func benchBytes(t *testing.T, d *serretime.Design) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteBench(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(context.Background(), cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Drain(dctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return svc, ts
}

func postNetlist(t *testing.T, url string, body []byte) (submitResponse, int) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var msg submitResponse
	if err := json.Unmarshal(data, &msg); err != nil {
		t.Fatalf("bad submit response (HTTP %d): %.300s", resp.StatusCode, data)
	}
	return msg, resp.StatusCode
}

func pollDone(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("bad status response (HTTP %d): %.300s", resp.StatusCode, data)
		}
		if v.Status == StateDone.String() || v.Status == StateFailed.String() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q at deadline", id, v.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func fetchBody(t *testing.T, url string) ([]byte, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data, resp
}

// TestServiceEndToEnd drives the whole pipeline over HTTP: submit a
// Table I synthetic circuit, poll it to completion, download the
// retimed netlist, re-parse it, and cross-check determinism against an
// identical in-process solve. The submission carries verify=true, so
// the solve itself co-simulates the retiming against the input
// (verify.ForwardEquivalent under the hood) and would have failed the
// job on any equivalence break. A resubmission of the same bytes must
// answer from the content-addressed cache with HTTP 200.
func TestServiceEndToEnd(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2, Timeout: time.Minute})
	d := tableIDesign(t, "b14_1_opt", 100)
	body := benchBytes(t, d)

	url := ts.URL + "/v1/retime?name=b14.bench&algorithm=minobswin&frames=2&words=1&verify=true"
	msg, code := postNetlist(t, url, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: want 202, got %d (%+v)", code, msg)
	}
	if msg.Disposition != Accepted.String() {
		t.Fatalf("submit disposition: want accepted, got %q", msg.Disposition)
	}
	// The uploaded canonical netlist carries its design name in the
	// leading comment, which overrides the filename-derived fallback —
	// the same rule that lets the recovery path round-trip names the
	// filename cannot carry.
	if msg.ID == "" || msg.Name != d.Name() {
		t.Fatalf("submit view: %+v", msg.JobView)
	}

	v := pollDone(t, ts.URL, msg.ID)
	if v.Status != StateDone.String() {
		t.Fatalf("job failed: %s (%s)", v.Error, v.ErrorClass)
	}
	if v.Tier == "" {
		t.Error("finished job reports no tier")
	}

	res, resp := fetchBody(t, ts.URL+"/v1/jobs/"+msg.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d: %.200s", resp.StatusCode, res)
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, "_retimed.bench") {
		t.Errorf("result Content-Disposition: %q", cd)
	}
	rd, err := serretime.Parse(bytes.NewReader(res), "retimed.bench")
	if err != nil {
		t.Fatalf("downloaded result does not re-parse: %v", err)
	}
	if rd.Name() == "" {
		t.Error("re-parsed result has no name")
	}

	// Determinism cross-check: an in-process solve of a fresh parse of
	// the same bytes, under the same effective options the server
	// applies, must serialize byte-identically to the download.
	local, err := serretime.Parse(bytes.NewReader(body), "b14.bench")
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOpts()
	opt.Verify = true
	opt.Workers = 1
	opt.Timeout = time.Minute
	lres, err := local.RetimeRobust(context.Background(), opt)
	if err != nil {
		t.Fatalf("local solve: %v", err)
	}
	lbytes := benchBytes(t, lres.Retimed)
	if !bytes.Equal(lbytes, res) {
		t.Error("service result differs from identical in-process solve")
	}

	// Resubmission: same bytes, same options → content-addressed cache
	// hit, answered terminally with 200.
	msg2, code2 := postNetlist(t, url, body)
	if code2 != http.StatusOK {
		t.Fatalf("resubmit: want 200, got %d (%+v)", code2, msg2)
	}
	if msg2.Disposition != Cached.String() {
		t.Fatalf("resubmit disposition: want cached, got %q", msg2.Disposition)
	}
	if msg2.ID != msg.ID {
		t.Error("resubmission produced a different job ID")
	}
	if msg2.Hits < 1 {
		t.Errorf("cached job reports %d hits", msg2.Hits)
	}

	// A cosmetically different netlist (extra comment) must hash to the
	// same content address: the key covers the *normalized* circuit.
	commented := append([]byte("# a comment\n"), body...)
	msg3, code3 := postNetlist(t, url, commented)
	if code3 != http.StatusOK || msg3.Disposition != Cached.String() {
		t.Errorf("commented resubmit: want cached/200, got %q/%d", msg3.Disposition, code3)
	}

	// The metrics endpoint must reflect the hits.
	metrics, mresp := fetchBody(t, ts.URL+"/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", mresp.StatusCode)
	}
	for _, want := range []string{
		"serretimed_jobs_accepted_total 1",
		"serretimed_cache_hits_total 2",
		"serretimed_jobs_completed_total 1",
		"serretimed_solve_seconds_count 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(string(metrics), "serretimed_cache_hit_ratio 0.000000") {
		t.Error("cache hit ratio still zero after two hits")
	}

	// Healthz while live.
	hz, hresp := fetchBody(t, ts.URL+"/healthz")
	if hresp.StatusCode != http.StatusOK || !strings.Contains(string(hz), `"status": "ok"`) {
		t.Errorf("healthz: HTTP %d %.200s", hresp.StatusCode, hz)
	}
	_ = svc
}

// TestServiceConcurrentSubmissions hammers the server with a burst of
// identical-and-distinct submissions from many goroutines (run under
// -race): every submission must resolve to accepted, coalesced or
// cached — never dropped — all results of one payload must be
// byte-identical, and exactly one fresh job per distinct payload may
// be solved.
func TestServiceConcurrentSubmissions(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64, Timeout: time.Minute})
	payloads := [][]byte{
		benchBytes(t, tableIDesign(t, "b14_1_opt", 100)),
		benchBytes(t, tableIDesign(t, "s35932", 1000000)),
		benchBytes(t, tableIDesign(t, "s38417", 2000)),
	}
	url := ts.URL + "/v1/retime?frames=2&words=1"

	const burst = 24
	results := make([][]byte, burst)
	errs := make([]error, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := payloads[i%len(payloads)]
			resp, err := http.Post(url, "text/plain", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, data)
				return
			}
			var msg submitResponse
			if err := json.Unmarshal(data, &msg); err != nil {
				errs[i] = err
				return
			}
			j, ok := svc.Job(msg.ID)
			if !ok {
				errs[i] = fmt.Errorf("job %s not retained", msg.ID)
				return
			}
			select {
			case <-j.Done:
			case <-time.After(2 * time.Minute):
				errs[i] = fmt.Errorf("job %s not finished in time", msg.ID)
				return
			}
			results[i], errs[i] = svc.Result(j)
		}(i)
	}
	wg.Wait()

	ref := make([][]byte, len(payloads))
	for i := 0; i < burst; i++ {
		if errs[i] != nil {
			t.Fatalf("submission %d: %v", i, errs[i])
		}
		p := i % len(payloads)
		if ref[p] == nil {
			ref[p] = results[i]
		} else if !bytes.Equal(ref[p], results[i]) {
			t.Errorf("submission %d: nondeterministic result for payload %d", i, p)
		}
	}

	svc.mu.Lock()
	accepted, coalesced, hits, rejected := svc.accepted, svc.coalesced, svc.cacheHits, svc.rejected
	svc.mu.Unlock()
	if accepted != int64(len(payloads)) {
		t.Errorf("want %d fresh jobs, got %d (coalesced %d, cached %d)",
			len(payloads), accepted, coalesced, hits)
	}
	if rejected != 0 {
		t.Errorf("burst below the queue bound was rejected %d times", rejected)
	}
	if accepted+coalesced+hits != burst {
		t.Errorf("dispositions do not add up: %d+%d+%d != %d", accepted, coalesced, hits, burst)
	}
}

// TestServiceQueueFull exercises backpressure without workers: a
// Server whose queue is full must refuse fresh submissions with
// ErrQueueFull, and the HTTP layer must turn that into 429 with a
// Retry-After hint. Identical submissions still coalesce — the bound
// applies to fresh work, not to deduplicated work.
func TestServiceQueueFull(t *testing.T) {
	cfg := Config{QueueDepth: 1}.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := &Server{
		cfg:     cfg,
		queue:   make(chan *Job, cfg.QueueDepth),
		baseCtx: ctx,
		cancel:  cancel,
		start:   time.Now(),
		jobs:    make(map[string]*Job),
		byClass: make(map[string]int64),
	}
	// No workers: the queue can only fill.
	d1 := tableIDesign(t, "s35932", 1000000)
	d2 := tableIDesign(t, "b14_1_opt", 1000000)

	if _, disp, err := s.Submit(d1, fastOpts(), telemetry.TraceID{}); err != nil || disp != Accepted {
		t.Fatalf("first submit: disp %v err %v", disp, err)
	}
	if _, _, err := s.Submit(d2, fastOpts(), telemetry.TraceID{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second submit on a full queue: want ErrQueueFull, got %v", err)
	}
	// An identical submission coalesces even when the queue is full.
	if _, disp, err := s.Submit(d1, fastOpts(), telemetry.TraceID{}); err != nil || disp != Coalesced {
		t.Fatalf("identical submit on a full queue: disp %v err %v", disp, err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := benchBytes(t, d2)
	resp, err := http.Post(ts.URL+"/v1/retime?frames=2&words=1", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue over HTTP: want 429, got %d: %.200s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After hint")
	}
}

// TestServiceDrain checks shutdown semantics: once Drain begins, new
// submissions fail with ErrDraining, still-queued jobs are failed with
// an error that unwraps to ErrDraining, and the worker pool exits
// (Drain returning nil is the wg.Wait proof).
func TestServiceDrain(t *testing.T) {
	cfg := Config{QueueDepth: 4}.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		queue:   make(chan *Job, cfg.QueueDepth),
		baseCtx: ctx,
		cancel:  cancel,
		start:   time.Now(),
		jobs:    make(map[string]*Job),
		byClass: make(map[string]int64),
	}
	// No workers: submitted jobs stay queued until the drain fails them.
	j1, _, err := s.Submit(tableIDesign(t, "s35932", 1000000), fastOpts(), telemetry.TraceID{})
	if err != nil {
		t.Fatal(err)
	}
	j2, _, err := s.Submit(tableIDesign(t, "b14_1_opt", 1000000), fastOpts(), telemetry.TraceID{})
	if err != nil {
		t.Fatal(err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !s.Draining() {
		t.Error("Draining() false after Drain")
	}
	for _, j := range []*Job{j1, j2} {
		select {
		case <-j.Done:
		default:
			t.Fatalf("queued job %s not failed by drain", j.ID)
		}
		if _, err := s.Result(j); !errors.Is(err, ErrDraining) {
			t.Errorf("drained job error: want ErrDraining, got %v", err)
		}
	}
	if _, _, err := s.Submit(tableIDesign(t, "s13207", 1000000), fastOpts(), telemetry.TraceID{}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain: want ErrDraining, got %v", err)
	}
}

// TestJobKeyCanonicalization pins the cache-key contract: zero-valued
// options hash identically to spelled-out defaults, result-invariant
// fields (Workers, Verify, Recorder) do not fragment the key, and any
// result-relevant change does.
func TestJobKeyCanonicalization(t *testing.T) {
	d := tableIDesign(t, "s35932", 1000000)
	base := fastOpts()
	k0, _, err := jobKey(d, base)
	if err != nil {
		t.Fatal(err)
	}

	spelled := base
	spelled.Epsilon = 0.10
	spelled.Timeout = 0
	if k, _, _ := jobKey(d, spelled); k != k0 {
		t.Error("spelled-out defaults changed the job key")
	}
	invariant := base
	invariant.Workers = 8
	invariant.Verify = true
	if k, _, _ := jobKey(d, invariant); k != k0 {
		t.Error("result-invariant options (Workers, Verify) changed the job key")
	}
	relevant := base
	relevant.Epsilon = 0.25
	if k, _, _ := jobKey(d, relevant); k == k0 {
		t.Error("changing epsilon did not change the job key")
	}
	frames := base
	frames.Analysis.Frames = 4
	if k, _, _ := jobKey(d, frames); k == k0 {
		t.Error("changing frames did not change the job key")
	}

	other := tableIDesign(t, "b14_1_opt", 1000000)
	if k, _, _ := jobKey(other, base); k == k0 {
		t.Error("different circuits share a job key")
	}
}

// TestOptionsFromQueryRejectsGarbage drives hostile query strings
// through the option parser: every bad value must fail with an error
// unwrapping to guard.ErrParse (HTTP 400), and neither a non-finite
// float nor a negative epsilon may get through to the solver.
func TestOptionsFromQueryRejectsGarbage(t *testing.T) {
	bad := []string{
		"algorithm=quantum",
		"engine=warp",
		"epsilon=NaN",
		"epsilon=+Inf",
		"epsilon=-Inf",
		"epsilon=banana",
		"epsilon=-0.5",
		"frames=-1",
		"words=zero",
		"seed=1.5",
		"timeout=-3s",
		"timeout=fortnight",
		"verify=perhaps",
		"accuracy=banana",
		// Unknown parameter names must 400, not silently no-op: the typo
		// acuracy=fast would otherwise run the expensive exact path the
		// caller was explicitly routing around. retries is no longer an
		// option: the solver is deterministic, so a retry cannot succeed
		// where the first attempt failed.
		"acuracy=fast",
		"retries=1",
		"retries=-2",
		"frames=3&wrods=2",
		"zzz=1&aaa=2",
	}
	for _, qs := range bad {
		r := httptest.NewRequest("POST", "/v1/retime?"+qs, nil)
		if _, err := optionsFromQuery(r); !errors.Is(err, guard.ErrParse) {
			t.Errorf("%s: want guard.ErrParse, got %v", qs, err)
		}
	}
	r := httptest.NewRequest("POST", "/v1/retime?epsilon=0.2&frames=3&words=2&seed=-7&verify=true&timeout=30s&accuracy=fast&name=c.bench", nil)
	opt, err := optionsFromQuery(r)
	if err != nil {
		t.Fatalf("good query rejected: %v", err)
	}
	if opt.Epsilon != 0.2 || opt.Analysis.Frames != 3 || opt.Analysis.SignatureWords != 2 ||
		opt.Analysis.Seed != -7 || !opt.Verify || opt.Timeout != 30*time.Second ||
		opt.Analysis.Accuracy != serretime.AccuracyFast {
		t.Errorf("good query mis-parsed: %+v", opt)
	}
	if opt, err := optionsFromQuery(httptest.NewRequest("POST", "/v1/retime?accuracy=exact", nil)); err != nil || opt.Analysis.Accuracy != serretime.AccuracyExact {
		t.Errorf("accuracy=exact mis-parsed: %+v, %v", opt, err)
	}
}

// TestJobKeySplitsOnAccuracy pins that fast and exact submissions of the
// same netlist never coalesce onto one cached job.
func TestJobKeySplitsOnAccuracy(t *testing.T) {
	d := tableIDesign(t, "s35932", 1000000)
	base := fastOpts()
	k0, _, err := jobKey(d, base)
	if err != nil {
		t.Fatal(err)
	}
	fast := base
	fast.Analysis.Accuracy = serretime.AccuracyFast
	if k, _, _ := jobKey(d, fast); k == k0 {
		t.Error("accuracy=fast did not change the job key")
	}
}
