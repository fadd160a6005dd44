package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"serretime"
	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
	"serretime/internal/eco"
	"serretime/internal/telemetry"
)

func openSessionHTTP(t *testing.T, base string, body []byte, query string) (openSessionResponse, int) {
	t.Helper()
	resp, err := http.Post(base+"/v1/sessions"+query, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var msg openSessionResponse
	if err := json.Unmarshal(data, &msg); err != nil {
		t.Fatalf("bad session response (HTTP %d): %.300s", resp.StatusCode, data)
	}
	return msg, resp.StatusCode
}

func postDelta(t *testing.T, base, id string, ops []serretime.DeltaOp) (deltaResponse, int) {
	t.Helper()
	body, err := json.Marshal(deltaRequest{Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sessions/"+id+"/delta", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var msg deltaResponse
	if err := json.Unmarshal(data, &msg); err != nil {
		t.Fatalf("bad delta response (HTTP %d): %.300s", resp.StatusCode, data)
	}
	return msg, resp.StatusCode
}

// solverSteps reads the folded optimizer-step total from /metrics (0
// when the family has no steps line yet).
func solverSteps(t *testing.T, base string) int64 {
	t.Helper()
	body, _ := fetchBody(t, base+"/metrics")
	const key = `serretimed_solver_events_total{counter="steps"} `
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, key); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("bad steps line %q", line)
			}
			return n
		}
	}
	return 0
}

// TestSessionEndToEnd is the session contract over HTTP: open a
// session, stream generated ECO deltas into it, and cross-check every
// response against the oracle — a cold in-process solve of the client's
// own mirror of the mutated netlist. Result bytes must match exactly.
func TestSessionEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Timeout: time.Minute})
	d := tableIDesign(t, "b14_1_opt", 100)
	body := benchBytes(t, d)
	query := "?frames=2&words=1"

	msg, code := openSessionHTTP(t, ts.URL, body, query)
	if code != http.StatusCreated {
		t.Fatalf("open: want 201, got %d (%+v)", code, msg)
	}
	if msg.ID == "" || msg.Disposition != "opened" || msg.ResultSHA256 == "" {
		t.Fatalf("open response: %+v", msg)
	}
	// Session solves reach the /metrics solver section through their
	// folded traces.
	steps := solverSteps(t, ts.URL)
	if steps == 0 {
		t.Error("session open did not reach the solver step total")
	}

	// The session solves the same parse the oracle does: both sides start
	// from the canonical bytes the client uploaded.
	mirror, err := benchfmt.Parse(bytes.NewReader(body), "b14.bench")
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOpts()
	opt.Workers = 1
	opt.Timeout = time.Minute
	g := eco.NewGen(mirror, 7)
	for i := 0; i < 6; i++ {
		ops, err := g.Next()
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		dmsg, dcode := postDelta(t, ts.URL, msg.ID, ops)
		if dcode != http.StatusOK {
			t.Fatalf("delta %d: HTTP %d (%+v)", i, dcode, dmsg)
		}
		if dmsg.Seq != int64(i+1) {
			t.Errorf("delta %d: seq %d", i, dmsg.Seq)
		}
		if got := solverSteps(t, ts.URL); got <= steps {
			t.Errorf("delta %d: solver step total %d did not rise above %d", i, got, steps)
		} else {
			steps = got
		}

		// Oracle: cold full solve of the mutated netlist, bit-for-bit.
		mb, err := g.Bench()
		if err != nil {
			t.Fatal(err)
		}
		cd, err := serretime.Parse(bytes.NewReader(mb), "oracle.bench")
		if err != nil {
			t.Fatal(err)
		}
		cres, err := cd.RetimeRobust(context.Background(), opt)
		if err != nil {
			t.Fatalf("delta %d: oracle solve: %v", i, err)
		}
		want := benchBytes(t, cres.Retimed)
		got, resp := fetchBody(t, ts.URL+"/v1/sessions/"+msg.ID+"/result")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta %d: result: HTTP %d", i, resp.StatusCode)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("delta %d: session result differs from cold oracle solve", i)
		}
	}

	// Session status and observability surfaces.
	sb, resp := fetchBody(t, ts.URL+"/v1/sessions/"+msg.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session get: HTTP %d", resp.StatusCode)
	}
	var sv SessionView
	if err := json.Unmarshal(sb, &sv); err != nil || sv.Deltas != 6 {
		t.Fatalf("session view: %.200s (%v)", sb, err)
	}
	mb, _ := fetchBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"serretimed_sessions_open 1",
		"serretimed_sessions_opened_total 1",
		"serretimed_session_deltas_total 6",
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	db, _ := fetchBody(t, ts.URL+"/debug/jobs")
	if !strings.Contains(string(db), `"sessions"`) || !strings.Contains(string(db), msg.ID) {
		t.Errorf("/debug/jobs does not list the session: %.400s", db)
	}

	// Close: DELETE, then the ID answers 410 — existed, gone.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+msg.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("close: HTTP %d", dresp.StatusCode)
	}
	if _, resp := fetchBody(t, ts.URL+"/v1/sessions/"+msg.ID); resp.StatusCode != http.StatusGone {
		t.Errorf("closed session: want 410, got %d", resp.StatusCode)
	}
}

// TestSessionGoneSemantics pins the 404-vs-410 split: garbage IDs are
// 404, IDs from a previous boot (wrong nonce) and evicted/closed IDs of
// this boot are 410.
func TestSessionGoneSemantics(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, Timeout: time.Minute})

	if _, resp := fetchBody(t, ts.URL+"/v1/sessions/garbage"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("garbage id: want 404, got %d", resp.StatusCode)
	}
	// A well-formed ID from "another boot": wrong nonce.
	if _, resp := fetchBody(t, ts.URL+"/v1/sessions/deadbeef0000.1"); resp.StatusCode != http.StatusGone {
		t.Errorf("previous-boot id: want 410, got %d", resp.StatusCode)
	}
	// Right nonce, never-minted sequence number: 404, not 410.
	if _, resp := fetchBody(t, ts.URL+"/v1/sessions/"+svc.sessNonce+".99"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("future seq: want 404, got %d", resp.StatusCode)
	}
}

// TestSessionEvictionLRUAndTTL drives the table bounds: at MaxSessions
// the oldest idle session is evicted for a new one (410 afterwards),
// and sessions idle past SessionTTL expire lazily.
func TestSessionEvictionLRUAndTTL(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1, Timeout: time.Minute,
		MaxSessions: 2, SessionTTL: 150 * time.Millisecond,
	})
	body := benchBytes(t, tableIDesign(t, "b14_1_opt", 100))

	open := func() string {
		t.Helper()
		msg, code := openSessionHTTP(t, ts.URL, body, "?frames=2&words=1")
		if code != http.StatusCreated {
			t.Fatalf("open: HTTP %d (%+v)", code, msg)
		}
		return msg.ID
	}
	s1 := open()
	s2 := open()
	// Touch s1 so s2 becomes the LRU victim.
	if _, resp := fetchBody(t, ts.URL+"/v1/sessions/"+s1); resp.StatusCode != http.StatusOK {
		t.Fatalf("touch s1: HTTP %d", resp.StatusCode)
	}
	s3 := open()
	if _, resp := fetchBody(t, ts.URL+"/v1/sessions/"+s2); resp.StatusCode != http.StatusGone {
		t.Errorf("LRU victim: want 410, got %d", resp.StatusCode)
	}
	for _, id := range []string{s1, s3} {
		if _, resp := fetchBody(t, ts.URL+"/v1/sessions/"+id); resp.StatusCode != http.StatusOK {
			t.Errorf("survivor %s: HTTP %d", id, resp.StatusCode)
		}
	}

	// TTL: idle past the deadline, then any table access sweeps.
	time.Sleep(300 * time.Millisecond)
	if _, resp := fetchBody(t, ts.URL+"/v1/sessions/"+s1); resp.StatusCode != http.StatusGone {
		t.Errorf("expired session: want 410, got %d", resp.StatusCode)
	}
	mb, _ := fetchBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`serretimed_sessions_evicted_total{reason="lru"} 1`,
		`serretimed_sessions_evicted_total{reason="ttl"}`,
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSessionDeltaValidation: malformed bodies and every delta that
// ApplyDeltaOps rejects are client errors (400); a failed delta leaves
// the session answering for its previous netlist and does not count as
// an applied delta.
func TestSessionDeltaValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Timeout: time.Minute})
	body := benchBytes(t, tableIDesign(t, "b14_1_opt", 100))
	msg, code := openSessionHTTP(t, ts.URL, body, "?frames=2&words=1")
	if code != http.StatusCreated {
		t.Fatalf("open: HTTP %d", code)
	}
	before, _ := fetchBody(t, ts.URL+"/v1/sessions/"+msg.ID+"/result")

	resp, err := http.Post(ts.URL+"/v1/sessions/"+msg.ID+"/delta", "application/json", strings.NewReader("{broken"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("broken body: want 400, got %d", resp.StatusCode)
	}

	// Net names for the bad ops: a primary input, a flip-flop, a gate read
	// by another gate, and that reader, which closes a cycle when the gate
	// reads it.
	c, err := benchfmt.Parse(bytes.NewReader(body), "b14_1_opt")
	if err != nil {
		t.Fatal(err)
	}
	name := func(id circuit.NodeID) string { return c.Node(id).Name }
	pi, ff := name(c.PIs()[0]), name(c.NodesOfKind(circuit.KindDFF)[0])
	var gate, reader *circuit.Node
search:
	for _, id := range c.NodesOfKind(circuit.KindGate) {
		for _, r := range c.Node(id).Fanout {
			if c.Node(r).Kind == circuit.KindGate && len(c.Node(id).Fanin) > 0 {
				gate, reader = c.Node(id), c.Node(r)
				break search
			}
		}
	}
	if gate == nil {
		t.Fatal("no gate read by another gate")
	}
	cyclic := make([]string, len(gate.Fanin))
	for i, f := range gate.Fanin {
		cyclic[i] = name(f)
	}
	cyclic[0] = reader.Name
	type op = serretime.DeltaOp
	for _, tc := range []struct {
		name string
		ops  []op
	}{
		{"unknown-net", []op{{Op: "rm_node", Name: "no_such_net"}}},
		{"rewire-arity", []op{{Op: "rewire", Name: gate.Name, Fanin: []string{}}}},
		{"add-gate-arity", []op{{Op: "add_gate", Name: "eco_bad", Fn: "NOT", Fanin: []string{pi, pi}}}},
		{"rewire-pi", []op{{Op: "rewire", Name: pi, Fanin: []string{gate.Name}}}},
		{"rm-read", []op{{Op: "rm_node", Name: gate.Name}}},
		{"rm-unread-po", []op{
			{Op: "add_gate", Name: "eco_bad", Fn: "AND", Fanin: []string{pi, gate.Name}},
			{Op: "mark_po", Name: "eco_bad"},
			{Op: "rm_node", Name: "eco_bad"},
		}},
		{"duplicate-name", []op{{Op: "add_gate", Name: reader.Name, Fn: "AND", Fanin: []string{pi, pi}}}},
		{"cycle", []op{{Op: "rewire", Name: gate.Name, Fanin: cyclic}}},
		{"register-loop", []op{{Op: "rewire", Name: ff, Fanin: []string{ff}}}},
	} {
		if dmsg, dcode := postDelta(t, ts.URL, msg.ID, tc.ops); dcode != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d (%+v)", tc.name, dcode, dmsg)
		}
	}
	after, resp2 := fetchBody(t, ts.URL+"/v1/sessions/"+msg.ID+"/result")
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(before, after) {
		t.Errorf("failed delta changed the committed result (HTTP %d)", resp2.StatusCode)
	}
	sb, _ := fetchBody(t, ts.URL+"/v1/sessions/"+msg.ID)
	var sv SessionView
	if err := json.Unmarshal(sb, &sv); err != nil || sv.Deltas != 0 {
		t.Errorf("rejected deltas counted as applied: %.200s (%v)", sb, err)
	}
	mb, _ := fetchBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(mb), "serretimed_session_deltas_total 0") {
		t.Error("rejected delta reached serretimed_session_deltas_total")
	}
}

// TestResultRetryAfterHonorsConfig is the regression test for the
// hardcoded hint: a not-yet-finished job's result poll must advertise
// the *configured* Retry-After, the same value 429 responses use.
func TestResultRetryAfterHonorsConfig(t *testing.T) {
	cfg := Config{QueueDepth: 4, RetryAfter: 7 * time.Second}.withDefaults()
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
	s.initSessions()
	// No workers: the job stays queued, so the result poll must defer.
	j, _, err := s.Submit(tableIDesign(t, "s13207", 100), fastOpts(), telemetry.TraceID{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, resp := fetchBody(t, ts.URL+"/v1/jobs/"+j.ID+"/result")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("queued result: want 409, got %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want %q (the configured hint)", ra, "7")
	}
}

// TestSessionBackpressure: a manually built server with a zero-capacity
// solve-slot pool must refuse session work with 429 + Retry-After
// instead of queueing it behind the batch workers.
func TestSessionBackpressure(t *testing.T) {
	cfg := Config{RetryAfter: 3 * time.Second}.withDefaults()
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
	s.initSessions()
	s.sessSolve = make(chan struct{}) // zero slots: always busy
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := benchBytes(t, tableIDesign(t, "s13207", 100))
	resp, err := http.Post(ts.URL+"/v1/sessions?frames=2&words=1", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("no solve slots: want 429, got %d: %.200s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want %q", ra, "3")
	}
}
