package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"serretime"
	"serretime/internal/telemetry"
)

// pollInterval is the serve client's wait between job status polls.
const pollInterval = 2 * time.Millisecond

// workload is one benchmark workload inside its process.
type workload interface {
	// clients is the number of closed-loop clients.
	clients() int
	// setup boots the program and warms it up; the harness's setup_s
	// covers it.
	setup(ctx context.Context) error
	// op runs client c's next operation.
	op(ctx context.Context, c int) opRecord
	// trace switches per-layer recording on for later operations.
	trace()
	// layers turns the traced operations into per-layer metrics.
	layers(traced []opRecord) map[string]float64
	// close stops everything setup started.
	close(ctx context.Context) error
}

func newWorkload(in *input, dir string) (workload, error) {
	switch in.Workload {
	case "solve":
		return &solveWorkload{in: in}, nil
	case "serve":
		return &serveWorkload{in: in, dir: dir}, nil
	case "eco":
		return &ecoWorkload{in: in, dir: dir}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", in.Workload)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// solveOptions are the solve workload's options: the paper's MinObsWin on
// the closure engine with the default analysis (Frames=15, Words=4),
// single-threaded.
func solveOptions(rec telemetry.Recorder) serretime.RobustOptions {
	return serretime.RobustOptions{RetimeOptions: serretime.RetimeOptions{
		Algorithm: serretime.MinObsWin,
		Engine:    serretime.EngineClosure,
		Workers:   1,
		Recorder:  rec,
	}}
}

// solveNetlist is the solve workload's operation and the oracle's
// reference: parse pre-rendered bytes, run the degradation chain and
// render the result.
func solveNetlist(ctx context.Context, n netlist, opt serretime.RobustOptions) (*serretime.RobustResult, []byte, time.Duration, error) {
	t0 := time.Now()
	d, err := serretime.Parse(bytes.NewReader(n.Bench), n.Name+".bench")
	parse := time.Since(t0)
	if err != nil {
		return nil, nil, parse, err
	}
	res, err := d.RetimeRobust(ctx, opt)
	if err != nil {
		return nil, nil, parse, err
	}
	var buf bytes.Buffer
	if err := res.Retimed.WriteBench(&buf); err != nil {
		return nil, nil, parse, err
	}
	return res, buf.Bytes(), parse, nil
}

// solveWorkload: one in-process client solving the Table I substitutes
// round-robin in seeded order.
type solveWorkload struct {
	in   *input
	next int
	rec  *recorder
}

func (w *solveWorkload) clients() int { return 1 }

// setup warms up on the first Table I circuit, whatever the seed, so the
// set-up cost does not depend on the seeded order.
func (w *solveWorkload) setup(ctx context.Context) error {
	first := serretime.TableICircuits()[0]
	for _, n := range w.in.Netlists {
		if n.Name != first {
			continue
		}
		for i := 0; i < 2; i++ {
			if _, _, _, err := solveNetlist(ctx, n, solveOptions(nil)); err != nil {
				return fmt.Errorf("warm-up %s: %w", n.Name, err)
			}
		}
		return nil
	}
	return fmt.Errorf("warm-up circuit %s missing from the inputs", first)
}

func (w *solveWorkload) op(ctx context.Context, _ int) opRecord {
	i := w.next % len(w.in.Netlists)
	w.next++
	op := opRecord{Kind: "solve", Input: i}
	var rec telemetry.Recorder
	var steps0 int64
	if w.rec != nil {
		rec = w.rec
		steps0 = w.rec.counter(telemetry.CounterSteps)
	}
	t0 := time.Now()
	res, out, parse, err := solveNetlist(ctx, w.in.Netlists[i], solveOptions(rec))
	op.LatNS = int64(time.Since(t0))
	if err != nil {
		op.Err = err.Error()
		return op
	}
	op.Digest = digest(out)
	op.Degraded = res.Degraded
	if w.rec != nil {
		op.Extra = map[string]float64{
			"netlist.parse_ms": ms(parse),
			"steps":            float64(w.rec.counter(telemetry.CounterSteps) - steps0),
		}
	}
	return op
}

func (w *solveWorkload) trace() {
	w.rec = newRecorder(true)
	w.rec.on.Store(true)
}

func (w *solveWorkload) layers(traced []opRecord) map[string]float64 {
	m := solverLayers(w.rec, traced)
	m["netlist.parse_ms"] = meanExtra(traced, "netlist.parse_ms")
	return m
}

func (w *solveWorkload) close(context.Context) error { return nil }

// serveWorkload: two closed-loop HTTP clients submitting the Table I
// substitutes in seeded order, cycling so every submission misses the
// cache and evicts an older job.
type serveWorkload struct {
	in   *input
	dir  string
	next atomic.Int64
	d    *daemon
	rec  *recorder
	on   atomic.Bool
}

func (w *serveWorkload) clients() int { return 2 }

func (w *serveWorkload) setup(ctx context.Context) error {
	if w.in.Traced {
		w.rec = newRecorder(false)
	}
	d, err := startDaemon(w.dir, w.rec, w.in.Traced)
	if err != nil {
		return err
	}
	w.d = d
	// Warm-up: the first eight submissions of the cycle, two clients at a
	// time; the timed phase continues the cycle after them.
	for i := 0; i < 4; i++ {
		errs := make(chan string, 2)
		for c := 0; c < 2; c++ {
			go func(c int) { errs <- w.op(ctx, c).Err }(c)
		}
		for c := 0; c < 2; c++ {
			if e := <-errs; e != "" {
				return fmt.Errorf("warm-up: %s", e)
			}
		}
	}
	return nil
}

// submitMsg is the subset of the service's job views the client reads.
type submitMsg struct {
	ID          string `json:"id"`
	Status      string `json:"status"`
	Degraded    bool   `json:"degraded"`
	Disposition string `json:"disposition"`
	Error       string `json:"error"`
}

func (w *serveWorkload) op(ctx context.Context, _ int) opRecord {
	i := int((w.next.Add(1) - 1) % int64(len(w.in.Netlists)))
	n := w.in.Netlists[i]
	op := opRecord{Kind: "submit", Input: i}
	q := url.Values{"algorithm": {"minobswin"}, "name": {n.Name + ".bench"}}
	t0 := time.Now()
	var msg submitMsg
	if _, err := w.d.call(ctx, http.MethodPost, "/v1/retime?"+q.Encode(), "text/plain", n.Bench, http.StatusAccepted, &msg); err != nil {
		op.Err = err.Error()
		return op
	}
	if msg.Disposition != "accepted" {
		op.Err = fmt.Sprintf("submission %s was %s, not a cache miss", n.Name, msg.Disposition)
		return op
	}
	t1 := time.Now()
	polls := 0
	for msg.Status != "done" && msg.Status != "failed" {
		time.Sleep(pollInterval)
		polls++
		if _, err := w.d.call(ctx, http.MethodGet, "/v1/jobs/"+msg.ID, "", nil, http.StatusOK, &msg); err != nil {
			op.Err = err.Error()
			return op
		}
	}
	if msg.Status == "failed" {
		op.Err = "job failed: " + msg.Error
		return op
	}
	t2 := time.Now()
	out, err := w.d.call(ctx, http.MethodGet, "/v1/jobs/"+msg.ID+"/result", "", nil, http.StatusOK, nil)
	t3 := time.Now()
	op.LatNS = int64(t3.Sub(t0))
	if err != nil {
		op.Err = err.Error()
		return op
	}
	op.Digest = digest(out)
	op.Degraded = msg.Degraded
	if w.on.Load() {
		op.Extra = map[string]float64{
			"service.submit_ms": ms(t1.Sub(t0)),
			"service.wait_ms":   ms(t2.Sub(t1)),
			"service.result_ms": ms(t3.Sub(t2)),
			"service.polls":     float64(polls),
		}
		if err := w.readTrace(ctx, msg.ID, op.Extra); err != nil {
			op.Err = err.Error()
		}
	}
	return op
}

// readTrace folds a finished job's persisted span tree into per-job
// readings. Each job has its own tree, so these totals never pair spans
// across the two concurrent solves.
func (w *serveWorkload) readTrace(ctx context.Context, id string, extra map[string]float64) error {
	raw, err := w.d.call(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", "", nil, http.StatusOK, nil)
	if err != nil {
		return err
	}
	doc, err := telemetry.DecodeTraceDoc(raw)
	if err != nil {
		return fmt.Errorf("job %s trace: %w", id, err)
	}
	spans := 0
	doc.Root.Walk(func(_ int, sp *telemetry.Span) {
		spans++
		if key, ok := phaseKeys[sp.Name]; ok {
			extra[key] += float64(sp.DurNS) / 1e6
		}
		switch sp.Name {
		case "queue-wait":
			extra["service.queue_wait_ms"] += float64(sp.DurNS) / 1e6
		case "solve":
			extra["solve_ms"] += float64(sp.DurNS) / 1e6
		}
	})
	extra["telemetry.trace_spans"] = float64(spans)
	extra["telemetry.trace_kb"] = float64(len(raw)) / 1024
	return nil
}

func (w *serveWorkload) trace() {
	w.on.Store(true)
	w.rec.on.Store(true)
	w.d.ts.on.Store(true)
}

func (w *serveWorkload) layers(traced []opRecord) map[string]float64 {
	m := solverLayers(w.rec, traced)
	for _, key := range phaseKeys {
		m[key] = meanExtra(traced, key)
	}
	deriveUnattributed(m)
	// Two solves run at once, so steps are spread over all submissions.
	if n := float64(len(traced)); n > 0 {
		m["core.steps"] = float64(w.rec.counter(telemetry.CounterSteps)) / n
	}
	for _, key := range []string{
		"service.submit_ms", "service.wait_ms", "service.result_ms",
		"service.queue_wait_ms", "telemetry.trace_spans", "telemetry.trace_kb",
	} {
		m[key] = meanExtra(traced, key)
	}
	m["service.polls_per_job"] = meanExtra(traced, "service.polls")
	var over []float64
	for _, op := range traced {
		if op.Extra != nil {
			over = append(over, ms(time.Duration(op.LatNS))-op.Extra["solve_ms"])
		}
	}
	m["service.overhead_ms"] = mean(over)
	if n := float64(len(traced)); n > 0 {
		m["store.journal_ms"] = float64(w.d.ts.nanos.Load()) / 1e6 / n
		m["store.journal_calls"] = float64(w.d.ts.calls.Load()) / n
		m["store.payload_kb"] = float64(w.d.ts.bytes.Load()) / 1024 / n
	}
	return m
}

func (w *serveWorkload) close(ctx context.Context) error {
	if w.d == nil {
		return nil
	}
	return w.d.stop(ctx)
}

// ecoWorkload: one client over the session API. It opens a session on
// the base netlist, applies one delta cycle, closes the session and
// reopens it from the base, so the per-operation cost does not depend on
// how far the run got.
type ecoWorkload struct {
	in      *input
	dir     string
	d       *daemon
	rec     *recorder
	session string
	pos     int // 0..ecoCycle-1 delta, ecoCycle close, ecoCycle+1 open
	cycle   int
}

func (w *ecoWorkload) clients() int { return 1 }

func ecoQuery() string {
	q := url.Values{
		"algorithm": {"minobswin"},
		"frames":    {strconv.Itoa(ecoFrames)},
		"words":     {strconv.Itoa(ecoWords)},
		"name":      {ecoName()},
	}
	return "?" + q.Encode()
}

// ecoOptions are the library options equivalent to ecoQuery, for the
// oracle's cold solves.
func ecoOptions() serretime.RobustOptions {
	return serretime.RobustOptions{RetimeOptions: serretime.RetimeOptions{
		Algorithm: serretime.MinObsWin,
		Engine:    serretime.EngineClosure,
		Analysis:  serretime.AnalysisOptions{Frames: ecoFrames, SignatureWords: ecoWords},
		Workers:   1,
	}}
}

func (w *ecoWorkload) setup(ctx context.Context) error {
	if w.in.Traced {
		w.rec = newRecorder(true)
	}
	d, err := startDaemon(w.dir, w.rec, false)
	if err != nil {
		return err
	}
	w.d = d
	// Warm-up: open, two deltas, close, reopen; the timed phase starts a
	// fresh cycle on the reopened session.
	w.pos = ecoCycle + 1
	for _, want := range []string{"open", "delta", "delta"} {
		if op := w.op(ctx, 0); op.Err != "" || op.Kind != want {
			return fmt.Errorf("warm-up %s: %s", op.Kind, op.Err)
		}
	}
	w.pos = ecoCycle
	for _, want := range []string{"close", "open"} {
		if op := w.op(ctx, 0); op.Err != "" || op.Kind != want {
			return fmt.Errorf("warm-up %s: %s", op.Kind, op.Err)
		}
	}
	w.cycle = 0
	return nil
}

// sessionMsg is the subset of the session open and delta replies the
// client reads. "warm" is a per-session counter on the open reply but a
// per-delta flag on the delta reply, so it is decoded separately.
type sessionMsg struct {
	ID           string  `json:"id"`
	Degraded     bool    `json:"degraded"`
	SolveMS      float64 `json:"solve_ms"`
	ResultSHA256 string  `json:"result_sha256"`
}

type deltaMsg struct {
	sessionMsg
	Warm bool `json:"warm"`
}

func (w *ecoWorkload) op(ctx context.Context, _ int) opRecord {
	var steps0 int64
	traced := w.rec != nil && w.rec.on.Load()
	if traced {
		steps0 = w.rec.counter(telemetry.CounterSteps)
	}
	var op opRecord
	var msg deltaMsg
	var err error
	t0 := time.Now()
	switch {
	case w.pos < ecoCycle:
		op = opRecord{Kind: "delta", Input: w.pos, Cycle: w.cycle}
		var body []byte
		if body, err = json.Marshal(struct {
			Ops []serretime.DeltaOp `json:"ops"`
		}{w.in.Deltas[w.pos]}); err == nil {
			_, err = w.d.call(ctx, http.MethodPost, "/v1/sessions/"+w.session+"/delta", "application/json", body, http.StatusOK, &msg)
		}
	case w.pos == ecoCycle:
		op = opRecord{Kind: "close", Cycle: w.cycle}
		_, err = w.d.call(ctx, http.MethodDelete, "/v1/sessions/"+w.session, "", nil, http.StatusNoContent, nil)
	default:
		w.cycle++
		op = opRecord{Kind: "open", Cycle: w.cycle}
		_, err = w.d.call(ctx, http.MethodPost, "/v1/sessions"+ecoQuery(), "text/plain", w.in.Netlists[0].Bench, http.StatusCreated, &msg.sessionMsg)
		w.session = msg.ID
	}
	lat := time.Since(t0)
	op.LatNS = int64(lat)
	w.pos = (w.pos + 1) % (ecoCycle + 2)
	if err != nil {
		op.Err = err.Error()
		return op
	}
	op.Digest = msg.ResultSHA256
	op.Degraded = msg.Degraded
	if traced {
		op.Extra = map[string]float64{"steps": float64(w.rec.counter(telemetry.CounterSteps) - steps0)}
		switch op.Kind {
		case "delta":
			op.Extra["session.solve_ms"] = msg.SolveMS
			op.Extra["session.http_ms"] = ms(lat) - msg.SolveMS
			op.Extra["session.warm"] = 0
			if msg.Warm {
				op.Extra["session.warm"] = 1
			}
		case "open":
			op.Extra["session.open_ms"] = ms(lat)
		}
	}
	return op
}

func (w *ecoWorkload) trace() { w.rec.on.Store(true) }

func (w *ecoWorkload) layers(traced []opRecord) map[string]float64 {
	m := solverLayers(w.rec, traced)
	m["session.solve_ms"] = meanExtra(traced, "session.solve_ms")
	m["session.http_ms"] = meanExtra(traced, "session.http_ms")
	m["session.open_ms"] = meanExtra(traced, "session.open_ms")
	m["session.warm_frac"] = meanExtra(traced, "session.warm")
	return m
}

func (w *ecoWorkload) close(ctx context.Context) error {
	if w.d == nil {
		return nil
	}
	return w.d.stop(ctx)
}
