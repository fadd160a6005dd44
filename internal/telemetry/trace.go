package telemetry

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"
)

// TraceID identifies one traced job end to end: minted at HTTP ingress
// (or accepted from a client's Traceparent header), threaded through the
// queue, the degradation chain and the parallel pools, persisted next to
// the job's result, and carried as the exemplar on /metrics histogram
// buckets. The zero value means "no trace".
type TraceID [16]byte

// IsZero reports whether the ID is unset. The all-zero ID is invalid by
// construction (as in W3C trace context), so zero unambiguously means
// "mint one".
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// NewTraceID mints a random, non-zero trace ID.
func NewTraceID() TraceID {
	var id TraceID
	if _, err := rand.Read(id[:]); err != nil || id.IsZero() {
		// Entropy exhaustion is not worth failing a trace over: fall
		// back to a timestamp-derived ID.
		binary.BigEndian.PutUint64(id[:8], uint64(time.Now().UnixNano()))
		id[15] = 1
	}
	return id
}

// ParseTraceID parses 32 hex digits; the all-zero ID is rejected.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil || id.IsZero() {
		return TraceID{}, false
	}
	return id, true
}

// ParseTraceparent extracts the trace ID from a W3C Traceparent header
// ("00-<32 hex trace-id>-<16 hex span-id>-<flags>"); a bare 32-hex ID is
// also accepted. Malformed or all-zero values report false, so ingress
// falls back to minting.
func ParseTraceparent(h string) (TraceID, bool) {
	h = strings.TrimSpace(h)
	if h == "" {
		return TraceID{}, false
	}
	parts := strings.Split(h, "-")
	if len(parts) == 1 {
		return ParseTraceID(parts[0])
	}
	if len(parts) < 2 {
		return TraceID{}, false
	}
	return ParseTraceID(parts[1])
}

// Span is one node of a trace's span tree. Times are monotonic
// nanosecond offsets from the trace's start, so a persisted tree is
// self-contained. Inner-loop phases (Phase.Level() >= 2) and parallel
// shards are merged: repeated instances under one parent collapse into a
// single node whose Count, DurNS and counters accumulate, keeping the
// tree bounded no matter how many optimizer iterations ran.
type Span struct {
	// Name is the phase name ("tier:minobswin", "minimize", ...), a
	// service-level span ("queue-wait", "solve"), or a parallel section
	// ("par:obs.compute").
	Name string `json:"name"`
	// StartNS is the offset of the span's (first) start.
	StartNS int64 `json:"start_ns"`
	// DurNS is the total duration; for merged spans, summed over all
	// instances. For a span open at snapshot time it includes the
	// elapsed time of the running instance.
	DurNS int64 `json:"dur_ns"`
	// Count is the number of completed instances merged into this node
	// (0 while the only instance is still open).
	Count int64 `json:"count"`
	// Worker is the 1-based worker attribution of a parallel-shard span
	// (0 = not a shard span).
	Worker int `json:"worker,omitempty"`
	// Errs counts instances that ended with an error; Err is the last
	// error text.
	Errs int    `json:"errs,omitempty"`
	Err  string `json:"err,omitempty"`
	// Open marks a span still running when the tree was snapshotted.
	Open bool `json:"open,omitempty"`
	// Counters and Gauges hold the events recorded while this span was
	// the innermost open one, by name: counter totals and gauge maxima.
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
	Children []*Span          `json:"children,omitempty"`

	// tally is a live Trace node's counter and gauge storage; Snapshot
	// renders it into Counters and Gauges.
	tally *tally
}

// tally stores one live span's counters and gauges as arrays, so Count
// and Gauge never allocate once the span holds a tally.
type tally struct {
	counters [NumCounters]int64
	gauges   [NumGauges]int64
}

// maps renders the non-zero entries by name.
func (t *tally) maps() (counters, gauges map[string]int64) {
	if t == nil {
		return nil, nil
	}
	return byName(counterNames[:], t.counters[:]), byName(gaugeNames[:], t.gauges[:])
}

// byName maps the non-zero values to their names (nil when all are zero).
func byName(names []string, vals []int64) map[string]int64 {
	var m map[string]int64
	for i, v := range vals {
		if v != 0 {
			if m == nil {
				m = make(map[string]int64)
			}
			m[names[i]] = v
		}
	}
	return m
}

// Find returns the first span named name in a depth-first walk of the
// subtree rooted at s (including s), or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if got := c.Find(name); got != nil {
			return got
		}
	}
	return nil
}

// Walk visits every span of the subtree in depth-first order; depth is 0
// at s.
func (s *Span) Walk(fn func(depth int, sp *Span)) {
	if s == nil {
		return
	}
	var rec func(d int, sp *Span)
	rec = func(d int, sp *Span) {
		fn(d, sp)
		for _, c := range sp.Children {
			rec(d+1, c)
		}
	}
	rec(0, s)
}

// maxTraceSpans soft-caps the number of distinct nodes a trace grows:
// past it, even normally-individual spans merge into a same-named
// sibling rather than appending, so a pathological run cannot balloon a
// persisted trace. Distinct names are bounded by the phase enum times
// the tree depth, so the cap is rarely approached.
const maxTraceSpans = 4096

// Trace is the Recorder that stores a run: a span tree in which phase
// spans from the solver nest under the currently-open span, counters and
// gauges attach to the innermost open span, parallel shards are
// attributed to workers via ShardSpan, and service-level spans
// (queue-wait, solve) are opened with Begin/End. It is safe for
// concurrent use; span nesting follows the recording goroutine's
// open-span stack, which matches the solver's single-goroutine phase
// discipline (shards are leaves and may arrive from any goroutine).
// Flat per-run totals are a Fold of its finished document.
type Trace struct {
	id    TraceID
	start time.Time

	mu    sync.Mutex
	root  *Span
	stack []traceFrame
	nodes int
}

type traceFrame struct {
	span   *Span
	t0     time.Time
	merged bool
}

// NewTrace starts a trace; a zero id mints a fresh one.
func NewTrace(id TraceID) *Trace {
	if id.IsZero() {
		id = NewTraceID()
	}
	return &Trace{id: id, start: time.Now(), root: &Span{Name: "job"}}
}

// ID returns the trace's identifier.
func (t *Trace) ID() TraceID { return t.id }

// Start returns the trace's wall-clock start time.
func (t *Trace) Start() time.Time { return t.start }

// SpanStart implements Recorder: phases at Level >= 2 (inner-loop
// activities) merge into one node per parent.
func (t *Trace) SpanStart(p Phase) { t.begin(p.String(), p.Level() >= 2, 0) }

// SpanEnd implements Recorder.
func (t *Trace) SpanEnd(p Phase, err error) { t.end(p.String(), err) }

// Count implements Recorder: n is added to the innermost open span, or
// to the root when no span is open.
func (t *Trace) Count(c Counter, n int64) {
	if c >= NumCounters {
		return
	}
	t.mu.Lock()
	t.topTally().counters[c] += n
	t.mu.Unlock()
}

// Gauge implements Recorder: the innermost open span (or the root) keeps
// the maximum sampled value.
func (t *Trace) Gauge(g Gauge, v int64) {
	if g >= NumGauges {
		return
	}
	t.mu.Lock()
	if tl := t.topTally(); v > tl.gauges[g] {
		tl.gauges[g] = v
	}
	t.mu.Unlock()
}

// topTally returns the innermost open span's tally, creating it on the
// span's first event. Callers hold t.mu.
func (t *Trace) topTally() *tally {
	sp := t.top()
	if sp.tally == nil {
		sp.tally = new(tally)
	}
	return sp.tally
}

// Begin opens a named service-level span (e.g. "queue-wait").
func (t *Trace) Begin(name string) { t.begin(name, false, 0) }

// End closes the innermost open span named name; spans left open above
// it are force-closed (mismatched instrumentation must not corrupt the
// tree). An unmatched End is ignored.
func (t *Trace) End(name string, err error) { t.end(name, err) }

// ShardSpan implements ShardRecorder: one parallel-shard execution,
// attributed to its worker, merged per (open parent, op, worker).
func (t *Trace) ShardSpan(op string, worker int, d time.Duration, err error) {
	now := time.Now()
	name := "par:" + op
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.top()
	node := findChild(parent, name, worker+1)
	if node == nil {
		node = &Span{Name: name, Worker: worker + 1, StartNS: int64(now.Add(-d).Sub(t.start))}
		parent.Children = append(parent.Children, node)
		t.nodes++
	}
	node.Count++
	node.DurNS += int64(d)
	if err != nil {
		node.Errs++
		node.Err = err.Error()
	}
}

func (t *Trace) top() *Span {
	if n := len(t.stack); n > 0 {
		return t.stack[n-1].span
	}
	return t.root
}

func findChild(parent *Span, name string, worker int) *Span {
	for _, c := range parent.Children {
		if c.Name == name && c.Worker == worker {
			return c
		}
	}
	return nil
}

func (t *Trace) begin(name string, merged bool, worker int) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.top()
	if !merged && t.nodes >= maxTraceSpans {
		merged = true
	}
	var node *Span
	if merged {
		node = findChild(parent, name, worker)
	}
	if node == nil {
		node = &Span{Name: name, Worker: worker, StartNS: int64(now.Sub(t.start))}
		parent.Children = append(parent.Children, node)
		t.nodes++
	}
	t.stack = append(t.stack, traceFrame{span: node, t0: now, merged: merged})
}

func (t *Trace) end(name string, err error) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	i := len(t.stack) - 1
	for i >= 0 && t.stack[i].span.Name != name {
		i--
	}
	if i < 0 {
		return
	}
	for k := len(t.stack) - 1; k > i; k-- {
		closeFrame(t.stack[k], now, nil)
	}
	closeFrame(t.stack[i], now, err)
	t.stack = t.stack[:i]
}

func closeFrame(f traceFrame, now time.Time, err error) {
	f.span.DurNS += int64(now.Sub(f.t0))
	f.span.Count++
	if err != nil {
		f.span.Errs++
		f.span.Err = err.Error()
	}
}

// Finish force-closes every open span. Call once when the job reaches a
// terminal state, before building the persisted document.
func (t *Trace) Finish() {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := len(t.stack) - 1; k >= 0; k-- {
		closeFrame(t.stack[k], now, nil)
	}
	t.stack = t.stack[:0]
}

// Snapshot deep-copies the span tree. Spans still open are marked Open
// and their DurNS includes the running instance's elapsed time, so a
// live snapshot of an in-flight job reads like a finished one.
func (t *Trace) Snapshot() *Span { return t.snapshot(time.Now()) }

// snapshot is Snapshot as of now.
func (t *Trace) snapshot(now time.Time) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	open := make(map[*Span]time.Time, len(t.stack))
	for _, f := range t.stack {
		open[f.span] = f.t0
	}
	var cp func(s *Span) *Span
	cp = func(s *Span) *Span {
		out := *s
		out.Children = nil
		out.tally = nil
		out.Counters, out.Gauges = s.tally.maps()
		if t0, ok := open[s]; ok {
			out.Open = true
			out.DurNS += int64(now.Sub(t0))
		}
		for _, c := range s.Children {
			out.Children = append(out.Children, cp(c))
		}
		return &out
	}
	return cp(t.root)
}

// CurrentPath returns the names of the open spans, outermost first —
// the job's "where is it right now" for live introspection.
func (t *Trace) CurrentPath() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.stack))
	for i, f := range t.stack {
		out[i] = f.span.Name
	}
	return out
}

// StackString renders the open-span stack with per-span elapsed time,
// e.g. "solve(1m2s) > tier:minobswin(1m1s) > minimize(58s)" — the
// snapshot the slow-job watchdog logs.
func (t *Trace) StackString() string {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.stack) == 0 {
		return "(no open spans)"
	}
	var b strings.Builder
	for i, f := range t.stack {
		if i > 0 {
			b.WriteString(" > ")
		}
		fmt.Fprintf(&b, "%s(%v)", f.span.Name, now.Sub(f.t0).Round(time.Millisecond))
	}
	return b.String()
}

// TraceDoc is the persisted form of one job's trace: the span tree plus
// enough job metadata to aggregate fleets of documents without the job
// table (seranalyze -trace).
type TraceDoc struct {
	TraceID  string    `json:"trace_id"`
	JobID    string    `json:"job_id,omitempty"`
	Name     string    `json:"name,omitempty"`
	Status   string    `json:"status,omitempty"`
	Tier     string    `json:"tier,omitempty"`
	Degraded bool      `json:"degraded,omitempty"`
	Start    time.Time `json:"start"`
	WallNS   int64     `json:"wall_ns"`
	Root     *Span     `json:"root"`
}

// Doc snapshots the trace into a document. It works on a live trace
// (open spans annotated) as well as a finished one; wall-clock is the
// time from the trace's start to the call, before the copy is made.
func (t *Trace) Doc(jobID, name, status, tier string, degraded bool) *TraceDoc {
	now := time.Now()
	root := t.snapshot(now)
	wall := now.Sub(t.start)
	root.DurNS = int64(wall)
	return &TraceDoc{
		TraceID:  t.id.String(),
		JobID:    jobID,
		Name:     name,
		Status:   status,
		Tier:     tier,
		Degraded: degraded,
		Start:    t.start,
		WallNS:   int64(wall),
		Root:     root,
	}
}

// Encode marshals the document as one compact JSON line.
func (d *TraceDoc) Encode() []byte {
	b, err := json.Marshal(d)
	if err != nil {
		return nil // unreachable: the tree is plain data
	}
	return b
}

// DecodeTraceDoc parses a persisted trace document.
func DecodeTraceDoc(b []byte) (*TraceDoc, error) {
	var d TraceDoc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("telemetry: bad trace document: %w", err)
	}
	if d.TraceID == "" || d.Root == nil {
		return nil, fmt.Errorf("telemetry: trace document missing trace_id or root")
	}
	return &d, nil
}
