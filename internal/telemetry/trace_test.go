package telemetry

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDParse(t *testing.T) {
	id := NewTraceID()
	if id.IsZero() {
		t.Fatal("NewTraceID minted the zero ID")
	}
	got, ok := ParseTraceID(id.String())
	if !ok || got != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v", id.String(), got, ok)
	}
	for _, bad := range []string{
		"",
		"abc",
		"00000000000000000000000000000000",   // all-zero is invalid
		"zz102030405060708090a0b0c0d0e0f0",   // not hex
		"0102030405060708090a0b0c0d0e0f0102", // too long
	} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

func TestParseTraceparent(t *testing.T) {
	id := NewTraceID()
	cases := []struct {
		in   string
		want TraceID
		ok   bool
	}{
		{"00-" + id.String() + "-00f067aa0ba902b7-01", id, true},
		{id.String(), id, true},               // bare ID accepted
		{"  " + id.String() + "  ", id, true}, // whitespace trimmed
		{"", TraceID{}, false},
		{"00-00000000000000000000000000000000-00f067aa0ba902b7-01", TraceID{}, false},
		{"00-nothex-00f067aa0ba902b7-01", TraceID{}, false},
		{"banana", TraceID{}, false},
	}
	for _, c := range cases {
		got, ok := ParseTraceparent(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("ParseTraceparent(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

// TestTraceTree drives a trace through the shape of a real job — queue
// wait, two tiers, pipeline stages, merged inner-loop spans, parallel
// shards — and checks the resulting tree node by node.
func TestTraceTree(t *testing.T) {
	tr := NewTrace(TraceID{})
	tr.Begin("queue-wait")
	tr.End("queue-wait", nil)
	tr.Begin("solve")

	// Tier 1 fails, tier 2 succeeds.
	tr.SpanStart(PhaseTierMinObsWin)
	tr.SpanStart(PhaseMinimize)
	for i := 0; i < 3; i++ { // level-2 spans merge into one node
		tr.SpanStart(PhaseFindViolations)
		tr.SpanEnd(PhaseFindViolations, nil)
	}
	tr.SpanEnd(PhaseMinimize, nil)
	tr.SpanEnd(PhaseTierMinObsWin, errors.New("guard: budget"))
	tr.SpanStart(PhaseTierMinObs)
	tr.ShardSpan("obs.compute", 0, time.Millisecond, nil)
	tr.ShardSpan("obs.compute", 0, time.Millisecond, nil)
	tr.ShardSpan("obs.compute", 1, 2*time.Millisecond, nil)
	tr.SpanEnd(PhaseTierMinObs, nil)

	tr.End("solve", nil)
	tr.Finish()
	root := tr.Snapshot()

	if root.Name != "job" || len(root.Children) != 2 {
		t.Fatalf("root = %q with %d children, want job with 2", root.Name, len(root.Children))
	}
	if root.Children[0].Name != "queue-wait" || root.Children[1].Name != "solve" {
		t.Fatalf("top spans = %q, %q", root.Children[0].Name, root.Children[1].Name)
	}
	// Tiers nest under solve because they opened while solve was open.
	solve := root.Children[1]
	if len(solve.Children) != 2 {
		t.Fatalf("solve has %d children, want 2 tiers", len(solve.Children))
	}
	t1 := solve.Children[0]
	if t1.Name != "tier:minobswin" || t1.Errs != 1 || !strings.Contains(t1.Err, "budget") {
		t.Fatalf("tier 1 = %+v", t1)
	}
	min := t1.Find("minimize")
	if min == nil || len(min.Children) != 1 {
		t.Fatalf("minimize missing or unmerged: %+v", min)
	}
	if fv := min.Children[0]; fv.Name != "find-violations" || fv.Count != 3 {
		t.Fatalf("find-violations merged node = %+v, want count 3", fv)
	}
	// Shards: one node per (op, worker), counts accumulated.
	t2 := solve.Children[1]
	if len(t2.Children) != 2 {
		t.Fatalf("tier 2 has %d shard nodes, want 2", len(t2.Children))
	}
	w1 := t2.Children[0]
	if w1.Name != "par:obs.compute" || w1.Worker != 1 || w1.Count != 2 {
		t.Fatalf("shard worker 1 = %+v", w1)
	}
	if w2 := t2.Children[1]; w2.Worker != 2 || w2.Count != 1 {
		t.Fatalf("shard worker 2 = %+v", w2)
	}
}

func TestTraceTreeTopLevelCount(t *testing.T) {
	tr := NewTrace(TraceID{})
	tr.Begin("queue-wait")
	tr.End("queue-wait", nil)
	tr.Begin("solve")
	tr.End("solve", nil)
	root := tr.Snapshot()
	if len(root.Children) != 2 {
		t.Fatalf("got %d top-level spans, want 2", len(root.Children))
	}
}

// TestTraceEndForceCloses checks that ending an outer span closes spans
// accidentally left open beneath it instead of corrupting the stack.
func TestTraceEndForceCloses(t *testing.T) {
	tr := NewTrace(TraceID{})
	tr.Begin("solve")
	tr.SpanStart(PhaseTierMinObsWin)
	tr.SpanStart(PhaseMinimize) // never explicitly ended
	tr.End("solve", nil)
	if got := tr.CurrentPath(); len(got) != 0 {
		t.Fatalf("open path after End(solve) = %v, want empty", got)
	}
	root := tr.Snapshot()
	min := root.Find("minimize")
	if min == nil || min.Count != 1 || min.Open {
		t.Fatalf("force-closed span = %+v", min)
	}
	// An unmatched End is a no-op.
	tr.End("nonexistent", nil)
}

func TestTraceSnapshotWhileOpen(t *testing.T) {
	tr := NewTrace(TraceID{})
	tr.Begin("solve")
	tr.SpanStart(PhaseTierMinObsWin)
	time.Sleep(5 * time.Millisecond)

	root := tr.Snapshot()
	solve := root.Find("solve")
	tier := root.Find("tier:minobswin")
	if solve == nil || !solve.Open || tier == nil || !tier.Open {
		t.Fatalf("open spans not marked: solve=%+v tier=%+v", solve, tier)
	}
	if solve.DurNS <= 0 || tier.DurNS <= 0 {
		t.Fatalf("open spans carry no elapsed time: %d, %d", solve.DurNS, tier.DurNS)
	}
	if got := tr.CurrentPath(); len(got) != 2 || got[0] != "solve" || got[1] != "tier:minobswin" {
		t.Fatalf("CurrentPath = %v", got)
	}
	s := tr.StackString()
	if !strings.Contains(s, "solve(") || !strings.Contains(s, " > tier:minobswin(") {
		t.Fatalf("StackString = %q", s)
	}
	// The snapshot is a deep copy: mutating it must not touch the trace.
	solve.Name = "mutated"
	if tr.Snapshot().Find("solve") == nil {
		t.Fatal("snapshot aliased the live tree")
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace(TraceID{})
	tr.Begin("solve")
	for i := 0; i < maxTraceSpans+10; i++ {
		tr.Begin("burst")
		tr.End("burst", nil)
	}
	tr.End("solve", nil)
	root := tr.Snapshot()
	var n int
	root.Walk(func(int, *Span) { n++ })
	if n > maxTraceSpans+2 { // root + solve + capped children
		t.Fatalf("tree grew to %d nodes past the %d cap", n, maxTraceSpans)
	}
	// Past the cap, same-named spans merge instead of appending.
	solve := root.Find("solve")
	var total int64
	for _, c := range solve.Children {
		if c.Name == "burst" {
			total += c.Count
		}
	}
	if total != maxTraceSpans+10 {
		t.Fatalf("merged burst count = %d, want %d", total, maxTraceSpans+10)
	}
}

// TestTraceConcurrentShards hammers one trace with shard completions
// from many goroutines while the owner opens and closes phases — the
// shape par.Pool produces. Run with -race.
func TestTraceConcurrentShards(t *testing.T) {
	tr := NewTrace(TraceID{})
	tr.Begin("solve")
	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tr.ShardSpan("obs.compute", w, time.Microsecond, nil)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			_ = tr.Snapshot()
			_ = tr.CurrentPath()
			_ = tr.StackString()
		}
	}()
	wg.Wait()
	<-done
	tr.End("solve", nil)
	tr.Finish()

	root := tr.Snapshot()
	var count int64
	root.Walk(func(_ int, sp *Span) {
		if strings.HasPrefix(sp.Name, "par:") {
			count += sp.Count
		}
	})
	if count != workers*rounds {
		t.Fatalf("shard completions recorded = %d, want %d", count, workers*rounds)
	}
}

func TestTraceDocRoundTrip(t *testing.T) {
	tr := NewTrace(TraceID{})
	tr.Begin("queue-wait")
	tr.End("queue-wait", nil)
	tr.Begin("solve")
	tr.SpanStart(PhaseTierMinObsWin)
	tr.SpanEnd(PhaseTierMinObsWin, nil)
	tr.End("solve", nil)
	tr.Finish()

	doc := tr.Doc("job-1", "s27", "done", "minobswin", true)
	b := doc.Encode()
	if len(b) == 0 || bytes.ContainsRune(b, '\n') {
		t.Fatalf("Encode = %q, want one non-empty line", b)
	}
	got, err := DecodeTraceDoc(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != tr.ID().String() || got.JobID != "job-1" || got.Name != "s27" ||
		got.Status != "done" || got.Tier != "minobswin" || !got.Degraded {
		t.Fatalf("decoded doc = %+v", got)
	}
	if got.Root.Find("tier:minobswin") == nil {
		t.Fatal("decoded tree lost the tier span")
	}
	if got.WallNS <= 0 || got.Root.DurNS != got.WallNS {
		t.Fatalf("wall = %d, root dur = %d", got.WallNS, got.Root.DurNS)
	}

	for _, bad := range [][]byte{
		nil,
		[]byte("{"),
		[]byte(`{}`),
		[]byte(`{"trace_id":"aa"}`),       // no root
		[]byte(`{"root":{"name":"job"}}`), // no trace ID
	} {
		if _, err := DecodeTraceDoc(bad); err == nil {
			t.Errorf("DecodeTraceDoc(%q) accepted", bad)
		}
	}
}

func TestQuantile(t *testing.T) {
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("Quantile(nil) = %v", got)
	}
	ds := []time.Duration{5, 1, 4, 2, 3} // unsorted on purpose
	cases := []struct {
		q    float64
		want time.Duration
	}{{0, 1}, {0.5, 3}, {0.95, 5}, {1, 5}}
	for _, c := range cases {
		if got := Quantile(ds, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Nearest rank is ceil(q·n): p95 of 11 samples is the 11th, the
	// largest, not the second-largest.
	eleven := make([]time.Duration, 11)
	for i := range eleven {
		eleven[i] = time.Duration(i + 1)
	}
	if got := Quantile(eleven, 0.95); got != 11 {
		t.Errorf("Quantile(11 samples, 0.95) = %v, want 11", got)
	}
	// The input slice must not be reordered.
	if ds[0] != 5 {
		t.Fatalf("Quantile sorted the caller's slice: %v", ds)
	}
}

func TestAggregateTraces(t *testing.T) {
	mk := func(job, status, tier string, degraded bool, queue, solve time.Duration) *TraceDoc {
		tr := NewTrace(TraceID{})
		tr.Begin("queue-wait")
		tr.End("queue-wait", nil)
		tr.Begin("solve")
		tr.SpanStart(PhaseTierMinObsWin)
		tr.Count(CounterSteps, 2)
		tr.Gauge(GaugePeakRetimingSpan, int64(len(job)))
		tr.SpanEnd(PhaseTierMinObsWin, nil)
		tr.End("solve", nil)
		tr.Finish()
		doc := tr.Doc(job, job, status, tier, degraded)
		// Overwrite the measured durations with exact ones so the
		// aggregate is deterministic.
		doc.Root.Find("queue-wait").DurNS = int64(queue)
		doc.Root.Find("solve").DurNS = int64(solve)
		doc.WallNS = int64(queue + solve)
		return doc
	}
	docs := []*TraceDoc{
		mk("a", "done", "minobswin", false, 10*time.Millisecond, 100*time.Millisecond),
		mk("b", "done", "minobs", true, 20*time.Millisecond, 300*time.Millisecond),
		mk("c", "failed", "", false, 30*time.Millisecond, 50*time.Millisecond),
	}
	r := AggregateTraces(docs)
	if r.Jobs != 3 || r.ByStatus["done"] != 2 || r.ByStatus["failed"] != 1 {
		t.Fatalf("jobs/status = %d %v", r.Jobs, r.ByStatus)
	}
	if r.ByTier["minobs"] != 1 || r.Degraded != 1 {
		t.Fatalf("tier/degraded = %v %d", r.ByTier, r.Degraded)
	}
	if len(r.QueueWait) != 3 || len(r.Solve) != 3 {
		t.Fatalf("queue/solve samples = %d/%d", len(r.QueueWait), len(r.Solve))
	}
	if r.PhaseCount["tier:minobswin"] != 3 {
		t.Fatalf("phase counts = %v", r.PhaseCount)
	}
	if len(r.Slowest) == 0 || r.Slowest[0].JobID != "b" {
		t.Fatalf("slowest = %+v", r.Slowest)
	}
	if r.Totals.Counter(CounterSteps) != 6 || r.Totals.Gauge(GaugePeakRetimingSpan) != 1 {
		t.Fatalf("totals: steps %d, peak span %d; want 6, 1",
			r.Totals.Counter(CounterSteps), r.Totals.Gauge(GaugePeakRetimingSpan))
	}
	var buf bytes.Buffer
	if err := r.WriteReport(&buf, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"jobs", "queue-wait", "solve", "tier:minobswin", "slowest",
		"counters (total across jobs)", "steps", "gauges (max across jobs)", "peak-retiming-span",
		"== run b ==", "== run a =="} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "== run c ==") {
		t.Errorf("report has a per-run table beyond top 2:\n%s", out)
	}
}
