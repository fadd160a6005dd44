package telemetry

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEnumNamesRoundTrip(t *testing.T) {
	for p := Phase(0); p < NumPhases; p++ {
		got, ok := ParsePhase(p.String())
		if !ok || got != p {
			t.Errorf("ParsePhase(%q) = %v, %v", p.String(), got, ok)
		}
		if strings.Contains(p.String(), "Phase(") {
			t.Errorf("phase %d has no name", p)
		}
	}
	for c := Counter(0); c < NumCounters; c++ {
		got, ok := ParseCounter(c.String())
		if !ok || got != c {
			t.Errorf("ParseCounter(%q) = %v, %v", c.String(), got, ok)
		}
	}
	for g := Gauge(0); g < NumGauges; g++ {
		got, ok := ParseGauge(g.String())
		if !ok || got != g {
			t.Errorf("ParseGauge(%q) = %v, %v", g.String(), got, ok)
		}
	}
	if _, ok := ParsePhase("no-such-phase"); ok {
		t.Error("ParsePhase accepted an unknown name")
	}
}

// finishedDoc closes every open span and snapshots the trace.
func finishedDoc(tr *Trace) *TraceDoc {
	tr.Finish()
	return tr.Doc("", "", "", "", false)
}

// TestCollectorConcurrent hammers one Trace, the collector of a run's
// counters, gauges and spans, from many goroutines; run under -race it
// proves all three are safe for the parallel sweeps serbench runs, and
// that counts sum exactly.
func TestCollectorConcurrent(t *testing.T) {
	tr := NewTrace(TraceID{})
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Count(CounterSteps, 1)
				tr.Gauge(GaugePeakRetimingSpan, int64(i))
				tr.SpanStart(PhaseFindViolations)
				tr.SpanEnd(PhaseFindViolations, nil)
			}
		}()
	}
	wg.Wait()
	s := Fold(finishedDoc(tr))
	if got := s.Counter(CounterSteps); got != workers*perWorker {
		t.Errorf("steps = %d, want %d", got, workers*perWorker)
	}
	if got := s.Gauge(GaugePeakRetimingSpan); got != perWorker-1 {
		t.Errorf("gauge max = %d, want %d", got, perWorker-1)
	}
	if got := s.Phases[PhaseFindViolations].Count; got != workers*perWorker {
		t.Errorf("find-violations spans = %d, want %d", got, workers*perWorker)
	}
}

// TestCollectorMergeConcurrent drives one Trace from goroutines covering
// every event type at once, then checks the fold merged the totals
// exactly. Run with -race. (TestCollectorConcurrent covers counters;
// this one adds spans and gauges in the same interleaving.)
func TestCollectorMergeConcurrent(t *testing.T) {
	tr := NewTrace(TraceID{})
	const gs, rounds = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < gs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				tr.SpanStart(PhaseELWRecompute)
				tr.SpanEnd(PhaseELWRecompute, nil)
				tr.Count(Counter(0), 2)
				tr.Gauge(Gauge(0), int64(i*rounds+j))
			}
		}(i)
	}
	wg.Wait()
	st := Fold(finishedDoc(tr))
	if got := st.Phases[PhaseELWRecompute].Count; got != gs*rounds {
		t.Fatalf("span count = %d, want %d", got, gs*rounds)
	}
	if got := st.Counter(Counter(0)); got != gs*rounds*2 {
		t.Fatalf("counter = %d, want %d", got, gs*rounds*2)
	}
	if max := st.Gauge(Gauge(0)); max != (gs-1)*rounds+rounds-1 {
		t.Fatalf("gauge max = %d, want %d", max, (gs-1)*rounds+rounds-1)
	}
}

// TestTraceCountersOnSpans checks where events land: on the innermost
// open span, on the root when none is open, and accumulated across the
// instances of a merged span.
func TestTraceCountersOnSpans(t *testing.T) {
	tr := NewTrace(TraceID{})
	tr.Count(CounterCommits, 1) // no span open: the root
	tr.SpanStart(PhaseMinimize)
	tr.Count(CounterSteps, 2)
	for i := 0; i < 3; i++ { // merged level-2 node
		tr.SpanStart(PhaseFindViolations)
		tr.Count(CounterLabelFulls, 1)
		tr.Gauge(GaugePeakRetimingSpan, int64(4-i))
		tr.SpanEnd(PhaseFindViolations, nil)
	}
	tr.Count(CounterSteps, 1)
	tr.SpanEnd(PhaseMinimize, nil)
	root := finishedDoc(tr).Root
	if got := root.Counters["commits"]; got != 1 {
		t.Errorf("root commits = %d, want 1 (%v)", got, root.Counters)
	}
	min := root.Find("minimize")
	if got := min.Counters; len(got) != 1 || got["steps"] != 3 {
		t.Errorf("minimize counters = %v, want steps=3 only", got)
	}
	fv := root.Find("find-violations")
	if fv.Counters["label-fulls"] != 3 || fv.Gauges["peak-retiming-span"] != 4 {
		t.Errorf("merged find-violations counters = %v gauges = %v", fv.Counters, fv.Gauges)
	}
	if min.Gauges != nil {
		t.Errorf("minimize holds gauges %v recorded in its child", min.Gauges)
	}
}

// TestFoldSpanErrors checks the fold's per-phase counts, durations and
// error counts.
func TestFoldSpanErrors(t *testing.T) {
	tr := NewTrace(TraceID{})
	tr.SpanStart(PhaseInit)
	time.Sleep(time.Millisecond)
	tr.SpanEnd(PhaseInit, nil)
	tr.SpanStart(PhaseMinimize)
	tr.SpanEnd(PhaseMinimize, errors.New("boom"))
	tr.SpanEnd(PhaseGains, nil) // unmatched: ignored
	tr.Begin("solve")           // not a phase: not folded
	tr.End("solve", nil)
	s := Fold(finishedDoc(tr))
	if !s.Observed(PhaseInit) || s.Phases[PhaseInit].Total < time.Millisecond {
		t.Errorf("init span not folded: %+v", s.Phases[PhaseInit])
	}
	if s.Phases[PhaseMinimize].Errs != 1 {
		t.Errorf("minimize errs = %d, want 1", s.Phases[PhaseMinimize].Errs)
	}
	if s.Observed(PhaseGains) {
		t.Error("unmatched SpanEnd produced a span")
	}
	if s.Wall < s.Phases[PhaseInit].Total {
		t.Errorf("wall %v below the init span %v", s.Wall, s.Phases[PhaseInit].Total)
	}
}

// TestFoldSurvivesEncoding checks that a persisted document folds to the
// same summary as the live trace it came from.
func TestFoldSurvivesEncoding(t *testing.T) {
	tr := NewTrace(TraceID{})
	tr.SpanStart(PhaseSynthesize)
	tr.SpanEnd(PhaseSynthesize, nil)
	tr.SpanStart(PhaseTierMinObsWin)
	tr.SpanStart(PhaseMinimize)
	tr.Count(CounterSteps, 3)
	tr.Count(CounterSteps, 2)
	tr.Gauge(GaugePeakRetimingSpan, 4)
	tr.Gauge(GaugePeakRetimingSpan, 2) // below max: ignored
	tr.ShardSpan("obs.compute", 1, time.Millisecond, nil)
	tr.Count(CounterParShards, 2)
	tr.SpanEnd(PhaseMinimize, nil)
	tr.SpanEnd(PhaseTierMinObsWin, errors.New("stalled"))
	doc := finishedDoc(tr)
	live := Fold(doc)
	got, err := DecodeTraceDoc(doc.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if decoded := Fold(got); *decoded != *live {
		t.Fatalf("fold after encoding = %+v, live = %+v", decoded, live)
	}
	if live.Counter(CounterSteps) != 5 || live.Gauge(GaugePeakRetimingSpan) != 4 ||
		live.Phases[PhaseTierMinObsWin].Errs != 1 || !live.Observed(PhaseMinimize) {
		t.Fatalf("live fold = %+v", live)
	}
	var report strings.Builder
	if err := live.WriteReport(&report, "s27"); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	for _, want := range []string{"== run s27 ==", "coverage", "tier:minobswin", "\n  minimize"} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("report missing %q:\n%s", want, report.String())
		}
	}
}

// TestLoadTraceDocs reads both trace-file layouts: a JSONL file, where
// blank lines are skipped, and a directory of one document per file.
// Undecodable documents are counted, not fatal.
func TestLoadTraceDocs(t *testing.T) {
	dir := t.TempDir()
	a := finishedDoc(NewTrace(TraceID{})).Encode()
	b := finishedDoc(NewTrace(TraceID{})).Encode()
	file := filepath.Join(dir, "trace.jsonl")
	data := bytes.Join([][]byte{a, nil, []byte("not json"), b, []byte("  "), nil}, []byte{'\n'})
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	docs, skipped, err := LoadTraceDocs(file)
	if err != nil || len(docs) != 2 || skipped != 1 {
		t.Fatalf("file: %d docs, %d skipped, err %v; want 2, 1, nil", len(docs), skipped, err)
	}

	traces := filepath.Join(dir, "traces")
	for name, blob := range map[string][]byte{"a": a, "b": b, "c": []byte("{")} {
		if err := os.MkdirAll(traces, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(traces, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(traces, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	docs, skipped, err = LoadTraceDocs(traces)
	if err != nil || len(docs) != 2 || skipped != 1 {
		t.Fatalf("dir: %d docs, %d skipped, err %v; want 2, 1, nil", len(docs), skipped, err)
	}
	if _, _, err := LoadTraceDocs(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing path accepted")
	}
}

func TestTeeAndOrNop(t *testing.T) {
	if OrNop(nil) != Nop {
		t.Error("OrNop(nil) != Nop")
	}
	if Tee() != Nop || Tee(nil, nil) != Nop {
		t.Error("empty Tee != Nop")
	}
	a := NewTrace(TraceID{})
	if Tee(nil, a) != Recorder(a) {
		t.Error("single-recorder Tee did not collapse")
	}
	b := NewTrace(TraceID{})
	both := Tee(a, b)
	both.Count(CounterCommits, 2)
	for _, tr := range []*Trace{a, b} {
		if got := Fold(finishedDoc(tr)).Counter(CounterCommits); got != 2 {
			t.Errorf("Tee did not fan out: commits = %d", got)
		}
	}
}

// TestNopZeroAllocs pins the overhead budget: recording against the no-op
// recorder must not allocate, so always-on instrumentation is free when no
// recorder is configured.
func TestNopZeroAllocs(t *testing.T) {
	rec := OrNop(nil)
	if n := testing.AllocsPerRun(1000, func() {
		rec.SpanStart(PhaseMinimize)
		rec.Count(CounterSteps, 1)
		rec.Gauge(GaugePeakRetimingSpan, 7)
		rec.SpanEnd(PhaseMinimize, nil)
	}); n != 0 {
		t.Errorf("Nop recorder allocates %.1f allocs/op, want 0", n)
	}
}

// TestTraceCountZeroAllocs keeps the live counter path allocation-free:
// once the innermost span holds counters, Count and Gauge only add.
func TestTraceCountZeroAllocs(t *testing.T) {
	tr := NewTrace(TraceID{})
	tr.SpanStart(PhaseMinimize)
	tr.Count(CounterSteps, 1)
	if n := testing.AllocsPerRun(1000, func() {
		tr.Count(CounterSteps, 1)
		tr.Gauge(GaugePeakRetimingSpan, 3)
	}); n != 0 {
		t.Errorf("Trace counters allocate %.1f allocs/op, want 0", n)
	}
}
